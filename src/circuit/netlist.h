#pragma once
// Gate-level combinational netlists.
//
// A Netlist is a DAG of single-output gates over named nets. Primary inputs
// are source nets; any net can be marked as a primary output. Word-level
// structure — the grouping of bit nets into k-bit words A, B, Z with LSB-first
// significance, matching A = a_0 + a_1·α + … + a_{k-1}·α^{k-1} — is recorded
// alongside, because the abstraction engine needs the bit/word correspondence
// (paper Eqn. 1).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gfa {

using NetId = std::uint32_t;
inline constexpr NetId kNoNet = UINT32_MAX;

enum class GateType : std::uint8_t {
  kInput,   // primary input (no fanins)
  kConst0,  // constant 0 (no fanins)
  kConst1,  // constant 1 (no fanins)
  kBuf,     // 1 fanin
  kNot,     // 1 fanin
  kAnd,     // >= 2 fanins
  kOr,      // >= 2 fanins
  kXor,     // >= 2 fanins
  kNand,    // >= 2 fanins
  kNor,     // >= 2 fanins
  kXnor,    // >= 2 fanins
};

const char* gate_type_name(GateType t);
std::optional<GateType> gate_type_from_name(std::string_view name);

/// A k-bit word: bits[i] is the net carrying coordinate i (coefficient of α^i).
struct Word {
  std::string name;
  std::vector<NetId> bits;
};

class Netlist {
 public:
  struct Gate {
    GateType type;
    std::vector<NetId> fanins;
    std::string name;  // name of the output net
  };

  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Creates a primary input net.
  NetId add_input(std::string_view name);

  /// Creates a gate driving a fresh net. Fanins must already exist; an
  /// rvalue fanin vector moves into the gate.
  NetId add_gate(GateType type, std::vector<NetId> fanins,
                 std::string_view name = {});

  NetId add_const(bool value, std::string_view name = {});

  /// Marks an existing net as a primary output (order of calls = output order).
  void mark_output(NetId net);

  /// Sizes the net storage and the name index for `nets` nets.
  void reserve(std::size_t nets);

  std::size_t num_nets() const { return gates_.size(); }
  const Gate& gate(NetId n) const { return gates_[n]; }
  Gate& mutable_gate(NetId n) { return gates_[n]; }

  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }

  /// Gates that are neither inputs nor constants.
  std::size_t num_logic_gates() const;

  NetId find_net(std::string_view name) const;  // kNoNet if absent

  /// Declares a word over existing nets (LSB first).
  void declare_word(std::string_view name, std::vector<NetId> bits);
  const std::vector<Word>& words() const { return words_; }
  const Word* find_word(std::string_view name) const;

  /// Nets in topological order (fanins before fanouts). Construction order is
  /// already topological for programmatically built netlists; this recomputes
  /// from scratch so parsed netlists are covered too. Aborts on cycles.
  std::vector<NetId> topological_order() const;

  /// Reverse-topological level of every net: outputs get level 0, and each
  /// net's level is 1 + max over its fanouts. This is the traversal of RATO
  /// (paper Definition 5.1): smaller level = closer to the outputs = larger
  /// in the term order. Nets with no path to an output get levels past the
  /// deepest output cone.
  std::vector<unsigned> reverse_topological_levels() const;

  /// Structural checks: fanin arities, dangling fanins, acyclicity.
  /// Returns an empty string when valid, else a diagnostic.
  std::string validate() const;

 private:
  std::string name_;
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<Word> words_;
  // The name index: open addressing over net ids (kNoNet = empty slot),
  // probed linearly from the hash of gates_[id].name and kept at most half
  // full. It stores no strings and allocates no node per net.
  std::vector<NetId> name_slots_;
  NetId new_net(GateType type, std::vector<NetId> fanins, std::string_view name);
  void reserve_names(std::size_t nets);  // room for `nets` names
  void place_name(NetId id);
};

}  // namespace gfa
