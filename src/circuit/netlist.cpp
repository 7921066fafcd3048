#include "circuit/netlist.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace gfa {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kInput: return "input";
    case GateType::kConst0: return "const0";
    case GateType::kConst1: return "const1";
    case GateType::kBuf: return "buf";
    case GateType::kNot: return "not";
    case GateType::kAnd: return "and";
    case GateType::kOr: return "or";
    case GateType::kXor: return "xor";
    case GateType::kNand: return "nand";
    case GateType::kNor: return "nor";
    case GateType::kXnor: return "xnor";
  }
  return "?";
}

std::optional<GateType> gate_type_from_name(std::string_view name) {
  static constexpr std::pair<std::string_view, GateType> kTable[] = {
      {"input", GateType::kInput}, {"const0", GateType::kConst0},
      {"const1", GateType::kConst1}, {"buf", GateType::kBuf},
      {"not", GateType::kNot},     {"and", GateType::kAnd},
      {"or", GateType::kOr},       {"xor", GateType::kXor},
      {"nand", GateType::kNand},   {"nor", GateType::kNor},
      {"xnor", GateType::kXnor},
  };
  for (const auto& [n, t] : kTable)
    if (n == name) return t;
  return std::nullopt;
}

NetId Netlist::new_net(GateType type, std::vector<NetId> fanins,
                       std::string_view name) {
  const NetId id = static_cast<NetId>(gates_.size());
  std::string net_name =
      name.empty() ? "n" + std::to_string(id) : std::string(name);
  assert(find_net(net_name) == kNoNet && "duplicate net name");
  reserve_names(gates_.size() + 1);
  gates_.push_back(Gate{type, std::move(fanins), std::move(net_name)});
  place_name(id);
  return id;
}

namespace {

std::size_t name_hash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

void Netlist::reserve_names(std::size_t nets) {
  std::size_t cap = 16;
  while (cap < 2 * nets) cap *= 2;
  if (cap <= name_slots_.size()) return;
  // Re-placing in id order keeps the first of two same-named nets first on
  // its probe path, so find_net keeps answering the earlier one.
  name_slots_.assign(cap, kNoNet);
  for (NetId n = 0; n < gates_.size(); ++n) place_name(n);
}

void Netlist::place_name(NetId id) {
  const std::size_t mask = name_slots_.size() - 1;
  std::size_t i = name_hash(gates_[id].name) & mask;
  while (name_slots_[i] != kNoNet) i = (i + 1) & mask;
  name_slots_[i] = id;
}

NetId Netlist::add_input(std::string_view name) {
  const NetId id = new_net(GateType::kInput, {}, name);
  inputs_.push_back(id);
  return id;
}

NetId Netlist::add_gate(GateType type, std::vector<NetId> fanins,
                        std::string_view name) {
  assert(type != GateType::kInput && "use add_input");
  for (NetId f : fanins) assert(f < gates_.size() && "fanin does not exist");
  return new_net(type, std::move(fanins), name);
}

NetId Netlist::add_const(bool value, std::string_view name) {
  return new_net(value ? GateType::kConst1 : GateType::kConst0, {}, name);
}

void Netlist::reserve(std::size_t nets) {
  gates_.reserve(nets);
  reserve_names(nets);
}

void Netlist::mark_output(NetId net) {
  assert(net < gates_.size());
  outputs_.push_back(net);
}

std::size_t Netlist::num_logic_gates() const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (g.type != GateType::kInput && g.type != GateType::kConst0 &&
        g.type != GateType::kConst1)
      ++n;
  }
  return n;
}

NetId Netlist::find_net(std::string_view name) const {
  if (name_slots_.empty()) return kNoNet;
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = name_hash(name) & mask;; i = (i + 1) & mask) {
    const NetId id = name_slots_[i];
    if (id == kNoNet || gates_[id].name == name) return id;
  }
}

void Netlist::declare_word(std::string_view name, std::vector<NetId> bits) {
  for (NetId b : bits) assert(b < gates_.size());
  words_.push_back(Word{std::string(name), std::move(bits)});
}

const Word* Netlist::find_word(std::string_view name) const {
  for (const Word& w : words_)
    if (w.name == name) return &w;
  return nullptr;
}

namespace {

/// The fanout relation in compressed-sparse-row form: the fanouts of net n
/// are targets[offsets[n] .. offsets[n+1]), in increasing net order (a gate
/// listing the same fanin twice appears twice).
struct Fanouts {
  std::vector<std::size_t> offsets;
  std::vector<NetId> targets;
};

Fanouts build_fanouts(const std::vector<Netlist::Gate>& gates) {
  Fanouts out;
  out.offsets.assign(gates.size() + 1, 0);
  for (const Netlist::Gate& g : gates)
    for (NetId f : g.fanins) ++out.offsets[f + 1];
  for (std::size_t n = 0; n < gates.size(); ++n)
    out.offsets[n + 1] += out.offsets[n];
  out.targets.resize(out.offsets.back());
  std::vector<std::size_t> next(out.offsets.begin(), out.offsets.end() - 1);
  for (NetId n = 0; n < gates.size(); ++n)
    for (NetId f : gates[n].fanins) out.targets[next[f]++] = n;
  return out;
}

/// Kahn's algorithm over the fanin relation, with a FIFO of ready nets for
/// a deterministic, stable order.
std::vector<NetId> kahn_order(const std::vector<Netlist::Gate>& gates,
                              const Fanouts& fanouts) {
  std::vector<unsigned> pending(gates.size(), 0);
  for (NetId n = 0; n < gates.size(); ++n)
    pending[n] = static_cast<unsigned>(gates[n].fanins.size());
  std::vector<NetId> order;
  order.reserve(gates.size());
  for (NetId n = 0; n < gates.size(); ++n)
    if (pending[n] == 0) order.push_back(n);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NetId n = order[head];
    for (std::size_t e = fanouts.offsets[n]; e < fanouts.offsets[n + 1]; ++e) {
      const NetId fo = fanouts.targets[e];
      if (--pending[fo] == 0) order.push_back(fo);
    }
  }
  if (order.size() != gates.size())
    throw std::logic_error("netlist contains a combinational cycle");
  return order;
}

}  // namespace

std::vector<NetId> Netlist::topological_order() const {
  return kahn_order(gates_, build_fanouts(gates_));
}

std::vector<unsigned> Netlist::reverse_topological_levels() const {
  const Fanouts fanouts = build_fanouts(gates_);
  const std::vector<NetId> topo = kahn_order(gates_, fanouts);
  std::vector<unsigned> level(gates_.size(), 0);
  // Walk anti-topologically: a net's reverse level is 1 + max over fanouts.
  // Outputs anchor at 0; nets feeding nothing also get 0 and then dominate
  // nothing, which keeps them below their fanins as required.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NetId n = *it;
    unsigned lv = 0;
    for (std::size_t e = fanouts.offsets[n]; e < fanouts.offsets[n + 1]; ++e)
      lv = std::max(lv, level[fanouts.targets[e]] + 1);
    level[n] = lv;
  }
  return level;
}

std::string Netlist::validate() const {
  for (NetId n = 0; n < gates_.size(); ++n) {
    const Gate& g = gates_[n];
    const std::size_t arity = g.fanins.size();
    switch (g.type) {
      case GateType::kInput:
      case GateType::kConst0:
      case GateType::kConst1:
        if (arity != 0) return "net " + g.name + ": source gate with fanins";
        break;
      case GateType::kBuf:
      case GateType::kNot:
        if (arity != 1) return "net " + g.name + ": unary gate needs 1 fanin";
        break;
      default:
        if (arity < 2) return "net " + g.name + ": gate needs >= 2 fanins";
        break;
    }
    for (NetId f : g.fanins) {
      if (f >= gates_.size()) return "net " + g.name + ": dangling fanin";
    }
  }
  try {
    (void)topological_order();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  for (const Word& w : words_) {
    if (w.bits.empty()) return "word " + w.name + ": empty";
    for (NetId b : w.bits) {
      if (b >= gates_.size()) return "word " + w.name + ": dangling bit";
    }
  }
  return {};
}

}  // namespace gfa
