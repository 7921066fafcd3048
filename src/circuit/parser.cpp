#include "circuit/parser.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

namespace gfa {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

std::uint64_t hash_name(std::string_view s) {
  // Eight bytes per multiply (net names are short, so most take one or two),
  // then a full avalanche: the table indexes by the low bits, and names
  // differing only in a late digit must still land apart.
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ s.size();
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
  }
  if (i < s.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, s.size() - i);
    h ^= w;
  }
  h *= 0x94d049bb133111ebull;
  h ^= h >> 32;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 29);
}

/// Open-addressed intern table: each distinct name gets the next dense
/// uint32_t id, and the name itself stays a view into the parsed text. A
/// slot packs the high half of the name's hash above its id, so a probe
/// compares strings only on a likely match.
class NameTable {
 public:
  explicit NameTable(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap *= 2;
    slots_.assign(cap, kEmpty);
    names_.reserve(expected);
  }

  /// The id of `name`, and whether this call added it.
  std::pair<std::uint32_t, bool> intern(std::string_view name) {
    const std::uint64_t h = hash_name(name);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      const auto id = static_cast<std::uint32_t>(slot);
      if ((slot >> 32) == (h >> 32) && names_[id] == name) return {id, false};
    }
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    slots_[i] = (h >> 32 << 32) | id;
    if (2 * names_.size() > slots_.size()) rehash(2 * slots_.size());
    return {id, true};
  }

  std::string_view name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = UINT64_MAX;  // ids stay below 2^32-1

  void rehash(std::size_t cap) {
    slots_.assign(cap, kEmpty);
    const std::size_t mask = cap - 1;
    for (std::uint32_t id = 0; id < names_.size(); ++id) {
      const std::uint64_t h = hash_name(names_[id]);
      std::size_t i = h & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = (h >> 32 << 32) | id;
    }
  }

  std::vector<std::uint64_t> slots_;  // hash high half << 32 | id
  std::vector<std::string_view> names_;
};

/// One definition: an `input` name or a gate line. Its fanin name ids are
/// fanins[begin, end) of the reader's flat fanin array.
struct Decl {
  GateType type;
  std::uint32_t name;
  std::size_t line;
  std::size_t begin, end;
};

struct WordDecl {
  std::string_view name;
  std::size_t line;
  std::size_t begin, end;  // bit name ids in the flat word-bit array
};

/// Splits one line into `toks` (views into the line): ' ', '\t' and '\r'
/// separate tokens, and '#' ends the line even inside a token.
void tokenize(std::string_view line, std::vector<std::string_view>& toks) {
  toks.clear();
  std::size_t start = 0;
  bool in_token = false;
  std::size_t i = 0;
  for (; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (in_token) toks.push_back(line.substr(start, i - start));
      in_token = false;
    } else if (!in_token) {
      start = i;
      in_token = true;
    }
  }
  if (in_token) toks.push_back(line.substr(start, i - start));
}

}  // namespace

Netlist parse_netlist(std::string_view text) {
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  NameTable nets(lines);
  std::vector<std::uint32_t> decl_of;  // net name id -> index in decls
  decl_of.reserve(lines);
  std::vector<Decl> decls;
  decls.reserve(lines);
  std::vector<std::uint32_t> fanins;  // fanin name ids of every gate
  fanins.reserve(2 * lines);
  std::vector<std::pair<std::uint32_t, std::size_t>> outputs;  // id, line
  NameTable word_names(4);
  std::vector<WordDecl> words;
  std::vector<std::uint32_t> word_bits;
  std::string_view module_name = "top";

  auto intern = [&](std::string_view name) {
    const auto [id, added] = nets.intern(name);
    if (added) decl_of.push_back(kNone);
    return id;
  };

  std::vector<std::string_view> toks;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    tokenize(line, toks);
    if (toks.empty()) continue;
    const std::string_view kw = toks[0];

    auto declare = [&](std::string_view name, GateType type,
                       std::size_t begin, std::size_t end) {
      const std::uint32_t id = intern(name);
      if (decl_of[id] != kNone)
        throw ParseError(line_no,
                         "net '" + std::string(name) + "' defined twice");
      decl_of[id] = static_cast<std::uint32_t>(decls.size());
      decls.push_back(Decl{type, id, line_no, begin, end});
    };

    if (kw == "module") {
      if (toks.size() != 2) throw ParseError(line_no, "module expects a name");
      module_name = toks[1];
    } else if (kw == "endmodule") {
      // no-op; single-module format
    } else if (kw == "input") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        declare(toks[i], GateType::kInput, 0, 0);
    } else if (kw == "output") {
      if (toks.size() < 2) throw ParseError(line_no, "output expects net names");
      for (std::size_t i = 1; i < toks.size(); ++i)
        outputs.emplace_back(intern(toks[i]), line_no);
    } else if (kw == "word") {
      if (toks.size() < 3)
        throw ParseError(line_no, "word expects a name and at least one bit");
      if (!word_names.intern(toks[1]).second)
        throw ParseError(line_no,
                         "word '" + std::string(toks[1]) + "' declared twice");
      const std::size_t begin = word_bits.size();
      for (std::size_t i = 2; i < toks.size(); ++i)
        word_bits.push_back(intern(toks[i]));
      words.push_back(WordDecl{toks[1], line_no, begin, word_bits.size()});
    } else if (auto type = gate_type_from_name(kw)) {
      if (*type == GateType::kInput)
        throw ParseError(line_no, "use the 'input' directive for inputs");
      if (toks.size() < 2) throw ParseError(line_no, "gate expects an output net");
      const std::size_t arity = toks.size() - 2;
      const bool unary = *type == GateType::kBuf || *type == GateType::kNot;
      const bool source = *type == GateType::kConst0 || *type == GateType::kConst1;
      if (source && arity != 0)
        throw ParseError(line_no, "constant gate takes no fanins");
      if (unary && arity != 1)
        throw ParseError(line_no, std::string(kw) + " takes exactly one fanin");
      if (!source && !unary && arity < 2)
        throw ParseError(line_no, std::string(kw) + " takes at least two fanins");
      const std::size_t begin = fanins.size();
      for (std::size_t i = 2; i < toks.size(); ++i)
        fanins.push_back(intern(toks[i]));
      declare(toks[1], *type, begin, fanins.size());
    } else {
      throw ParseError(line_no, "unknown directive '" + std::string(kw) + "'");
    }
  }

  // Emit nets in dependency order (gate lines may be out of order). An
  // explicit work stack rather than recursion: a pathological but legal
  // input — say a 100k-deep buf chain — must not overflow the call stack
  // (found by tools/fuzz_parser).
  Netlist netlist{std::string(module_name)};
  netlist.reserve(decls.size());
  std::vector<NetId> emitted(nets.size(), kNoNet);
  std::vector<char> visiting(nets.size(), 0);  // 1 = on the DFS stack
  struct Frame {
    const Decl* decl;
    std::size_t next_fanin;  // index into `fanins`
  };
  std::vector<Frame> stack;
  // `reader_line` is the line of the gate reading `id`: an undefined net is
  // reported there.
  auto open = [&](std::uint32_t id, std::size_t reader_line) {
    if (emitted[id] != kNoNet) return;
    if (decl_of[id] == kNone)
      throw ParseError(reader_line, "net '" + std::string(nets.name(id)) +
                                        "' used but never defined");
    const Decl& d = decls[decl_of[id]];
    if (visiting[id])
      throw ParseError(d.line, "combinational cycle through '" +
                                   std::string(nets.name(id)) + "'");
    visiting[id] = 1;
    stack.push_back({&d, d.begin});
  };
  for (const Decl& root : decls) {
    open(root.name, root.line);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_fanin < f.decl->end) {
        open(fanins[f.next_fanin++], f.decl->line);
        continue;
      }
      const Decl& d = *f.decl;
      const std::string_view name = nets.name(d.name);
      NetId id;
      if (d.type == GateType::kInput) {
        id = netlist.add_input(name);
      } else {
        std::vector<NetId> ids(d.end - d.begin);
        for (std::size_t i = d.begin; i < d.end; ++i)
          ids[i - d.begin] = emitted[fanins[i]];
        id = netlist.add_gate(d.type, std::move(ids), name);
      }
      emitted[d.name] = id;
      visiting[d.name] = 0;
      stack.pop_back();
    }
  }

  for (const auto& [id, line] : outputs) {
    if (emitted[id] == kNoNet)
      throw ParseError(line, "output net '" + std::string(nets.name(id)) +
                                 "' undefined");
    netlist.mark_output(emitted[id]);
  }
  for (const WordDecl& w : words) {
    std::vector<NetId> bits(w.end - w.begin);
    for (std::size_t i = w.begin; i < w.end; ++i) {
      const NetId n = emitted[word_bits[i]];
      if (n == kNoNet)
        throw ParseError(w.line, "word bit '" +
                                     std::string(nets.name(word_bits[i])) +
                                     "' undefined");
      bits[i - w.begin] = n;
    }
    netlist.declare_word(w.name, std::move(bits));
  }
  return netlist;
}

Netlist read_netlist_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open netlist file: " + path);
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size > 0) {
    // A regular file: one read into a buffer of its size.
    in.seekg(0, std::ios::beg);
    text.resize(static_cast<std::size_t>(size));
    in.read(text.data(), size);
    text.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    // A pipe or other unseekable stream.
    in.clear();
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return parse_netlist(text);
}

std::string write_netlist(const Netlist& netlist) {
  std::ostringstream out;
  out << "module " << netlist.name() << "\n";
  if (!netlist.inputs().empty()) {
    out << "input";
    for (NetId n : netlist.inputs()) out << " " << netlist.gate(n).name;
    out << "\n";
  }
  for (NetId n : netlist.topological_order()) {
    const Netlist::Gate& g = netlist.gate(n);
    if (g.type == GateType::kInput) continue;
    out << gate_type_name(g.type) << " " << g.name;
    for (NetId f : g.fanins) out << " " << netlist.gate(f).name;
    out << "\n";
  }
  if (!netlist.outputs().empty()) {
    out << "output";
    for (NetId n : netlist.outputs()) out << " " << netlist.gate(n).name;
    out << "\n";
  }
  for (const Word& w : netlist.words()) {
    out << "word " << w.name;
    for (NetId b : w.bits) out << " " << netlist.gate(b).name;
    out << "\n";
  }
  out << "endmodule\n";
  return out.str();
}

void write_netlist_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write netlist file: " + path);
  out << write_netlist(netlist);
}

Result<Netlist> try_parse_netlist(std::string_view text) {
  try {
    return parse_netlist(text);
  } catch (const ParseError& e) {
    return Status::parse_error(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<Netlist> try_read_netlist_file(const std::string& path) {
  try {
    return read_netlist_file(path);
  } catch (const ParseError& e) {
    return Status::parse_error(path + ": " + e.what());
  } catch (const std::runtime_error& e) {
    return Status::invalid_argument(e.what());  // I/O failure
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace gfa
