#include "circuit/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "circuit/arith_extras.h"
#include "circuit/karatsuba.h"
#include "circuit/massey_omura.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/sim.h"
#include "gf/gf2k.h"
#include "gf/normal_basis.h"
#include "test_util.h"

namespace gfa {
namespace {

// The string-keyed reader that the interned one-pass reader replaced, kept
// as the differential oracle for it. It differs from the original in three
// diagnostics only, each marked below: an undefined net reports the line of
// the gate that reads it, an undefined word bit reports its `word` line, and
// a repeated word name is an error.
std::vector<std::string> reference_tokenize(std::string_view line) {
  std::vector<std::string> toks;
  std::string cur;
  for (char c : line) {
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!cur.empty()) toks.push_back(std::move(cur)), cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) toks.push_back(std::move(cur));
  return toks;
}

struct ReferenceDecl {
  GateType type;
  std::vector<std::string> fanins;
  std::size_t line;
};

Netlist reference_parse_netlist(std::string_view text) {
  std::unordered_map<std::string, ReferenceDecl> decls;
  std::vector<std::string> decl_order;
  std::vector<std::pair<std::string, std::size_t>> output_names;
  struct WordLine {
    std::string name;
    std::vector<std::string> bits;
    std::size_t line;
  };
  std::vector<WordLine> word_decls;
  std::set<std::string> word_names;
  std::string module_name = "top";

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const std::vector<std::string> toks = reference_tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];

    auto declare = [&](const std::string& name, ReferenceDecl decl) {
      if (decls.count(name))
        throw ParseError(line_no, "net '" + name + "' defined twice");
      decls.emplace(name, std::move(decl));
      decl_order.push_back(name);
    };

    if (kw == "module") {
      if (toks.size() != 2) throw ParseError(line_no, "module expects a name");
      module_name = toks[1];
    } else if (kw == "endmodule") {
    } else if (kw == "input") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        declare(toks[i], ReferenceDecl{GateType::kInput, {}, line_no});
    } else if (kw == "output") {
      if (toks.size() < 2) throw ParseError(line_no, "output expects net names");
      for (std::size_t i = 1; i < toks.size(); ++i)
        output_names.emplace_back(toks[i], line_no);
    } else if (kw == "word") {
      if (toks.size() < 3)
        throw ParseError(line_no, "word expects a name and at least one bit");
      // Changed: a repeated word name is an error.
      if (!word_names.insert(toks[1]).second)
        throw ParseError(line_no, "word '" + toks[1] + "' declared twice");
      word_decls.push_back(
          {toks[1], std::vector<std::string>(toks.begin() + 2, toks.end()),
           line_no});
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
      declare(toks[1],
              ReferenceDecl{*type,
                            std::vector<std::string>(toks.begin() + 2, toks.end()),
                            line_no});
    } else {
      throw ParseError(line_no, "unknown directive '" + kw + "'");
    }
  }

  Netlist netlist(module_name);
  std::unordered_map<std::string, NetId> emitted;
  std::unordered_map<std::string, char> visiting;
  struct Frame {
    const std::string* name;
    const ReferenceDecl* decl;
    std::size_t next_fanin = 0;
  };
  std::vector<Frame> stack;
  auto open = [&](const std::string& name, std::size_t reader_line) {
    if (emitted.count(name)) return;
    auto dit = decls.find(name);
    if (dit == decls.end())  // changed: was line 0
      throw ParseError(reader_line, "net '" + name + "' used but never defined");
    if (visiting[name])
      throw ParseError(dit->second.line,
                       "combinational cycle through '" + name + "'");
    visiting[name] = 1;
    stack.push_back({&dit->first, &dit->second});
  };
  for (const std::string& root : decl_order) {
    open(root, 0);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_fanin < f.decl->fanins.size()) {
        open(f.decl->fanins[f.next_fanin++], f.decl->line);
        continue;
      }
      std::vector<NetId> fanins;
      for (const std::string& fn : f.decl->fanins)
        fanins.push_back(emitted.at(fn));
      const NetId id = f.decl->type == GateType::kInput
                           ? netlist.add_input(*f.name)
                           : netlist.add_gate(f.decl->type, fanins, *f.name);
      emitted.emplace(*f.name, id);
      visiting[*f.name] = 0;
      stack.pop_back();
    }
  }

  for (const auto& [name, line] : output_names) {
    const NetId n = netlist.find_net(name);
    if (n == kNoNet) throw ParseError(line, "output net '" + name + "' undefined");
    netlist.mark_output(n);
  }
  for (const WordLine& w : word_decls) {
    std::vector<NetId> bits;
    for (const std::string& b : w.bits) {
      const NetId n = netlist.find_net(b);
      if (n == kNoNet)  // changed: was line 0
        throw ParseError(w.line, "word bit '" + b + "' undefined");
      bits.push_back(n);
    }
    netlist.declare_word(w.name, std::move(bits));
  }
  return netlist;
}

/// The first structural difference between two netlists ("" if none): the
/// module name, then every net's type, fanins and name by id, then the
/// inputs, outputs and words.
std::string netlist_difference(const Netlist& a, const Netlist& b) {
  if (a.name() != b.name()) return "module " + a.name() + " vs " + b.name();
  if (a.num_nets() != b.num_nets())
    return std::to_string(a.num_nets()) + " vs " +
           std::to_string(b.num_nets()) + " nets";
  for (NetId n = 0; n < a.num_nets(); ++n) {
    const Netlist::Gate& ga = a.gate(n);
    const Netlist::Gate& gb = b.gate(n);
    if (ga.type != gb.type || ga.fanins != gb.fanins || ga.name != gb.name)
      return "net " + std::to_string(n) + ": " + ga.name + " vs " + gb.name;
  }
  if (a.inputs() != b.inputs()) return "inputs differ";
  if (a.outputs() != b.outputs()) return "outputs differ";
  if (a.words().size() != b.words().size()) return "word counts differ";
  for (std::size_t w = 0; w < a.words().size(); ++w)
    if (a.words()[w].name != b.words()[w].name ||
        a.words()[w].bits != b.words()[w].bits)
      return "word " + a.words()[w].name + " vs " + b.words()[w].name;
  return {};
}

/// Runs both readers on `text`: they must build identical netlists, or
/// throw the same ParseError. Returns the reference's diagnostic ("" when
/// the text parsed).
std::string expect_readers_agree(const std::string& text) {
  std::string ref_error, new_error;
  std::size_t ref_line = 0, new_line = 0;
  Netlist ref, got;
  try {
    ref = reference_parse_netlist(text);
  } catch (const ParseError& e) {
    ref_error = e.what();
    ref_line = e.line_number;
  }
  try {
    got = parse_netlist(text);
  } catch (const ParseError& e) {
    new_error = e.what();
    new_line = e.line_number;
  }
  EXPECT_EQ(new_error, ref_error) << text.substr(0, 2000);
  EXPECT_EQ(new_line, ref_line);
  if (ref_error.empty() && new_error.empty()) {
    EXPECT_EQ(netlist_difference(got, ref), "") << text.substr(0, 2000);
  }
  return ref_error;
}

/// Every generator's netlist at a small width, as text.
std::vector<std::string> generator_texts() {
  std::vector<std::string> out;
  for (unsigned k : {2u, 3u, 5u, 8u}) {
    const Gf2k field = Gf2k::make(k);
    out.push_back(write_netlist(make_mastrovito_multiplier(field)));
    out.push_back(write_netlist(make_montgomery_multiplier_flat(field)));
    out.push_back(write_netlist(make_karatsuba_multiplier(field)));
    out.push_back(write_netlist(make_squarer(field)));
    out.push_back(write_netlist(make_adder(field)));
    out.push_back(write_netlist(make_multiply_accumulate(field)));
    out.push_back(write_netlist(make_frobenius_power(field, 2)));
    out.push_back(write_netlist(make_normal_basis_squarer(field)));
    out.push_back(write_netlist(
        make_massey_omura_multiplier(field, NormalBasis::find(field))));
  }
  return out;
}

/// `text` with its lines in a seeded random order.
std::string shuffle_lines(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl == std::string::npos ? text.size() : nl + 1;
  }
  test::Rng rng(seed);
  for (std::size_t i = lines.size(); i > 1; --i)
    std::swap(lines[i - 1], lines[rng.below(i)]);
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// `text` with a few seeded byte-level edits: bytes overwritten by grammar
/// characters or raw bytes, slices deleted or duplicated.
std::string corrupt(std::string text, test::Rng& rng) {
  static const char kChars[] = " \t\r\n#abz019_";
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.below(text.size());
    switch (rng.below(4)) {
      case 0:
        text[at] = kChars[rng.below(sizeof(kChars) - 1)];
        break;
      case 1:
        text[at] = static_cast<char>(rng.below(256));
        break;
      case 2:
        text.erase(at, 1 + rng.below(24));
        break;
      case 3:
        text.insert(rng.below(text.size() + 1),
                    text.substr(at, 1 + rng.below(48)));
        break;
    }
  }
  return text;
}

constexpr const char* kMul2 = R"(
# 2-bit multiplier over F_4 (paper Fig. 2)
module mul2
input a0 a1 b0 b1
and s0 a0 b0
and s1 a0 b1
and s2 a1 b0
and s3 a1 b1
xor r0 s1 s2
xor z0 s0 s3
xor z1 r0 s3
output z0 z1
word A a0 a1
word B b0 b1
word Z z0 z1
endmodule
)";

TEST(Parser, ParsesFig2Multiplier) {
  const Netlist nl = parse_netlist(kMul2);
  EXPECT_EQ(nl.name(), "mul2");
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.num_logic_gates(), 7u);
  ASSERT_NE(nl.find_word("A"), nullptr);
  EXPECT_TRUE(nl.validate().empty());
}

TEST(Parser, OutOfOrderGateDefinitions) {
  // z depends on t which is defined later in the file.
  const Netlist nl = parse_netlist(
      "input a b\nxor z t a\nand t a b\noutput z\n");
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.num_logic_gates(), 2u);
}

TEST(Parser, RoundTripPreservesFunction) {
  const Gf2k field = Gf2k::make(5);
  const Netlist nl = make_mastrovito_multiplier(field);
  const Netlist back = parse_netlist(write_netlist(nl));
  EXPECT_EQ(back.name(), nl.name());
  EXPECT_EQ(back.num_logic_gates(), nl.num_logic_gates());
  // Behavioural equality on random vectors.
  test::Rng rng(21);
  std::vector<Gf2Poly> as, bs;
  for (int i = 0; i < 32; ++i) {
    as.push_back(rng.elem(field));
    bs.push_back(rng.elem(field));
  }
  const auto z1 = simulate_words(nl, *nl.find_word("Z"),
                                 {{nl.find_word("A"), as}, {nl.find_word("B"), bs}});
  const auto z2 = simulate_words(back, *back.find_word("Z"),
                                 {{back.find_word("A"), as}, {back.find_word("B"), bs}});
  EXPECT_EQ(z1, z2);
}

TEST(Parser, AcceptsAllGateTypesAndConstants) {
  const Netlist nl = parse_netlist(
      "input a b\nconst0 z0\nconst1 o1\nbuf c a\nnot d a\n"
      "and e a b\nor f a b\nxor g a b\nnand h a b\nnor i a b\nxnor j a b\n"
      "and wide a b c d\noutput wide\n");
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.gate(nl.find_net("wide")).fanins.size(), 4u);
}

TEST(Parser, ErrorOnDuplicateNet) {
  EXPECT_THROW(parse_netlist("input a\nnot a a\n"), ParseError);
  EXPECT_THROW(parse_netlist("input a\nnot x a\nnot x a\n"), ParseError);
}

std::size_t error_line(const std::string& text) {
  try {
    parse_netlist(text);
  } catch (const ParseError& e) {
    return e.line_number;
  }
  ADD_FAILURE() << "expected ParseError";
  return 0;
}

TEST(Parser, ErrorOnUndefinedNet) {
  EXPECT_EQ(error_line("input a\nand z a ghost\noutput z\n"), 2u);
  EXPECT_EQ(error_line("input a\noutput ghost\n"), 2u);
  EXPECT_EQ(error_line("input a\nword W ghost\n"), 2u);
  // The first reader in emission order: z (line 3) is emitted before the
  // later-declared y (line 4) reads the same missing net.
  EXPECT_EQ(error_line("input a\n\nand z a t\nand y ghost a\n"
                       "and t ghost a\noutput z\n"),
            5u);
  try {
    parse_netlist("input a\nand z a ghost\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "line 2: net 'ghost' used but never defined");
  }
}

TEST(Parser, ErrorOnRepeatedWordName) {
  try {
    parse_netlist("input a b\nword A a\n\nword A b\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line_number, 4u);
    EXPECT_STREQ(e.what(), "line 4: word 'A' declared twice");
  }
  // Distinct words may share bits.
  EXPECT_EQ(parse_netlist("input a\nword A a\nword B a\n").words().size(), 2u);
}

TEST(Parser, ErrorOnCycle) {
  EXPECT_THROW(parse_netlist("input a\nand x y a\nand y x a\noutput x\n"),
               ParseError);
}

TEST(Parser, ErrorOnBadArity) {
  EXPECT_THROW(parse_netlist("input a\nnot z a a\n"), ParseError);
  EXPECT_THROW(parse_netlist("input a\nand z a\n"), ParseError);
  EXPECT_THROW(parse_netlist("input a\nconst0 z a\n"), ParseError);
}

TEST(Parser, ErrorOnUnknownDirective) {
  EXPECT_THROW(parse_netlist("wire a b c\n"), ParseError);
}

TEST(Parser, ErrorMessageCarriesLineNumber) {
  try {
    parse_netlist("input a\n\nfrob z a\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line_number, 3u);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Parser, FileRoundTrip) {
  const Netlist nl = parse_netlist(kMul2);
  const std::string path = ::testing::TempDir() + "/mul2.net";
  write_netlist_file(nl, path);
  const Netlist back = read_netlist_file(path);
  EXPECT_EQ(back.num_logic_gates(), nl.num_logic_gates());
  EXPECT_EQ(back.words().size(), 3u);
  EXPECT_THROW(read_netlist_file("/nonexistent/xyz.net"), std::runtime_error);
}

// A deep dependency chain declared deepest-first: emitting the first declared
// gate requires the whole chain, which must not overflow the call stack (the
// emitter is an explicit work stack; found by tools/fuzz_parser).
TEST(Parser, DeepReversedChainDoesNotOverflowTheStack) {
  const int depth = 100000;
  std::string text = "module deep\ninput a\n";
  for (int d = depth - 1; d >= 1; --d)
    text += "buf c" + std::to_string(d) + " c" + std::to_string(d - 1) + "\n";
  text += "buf c0 a\n";
  text += "output c" + std::to_string(depth - 1) + "\nendmodule\n";
  const Netlist nl = parse_netlist(text);
  EXPECT_EQ(nl.num_logic_gates(), static_cast<std::size_t>(depth));
}

TEST(Parser, CycleInReversedChainIsAParseErrorNotARunaway) {
  EXPECT_THROW(parse_netlist("module m\ninput a\n"
                             "buf x y\nbuf y x\noutput x\nendmodule\n"),
               ParseError);
}

TEST(ParserOracle, GeneratorsMatchTheReferenceReader) {
  for (const std::string& text : generator_texts()) expect_readers_agree(text);
}

TEST(ParserOracle, K163PairMatchesTheReferenceReader) {
  const Gf2k field = Gf2k::make(163);
  for (const Netlist& nl : {make_mastrovito_multiplier(field),
                            make_montgomery_multiplier_flat(field)}) {
    const std::string text = write_netlist(nl);
    expect_readers_agree(text);
    expect_readers_agree(shuffle_lines(text, 1));
  }
}

TEST(ParserOracle, ShuffledLinesMatchTheReferenceReader) {
  const std::vector<std::string> texts = generator_texts();
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    for (const std::string& text : texts)
      expect_readers_agree(shuffle_lines(text, seed));
}

TEST(ParserOracle, CorruptedTextGivesTheSameErrors) {
  std::vector<std::string> texts = generator_texts();
  texts.push_back(kMul2);
  test::Rng rng(16);
  std::size_t parsed = 0;
  std::set<std::string> kinds;  // diagnostics without line or quoted names
  for (int i = 0; i < 4000; ++i) {
    const std::string& base = texts[rng.below(texts.size())];
    const std::string error = expect_readers_agree(
        corrupt(rng.below(2) ? shuffle_lines(base, i) : base, rng));
    if (::testing::Test::HasFailure()) return;
    if (error.empty()) {
      ++parsed;
    } else {
      std::string kind;
      bool quoted = false;
      for (char c : error.substr(error.find(':') + 2)) {
        if (c == '\'') quoted = !quoted;
        else if (!quoted) kind += c;
      }
      kinds.insert(kind);
    }
  }
  // The corpus reaches both outcomes and most diagnostics.
  EXPECT_GT(parsed, 40u);
  EXPECT_GE(kinds.size(), 12u) << ::testing::PrintToString(kinds);
}

}  // namespace
}  // namespace gfa
