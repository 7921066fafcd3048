#include "abstraction/equivalence.h"

#include <gtest/gtest.h>

#include <optional>
#include <regex>

#include "abstraction/hierarchy.h"
#include "abstraction/rato.h"
#include "certify/certify.h"
#include "circuit/karatsuba.h"
#include "circuit/massey_omura.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/mutate.h"
#include "circuit/parser.h"
#include "circuit/sim.h"
#include "engine/registry.h"
#include "gf/normal_basis.h"
#include "test_util.h"

namespace gfa {
namespace {

class EquivalenceSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(EquivalenceSizes, MastrovitoEquivalentToMontgomery) {
  // The paper's headline verification problem at laptop ladder sizes.
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = make_montgomery_multiplier_flat(field);
  const EquivalenceResult res = check_equivalence(spec, impl, field);
  EXPECT_TRUE(res.equivalent) << res.difference;
  EXPECT_TRUE(res.difference.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, EquivalenceSizes,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(Equivalence, DetectsInjectedBug) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist montgomery = make_montgomery_multiplier_flat(field);
  const NetId target = montgomery.find_net("bm_t3_0");
  ASSERT_NE(target, kNoNet);
  BugDescription desc;
  const Netlist impl =
      inject_gate_type_bug(montgomery, target, GateType::kOr, &desc);
  const EquivalenceResult res = check_equivalence(spec, impl, field);
  EXPECT_FALSE(res.equivalent);
  EXPECT_FALSE(res.difference.empty());
  EXPECT_NE(res.difference.find("coefficients differ"), std::string::npos);
}

TEST(Equivalence, BugDetectionAgreesWithSimulationSweep) {
  // Property: for each injected bug, canonical-form inequality must coincide
  // with an actual behavioural difference found by exhaustive simulation.
  const Gf2k field = Gf2k::make(3);
  const Netlist spec = make_mastrovito_multiplier(field);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    BugDescription desc;
    const Netlist impl = inject_random_bug(spec, seed, &desc);
    const EquivalenceResult res = check_equivalence(spec, impl, field);

    bool behaviour_differs = false;
    for (std::uint64_t a = 0; a < 8 && !behaviour_differs; ++a)
      for (std::uint64_t b = 0; b < 8 && !behaviour_differs; ++b) {
        const auto za = simulate_words(
            spec, *spec.find_word("Z"),
            {{spec.find_word("A"), {field.from_bits(a)}},
             {spec.find_word("B"), {field.from_bits(b)}}})[0];
        const auto zb = simulate_words(
            impl, *impl.find_word("Z"),
            {{impl.find_word("A"), {field.from_bits(a)}},
             {impl.find_word("B"), {field.from_bits(b)}}})[0];
        behaviour_differs = za != zb;
      }
    EXPECT_EQ(!res.equivalent, behaviour_differs)
        << "seed=" << seed << " bug=" << desc.text;
  }
}

TEST(Equivalence, HierarchicalAgainstFlatSpec) {
  // Verify the hierarchical Montgomery against the flattened Mastrovito the
  // way the paper's §6 flow does: per-block abstraction + word composition,
  // then coefficient matching.
  const Gf2k field = Gf2k::make(16);
  const WordFunction spec =
      extract_word_function(make_mastrovito_multiplier(field), field);
  const HierarchicalAbstraction impl =
      abstract_montgomery(make_montgomery_hierarchy(field), field);
  // Word names differ (spec Z vs composed G), but input words are both A, B.
  std::string why;
  EXPECT_TRUE(same_word_function(spec, impl.composed, &why)) << why;
}

TEST(Equivalence, DifferentInputWordsAreIncomparable) {
  const Gf2k field = Gf2k::make(2);
  const Netlist mul = test::make_fig2_multiplier();
  // A squaring-like circuit with a single word input A.
  Netlist sq("sq");
  const NetId a0 = sq.add_input("a0");
  const NetId a1 = sq.add_input("a1");
  const NetId z0 = sq.add_gate(GateType::kBuf, {a0}, "z0");
  const NetId z1 = sq.add_gate(GateType::kBuf, {a1}, "z1");
  sq.mark_output(z0);
  sq.mark_output(z1);
  sq.declare_word("A", {a0, a1});
  sq.declare_word("Z", {z0, z1});
  const EquivalenceResult res = check_equivalence(mul, sq, field);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.difference.find("input word names differ"), std::string::npos);
}

TEST(Equivalence, SameWordFunctionAcrossPoolPermutations) {
  // f1 and f2 built with different interning orders must still compare equal.
  const Gf2k field = Gf2k::make(2);
  WordFunction f1, f2;
  f1.input_words = {"A", "B"};
  f2.input_words = {"B", "A"};
  const VarId a1 = f1.pool.intern("A", VarKind::kWord);
  const VarId b1 = f1.pool.intern("B", VarKind::kWord);
  const VarId b2 = f2.pool.intern("B", VarKind::kWord);
  const VarId a2 = f2.pool.intern("A", VarKind::kWord);
  f1.g = MPoly::variable(&field, a1) * MPoly::variable(&field, b1);
  f2.g = MPoly::variable(&field, a2) * MPoly::variable(&field, b2);
  EXPECT_TRUE(same_word_function(f1, f2));
  // And a real difference is reported.
  f2.g += MPoly::constant(&field, field.one());
  std::string why;
  EXPECT_FALSE(same_word_function(f1, f2, &why));
  EXPECT_FALSE(why.empty());
}

// ---------------------------------------------------------------------------
// The remainder verdict against two independent oracles: the lifted word
// forms (same_word_function) and, at k = 8, exhaustive simulation.

/// The verdict of comparing the lifted word forms of res's two remainders,
/// or std::nullopt when a lift runs past `lift_seconds` (lift_general can
/// take minutes on a high-degree mutant remainder; see CHANGES.md).
std::optional<bool> lifted_verdict(const EquivalenceResult& res,
                                   const Gf2k& field,
                                   ExtractionOptions options,
                                   double lift_seconds) {
  ExecControl control;
  control.deadline = Deadline::after(lift_seconds);
  options.control = &control;
  const Result<bool> same = [&]() -> Result<bool> {
    try {
      return same_word_function(lift_remainder(res.spec, field, options),
                                lift_remainder(res.impl, field, options));
    } catch (...) {
      return status_from_current_exception();
    }
  }();
  if (!same.ok()) {
    EXPECT_EQ(same.status().code(), StatusCode::kDeadlineExceeded)
        << same.status().message();
    return std::nullopt;
  }
  return *same;
}

/// Calls fn(mutant, description) for every single-gate type flip of `nl`:
/// each logic gate replaced by every other gate type of its arity class.
template <class Fn>
void for_each_gate_flip(const Netlist& nl, Fn fn) {
  static const std::vector<GateType> kBinary = {
      GateType::kAnd, GateType::kOr,  GateType::kXor,
      GateType::kNand, GateType::kNor, GateType::kXnor};
  static const std::vector<GateType> kUnary = {GateType::kBuf, GateType::kNot};
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const GateType t = nl.gate(n).type;
    const std::vector<GateType>* family =
        std::find(kBinary.begin(), kBinary.end(), t) != kBinary.end() ? &kBinary
        : std::find(kUnary.begin(), kUnary.end(), t) != kUnary.end()  ? &kUnary
                                                                      : nullptr;
    if (family == nullptr) continue;
    for (const GateType to : *family) {
      if (to == t) continue;
      BugDescription desc;
      fn(inject_gate_type_bug(nl, n, to, &desc), desc.text);
    }
  }
}

/// Output word bits of a k = 8 multiplier for the 64 inputs of simulator
/// pass `pass` (0..1023): the lanes enumerate the low 6 bits of A, `pass`
/// holds the other 10 input bits. Input bits are driven by word position, so
/// the result does not depend on net order.
std::vector<std::uint64_t> outputs_k8(const Netlist& nl, std::uint64_t pass) {
  static const std::uint64_t kLanePattern[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  std::vector<NetId> bit_nets = nl.find_word("A")->bits;
  for (NetId bit : nl.find_word("B")->bits) bit_nets.push_back(bit);
  std::vector<std::uint64_t> lanes(nl.inputs().size());
  for (std::size_t i = 0; i < bit_nets.size(); ++i) {
    const auto at = std::find(nl.inputs().begin(), nl.inputs().end(),
                              bit_nets[i]) - nl.inputs().begin();
    lanes[at] =
        i < 6 ? kLanePattern[i] : ((pass >> (i - 6)) & 1u ? ~0ull : 0ull);
  }
  const std::vector<std::uint64_t> nets = simulate(nl, lanes);
  std::vector<std::uint64_t> out;
  for (NetId bit : nl.find_word("Z")->bits) out.push_back(nets[bit]);
  return out;
}

/// Exhaustive simulation over all 2^16 inputs: does `nl` match the table of
/// outputs_k8 passes?
bool matches_k8(const Netlist& nl,
                const std::vector<std::vector<std::uint64_t>>& table) {
  for (std::uint64_t pass = 0; pass < table.size(); ++pass)
    if (outputs_k8(nl, pass) != table[pass]) return false;
  return true;
}

// Each k = 8 gate flip's remainder verdict is checked against exhaustive
// simulation and against the lift, in two tests so that ctest runs them side
// by side.

TEST(RemainderOracle, EveryGateFlipAtK8AgreesWithExhaustiveSimulation) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  std::vector<std::vector<std::uint64_t>> table;
  for (std::uint64_t pass = 0; pass < 1024; ++pass)
    table.push_back(outputs_k8(spec, pass));
  std::size_t mutants = 0, refuted = 0;
  for (const Netlist& base : {spec, make_montgomery_multiplier_flat(field)}) {
    for_each_gate_flip(base, [&](const Netlist& bug, const std::string& text) {
      const EquivalenceResult res = check_equivalence(spec, bug, field);
      EXPECT_EQ(res.equivalent, matches_k8(bug, table))
          << bug.name() << " " << text;
      ++mutants;
      refuted += res.equivalent ? 0 : 1;
    });
  }
  EXPECT_GT(mutants, 2000u);
  EXPECT_GT(refuted, mutants / 2);
}

TEST(RemainderOracle, EveryGateFlipAtK8AgreesWithTheLift) {
  // The lift runs on every flip whose remainder is at most bilinear, and on
  // a fixed stride of the others: lift_general costs about 0.03 s per
  // degree-3 and 0.6 s per degree-4 remainder here (716 of the 2060 flips
  // are degree 4).
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  std::size_t to_lift = 0, lifted = 0;
  std::size_t seen_by_degree[5] = {};
  for (const Netlist& base : {spec, make_montgomery_multiplier_flat(field)}) {
    for_each_gate_flip(base, [&](const Netlist& bug, const std::string& text) {
      const EquivalenceResult res = check_equivalence(spec, bug, field);
      const std::size_t degree =
          std::min<std::size_t>(res.impl.stats.remainder_degree, 4);
      const std::size_t stride = degree <= 2 ? 1 : degree == 3 ? 8 : 96;
      if (seen_by_degree[degree]++ % stride != 0) return;
      ++to_lift;
      if (const std::optional<bool> same =
              lifted_verdict(res, field, {}, 20.0)) {
        ++lifted;
        EXPECT_EQ(*same, res.equivalent) << bug.name() << " " << text;
      }
    });
  }
  EXPECT_GT(seen_by_degree[2], 900u);
  EXPECT_GT(seen_by_degree[4], 96u);
  EXPECT_EQ(lifted, to_lift);
}

TEST(RemainderOracle, SeededMutantsAtK16AgreeWithTheLift) {
  const Gf2k field = Gf2k::make(16);
  const Netlist spec = make_mastrovito_multiplier(field);
  std::size_t mutants = 0, lifted = 0;
  for (const Netlist& base : {spec, make_montgomery_multiplier_flat(field)}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      BugDescription desc;
      const Netlist bug = inject_random_bug(base, seed, &desc);
      const EquivalenceResult res = check_equivalence(spec, bug, field);
      if (const std::optional<bool> same =
              lifted_verdict(res, field, {}, 0.5)) {
        ++lifted;
        EXPECT_EQ(*same, res.equivalent) << "seed " << seed << " " << desc.text;
      }
      ++mutants;
    }
  }
  // Lifting a degree-4 Montgomery mutant can take minutes; most finish.
  EXPECT_GE(lifted, mutants / 2);
}

class RemainderOracleSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(RemainderOracleSizes, EquivalentPairsAgreeWithTheLift) {
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist mastrovito = make_mastrovito_multiplier(field);
  for (const Netlist& impl : {make_montgomery_multiplier_flat(field),
                              make_karatsuba_multiplier(field)}) {
    const EquivalenceResult res = check_equivalence(mastrovito, impl, field);
    EXPECT_TRUE(res.equivalent) << impl.name() << ": " << res.difference;
    EXPECT_TRUE(res.witness.empty());
    EXPECT_EQ(lifted_verdict(res, field, {}, 60.0), std::optional<bool>(true))
        << impl.name();
  }
}

TEST_P(RemainderOracleSizes, MasseyOmuraMutantsAgreeUnderTheNormalBasis) {
  const Gf2k field = Gf2k::make(GetParam());
  const NormalBasis nb = NormalBasis::find(field);
  ExtractionOptions options;
  options.basis = &nb.basis();
  const Netlist mo = make_massey_omura_multiplier(field, nb);
  const EquivalenceResult same = check_equivalence(mo, mo, field, options);
  EXPECT_TRUE(same.equivalent) << same.difference;
  EXPECT_EQ(lifted_verdict(same, field, options, 60.0),
            std::optional<bool>(true));
  std::size_t refuted = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BugDescription desc;
    const Netlist bug = inject_random_bug(mo, seed, &desc);
    const EquivalenceResult res = check_equivalence(mo, bug, field, options);
    if (const std::optional<bool> lifted =
            lifted_verdict(res, field, options, 1.0))
      EXPECT_EQ(*lifted, res.equivalent) << "seed " << seed << " " << desc.text;
    if (res.equivalent) continue;
    ++refuted;
    const certify::Counterexample cex =
        certify::replay_witness(mo, bug, field, res.witness);
    EXPECT_TRUE(cex.replayed) << "seed " << seed << " " << desc.text;
  }
  EXPECT_GT(refuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RemainderOracleSizes,
                         ::testing::Values(8u, 16u, 32u, 64u));

// ---------------------------------------------------------------------------
// The minimum-monomial witness and the (word name, bit) keying.

/// The abstraction engine's own verdict: EquivEngine::verify, without
/// run_engine's simulation backfill of a missing counterexample.
Result<engine::VerifyResult> abstraction_verify(const Netlist& spec,
                                                const Netlist& impl,
                                                const Gf2k& field,
                                                double seconds) {
  engine::RunOptions options;
  options.control.deadline = Deadline::after(seconds);
  return (*engine::EngineRegistry::global().require("abstraction"))
      ->verify(spec, impl, field, options);
}

TEST(RemainderWitness, EngineRefutationsCarryAReplayedWitness) {
  const Gf2k field = Gf2k::make(8);
  const Netlist spec = make_mastrovito_multiplier(field);
  std::size_t refuted = 0;
  for (const Netlist& base : {spec, make_montgomery_multiplier_flat(field)})
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const Netlist bug = inject_random_bug(base, seed);
      const Result<engine::VerifyResult> r =
          abstraction_verify(spec, bug, field, 60.0);
      ASSERT_TRUE(r.ok()) << r.status().message();
      if (r->verdict != engine::Verdict::kNotEquivalent) continue;
      ++refuted;
      EXPECT_TRUE(r->counterexample.replayed) << "seed " << seed;
      EXPECT_NE(r->counterexample.expected, r->counterexample.actual);
      EXPECT_EQ(r->counterexample.inputs.size(), 2u);
    }
  EXPECT_GT(refuted, 16u);
}

TEST(RemainderWitness, XorToAndMutantsOfTheK32MontgomeryReplay) {
  // Turning an XOR into an AND multiplies two sums of partial products, so
  // D = R_spec + R_impl has degree 3 or 4. The gates are spread over the
  // operand reductions and the t layer; mutants in the last layers blow up
  // inside the reduction chain itself (seconds each), so they are left out.
  const Gf2k field = Gf2k::make(32);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist mont = make_montgomery_multiplier_flat(field);
  std::vector<NetId> xors;
  for (NetId n = 0; n < mont.num_nets(); ++n)
    if (mont.gate(n).type == GateType::kXor &&
        mont.gate(n).name.rfind("bm_u", 0) != 0 &&
        mont.gate(n).name.rfind("bo_", 0) != 0)
      xors.push_back(n);
  ASSERT_GT(xors.size(), 100u);
  std::size_t degree4 = 0;
  for (std::size_t i = 0; i < xors.size(); i += xors.size() / 6) {
    const std::string& name = mont.gate(xors[i]).name;
    const Netlist bug = inject_gate_type_bug(mont, xors[i], GateType::kAnd);
    const EquivalenceResult res = check_equivalence(spec, bug, field);
    ASSERT_FALSE(res.equivalent) << name;
    EXPECT_GE(res.impl.stats.remainder_degree, 3u) << name;
    if (res.impl.stats.remainder_degree == 4) ++degree4;
    const certify::Counterexample cex =
        certify::replay_witness(spec, bug, field, res.witness);
    EXPECT_TRUE(cex.replayed) << name;

    const Result<engine::VerifyResult> r =
        abstraction_verify(spec, bug, field, 60.0);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r->verdict, engine::Verdict::kNotEquivalent);
    EXPECT_TRUE(r->counterexample.replayed) << name;
    EXPECT_EQ(r->counterexample.inputs, cex.inputs) << name;
  }
  EXPECT_GT(degree4, 0u);
}

TEST(RemainderWitness, WitnessSetsTheBitsOfALowestDegreeDifference) {
  // Example 5.1: the bug replaces s1 = a0·b1 by s0 = a0·b0 in r0, so
  // D = α·(a0·b0 + a0·b1) and the witness sets a0 and b0 only.
  const Gf2k field = Gf2k::make(2);
  const EquivalenceResult res =
      check_equivalence(test::make_fig2_multiplier(),
                        test::make_fig2_multiplier(true), field);
  ASSERT_FALSE(res.equivalent);
  EXPECT_NE(res.difference.find("coefficients differ on 2 monomial(s): "
                                "A[0]·B[0] [spec "),
            std::string::npos)
      << res.difference;
  EXPECT_NE(res.difference.find("A[0]·B[1]"), std::string::npos);
  ASSERT_EQ(res.witness.size(), 2u);
  EXPECT_EQ(res.witness.at("A"), field.from_bits(1));
  EXPECT_EQ(res.witness.at("B"), field.from_bits(1));
}

/// `nl` as text with the B word (and its input bits) declared before A, and
/// every input net renamed.
Netlist with_words_swapped_and_inputs_renamed(const Netlist& nl) {
  std::string text = write_netlist(nl);
  text = std::regex_replace(text, std::regex(R"(\ba(\d+)\b)"), "opa_$1");
  text = std::regex_replace(text, std::regex(R"(\bb(\d+)\b)"), "opb_$1");
  const std::regex word_a(R"(word A [^\n]*\n)");
  const std::regex word_b(R"(word B [^\n]*\n)");
  std::smatch ma, mb;
  EXPECT_TRUE(std::regex_search(text, ma, word_a));
  const std::string line_a = ma.str();
  EXPECT_TRUE(std::regex_search(text, mb, word_b));
  const std::string line_b = mb.str();
  text = std::regex_replace(text, word_a, "");
  text = std::regex_replace(text, word_b, line_b + line_a);
  return parse_netlist(text);
}

TEST(RemainderKeys, DeclarationOrderAndNetNamesDoNotMatter) {
  const Gf2k field = Gf2k::make(16);
  const Netlist spec = make_mastrovito_multiplier(field);
  const Netlist impl = with_words_swapped_and_inputs_renamed(
      make_montgomery_multiplier_flat(field));
  ASSERT_EQ(impl.find_net("a0"), kNoNet);
  ASSERT_EQ(input_words(impl)[0]->name, "B");
  const EquivalenceResult res = check_equivalence(spec, impl, field);
  EXPECT_TRUE(res.equivalent) << res.difference;
  EXPECT_EQ(res.spec.terms, res.impl.terms);
  EXPECT_EQ(res.impl.input_words, (std::vector<std::string>{"B", "A"}));
}

TEST(RemainderKeys, InputOutsideEveryWordIsRejected) {
  const Gf2k field = Gf2k::make(2);
  Netlist nl("stray_input");
  const NetId a0 = nl.add_input("a0"), a1 = nl.add_input("a1");
  const NetId b0 = nl.add_input("b0"), b1 = nl.add_input("b1");
  const NetId stray = nl.add_input("stray");
  const NetId z0 = nl.add_gate(GateType::kXor, {a0, stray}, "z0");
  const NetId z1 = nl.add_gate(GateType::kAnd, {a1, b1}, "z1");
  nl.mark_output(z0);
  nl.mark_output(z1);
  nl.declare_word("A", {a0, a1});
  nl.declare_word("B", {b0, b1});
  nl.declare_word("Z", {z0, z1});
  const Result<EquivalenceResult> res =
      try_check_equivalence(test::make_fig2_multiplier(), nl, field);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(std::string(res.status().message())
                .find("primary input 'stray' is not part of any word"),
            std::string::npos)
      << res.status().message();
}

TEST(RemainderKeys, DependentBasisIsRejected) {
  const Gf2k field = Gf2k::make(4);
  const std::vector<Gf2k::Elem> basis = {field.one(), field.alpha(),
                                         field.alpha(), field.one()};
  ExtractionOptions options;
  options.basis = &basis;
  const Netlist nl = make_mastrovito_multiplier(field);
  EXPECT_THROW(check_equivalence(nl, nl, field, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace gfa
