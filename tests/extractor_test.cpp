#include "abstraction/extractor.h"

#include <gtest/gtest.h>

#include "abstraction/rato.h"
#include "baselines/interpolation.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "circuit/sim.h"
#include "test_util.h"

namespace gfa {
namespace {

TEST(Rato, ClassifiesWords) {
  const Netlist nl = test::make_fig2_multiplier();
  const auto ins = input_words(nl);
  ASSERT_EQ(ins.size(), 2u);
  EXPECT_EQ(ins[0]->name, "A");
  EXPECT_EQ(ins[1]->name, "B");
  ASSERT_NE(output_word(nl), nullptr);
  EXPECT_EQ(output_word(nl)->name, "Z");
}

TEST(Rato, NetOrderEliminatesFanoutsFirst) {
  const Netlist nl = test::make_fig2_multiplier();
  const auto order = rato_net_order(nl);
  std::vector<std::size_t> pos(nl.num_nets());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  // Every gate comes before its fanins (outputs toward inputs).
  for (NetId n = 0; n < nl.num_nets(); ++n)
    for (NetId f : nl.gate(n).fanins) EXPECT_LT(pos[n], pos[f]);
}

TEST(Extractor, Fig2MultiplierYieldsZEqualsAB) {
  // Paper Example 4.2 / 5.1 correct case: r = Z + A·B.
  const Gf2k field(Gf2Poly::from_bits(0b111));
  const WordFunction fn = extract_word_function(test::make_fig2_multiplier(), field);
  const MPoly ab = MPoly::variable(&field, fn.pool.id("A")) *
                   MPoly::variable(&field, fn.pool.id("B"));
  EXPECT_EQ(fn.g, ab) << fn.g.to_string(fn.pool);
  EXPECT_EQ(fn.output_word, "Z");
  EXPECT_EQ(fn.input_words, (std::vector<std::string>{"A", "B"}));
  EXPECT_FALSE(fn.stats.case1);
  EXPECT_EQ(fn.stats.substitutions, 7u);
  EXPECT_EQ(fn.stats.expansions, 7u);  // every substituted net sits in one term
}

// Expansions count the chain's work: on the Mastrovito tree each gate output
// occurs in exactly one live term when it is substituted, while the flat
// Montgomery's shared subexpressions make some of them occur in several.
TEST(Extractor, ExpansionsCountTheChainWork) {
  const Gf2k field = Gf2k::make(16);
  const Remainder mastrovito =
      extract_remainder(make_mastrovito_multiplier(field), field);
  EXPECT_EQ(mastrovito.stats.expansions, mastrovito.stats.substitutions);
  const Remainder montgomery =
      extract_remainder(make_montgomery_multiplier_flat(field), field);
  EXPECT_GT(montgomery.stats.expansions, montgomery.stats.substitutions);
}

TEST(Extractor, PaperExample51BuggyPolynomial) {
  // Example 5.1: with the r0 bug, the canonical polynomial is
  //   Z = α·A²B² + A²B + (α+1)·A·B² + (α+1)·A·B.
  const Gf2k field(Gf2Poly::from_bits(0b111));
  const WordFunction fn =
      extract_word_function(test::make_fig2_multiplier(/*with_bug=*/true), field);
  const VarId a = fn.pool.id("A"), b = fn.pool.id("B");
  const auto alpha = field.alpha();
  const auto alpha1 = field.add(alpha, field.one());
  MPoly expect(&field);
  expect.add_term(Monomial::from_pairs({{a, BigUint(2)}, {b, BigUint(2)}}), alpha);
  expect.add_term(Monomial::from_pairs({{a, BigUint(2)}, {b, BigUint(1)}}),
                  field.one());
  expect.add_term(Monomial::from_pairs({{a, BigUint(1)}, {b, BigUint(2)}}), alpha1);
  expect.add_term(Monomial::from_pairs({{a, BigUint(1)}, {b, BigUint(1)}}), alpha1);
  EXPECT_EQ(fn.g, expect) << fn.g.to_string(fn.pool);
}

class ExtractorVsOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExtractorVsOracle, MastrovitoIsAB) {
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist nl = make_mastrovito_multiplier(field);
  const WordFunction fn = extract_word_function(nl, field);
  const MPoly ab = MPoly::variable(&field, fn.pool.id("A")) *
                   MPoly::variable(&field, fn.pool.id("B"));
  EXPECT_EQ(fn.g, ab);
  // The remainder is the k² bilinear Mastrovito form.
  EXPECT_EQ(fn.stats.remainder_degree, 2u);
}

TEST_P(ExtractorVsOracle, MontgomeryFlatIsAB) {
  const Gf2k field = Gf2k::make(GetParam());
  const Netlist nl = make_montgomery_multiplier_flat(field);
  const WordFunction fn = extract_word_function(nl, field);
  const MPoly ab = MPoly::variable(&field, fn.pool.id("A")) *
                   MPoly::variable(&field, fn.pool.id("B"));
  EXPECT_EQ(fn.g, ab);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExtractorVsOracle,
                         ::testing::Values(2, 3, 4, 5, 8, 11, 16, 24, 32));

TEST(Extractor, RandomCircuitsMatchInterpolationOracle) {
  // The extracted polynomial must equal the exhaustive Lagrange interpolation
  // of the simulated function — for arbitrary (non-arithmetic) circuits.
  for (unsigned k = 2; k <= 4; ++k) {
    const Gf2k field = Gf2k::make(k);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Netlist nl = test::make_random_word_circuit(k, seed);
      const WordFunction fn = extract_word_function(nl, field);
      const MPoly oracle = interpolate_bivariate(
          field, fn.pool.id("A"), fn.pool.id("B"),
          [&](const Gf2k::Elem& a, const Gf2k::Elem& b) {
            return simulate_words(nl, *nl.find_word("Z"),
                                  {{nl.find_word("A"), {a}},
                                   {nl.find_word("B"), {b}}})[0];
          });
      EXPECT_EQ(fn.g, oracle) << "k=" << k << " seed=" << seed << "\n got "
                              << fn.g.to_string(fn.pool);
    }
  }
}

TEST(Extractor, SquarerIsFrobenius) {
  // A squarer circuit implements Z = A², a linear polynomial over F_2.
  const Gf2k field = Gf2k::make(5);
  Netlist nl("squarer");
  std::vector<NetId> a(5);
  for (unsigned i = 0; i < 5; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  // z_j = Σ bits of α^{2i} expansion: square via the linear map.
  std::vector<std::vector<NetId>> zin(5);
  for (unsigned i = 0; i < 5; ++i) {
    const auto alpha2i = field.alpha_pow(std::uint64_t{2} * i);
    for (unsigned j = 0; j < 5; ++j)
      if (alpha2i.coeff(j)) zin[j].push_back(a[i]);
  }
  std::vector<NetId> z(5);
  for (unsigned j = 0; j < 5; ++j) {
    if (zin[j].empty()) {
      z[j] = nl.add_const(false, "z" + std::to_string(j));
    } else if (zin[j].size() == 1) {
      z[j] = nl.add_gate(GateType::kBuf, {zin[j][0]}, "z" + std::to_string(j));
    } else {
      NetId acc = zin[j][0];
      for (std::size_t t = 1; t < zin[j].size(); ++t)
        acc = nl.add_gate(GateType::kXor, {acc, zin[j][t]},
                          t + 1 == zin[j].size() ? "z" + std::to_string(j) : "");
      z[j] = acc;
    }
    nl.mark_output(z[j]);
  }
  nl.declare_word("A", a);
  nl.declare_word("Z", z);

  const WordFunction fn = extract_word_function(nl, field);
  MPoly expect(&field);
  expect.add_term(Monomial(fn.pool.id("A"), BigUint(2)), field.one());
  EXPECT_EQ(fn.g, expect) << fn.g.to_string(fn.pool);
}

TEST(Extractor, ConstantCircuitIsCase1) {
  const Gf2k field = Gf2k::make(3);
  Netlist nl("constant");
  std::vector<NetId> a(3), z(3);
  for (unsigned i = 0; i < 3; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  // Z = α (constant 0b010), independent of A.
  z[0] = nl.add_const(false, "z0");
  z[1] = nl.add_const(true, "z1");
  z[2] = nl.add_const(false, "z2");
  for (NetId n : z) nl.mark_output(n);
  nl.declare_word("A", a);
  nl.declare_word("Z", z);
  const WordFunction fn = extract_word_function(nl, field);
  EXPECT_TRUE(fn.stats.case1);
  EXPECT_EQ(fn.g, MPoly::constant(&field, field.alpha()));
}

TEST(Extractor, IdentityAndAdderCircuits) {
  const Gf2k field = Gf2k::make(4);
  // Z = A + B: bitwise XOR.
  Netlist nl("adder");
  std::vector<NetId> a(4), b(4), z(4);
  for (unsigned i = 0; i < 4; ++i) a[i] = nl.add_input("a" + std::to_string(i));
  for (unsigned i = 0; i < 4; ++i) b[i] = nl.add_input("b" + std::to_string(i));
  for (unsigned i = 0; i < 4; ++i) {
    z[i] = nl.add_gate(GateType::kXor, {a[i], b[i]}, "z" + std::to_string(i));
    nl.mark_output(z[i]);
  }
  nl.declare_word("A", a);
  nl.declare_word("B", b);
  nl.declare_word("Z", z);
  const WordFunction fn = extract_word_function(nl, field);
  const MPoly expect = MPoly::variable(&field, fn.pool.id("A")) +
                       MPoly::variable(&field, fn.pool.id("B"));
  EXPECT_EQ(fn.g, expect);
  EXPECT_EQ(fn.stats.remainder_degree, 1u);  // linear circuit
}

TEST(Extractor, ExtractionEvaluatesLikeSimulation) {
  // Property check on larger k where interpolation is infeasible: evaluate
  // the canonical polynomial on random points against the simulator.
  const Gf2k field = Gf2k::make(16);
  const Netlist nl = make_mastrovito_multiplier(field);
  const WordFunction fn = extract_word_function(nl, field);
  test::Rng rng(161);
  for (int t = 0; t < 20; ++t) {
    const auto a = rng.elem(field), b = rng.elem(field);
    const auto sim = simulate_words(
        nl, *nl.find_word("Z"),
        {{nl.find_word("A"), {a}}, {nl.find_word("B"), {b}}})[0];
    EXPECT_EQ(test::eval_word_function(fn, field, {{"A", a}, {"B", b}}), sim);
  }
}

TEST(Extractor, BudgetExceededThrows) {
  const Gf2k field = Gf2k::make(8);
  const Netlist nl = make_mastrovito_multiplier(field);
  ExtractionOptions opts;
  opts.max_terms = 10;
  EXPECT_THROW(extract_word_function(nl, field, opts), ExtractionBudgetExceeded);
}

TEST(Extractor, MissingWordsAreRejected) {
  const Gf2k field = Gf2k::make(2);
  Netlist nl;
  const NetId a0 = nl.add_input("a0");
  const NetId a1 = nl.add_input("a1");
  const NetId g = nl.add_gate(GateType::kAnd, {a0, a1}, "g");
  nl.mark_output(g);
  EXPECT_THROW(extract_word_function(nl, field), std::invalid_argument);
  nl.declare_word("A", {a0, a1});
  EXPECT_THROW(extract_word_function(nl, field), std::invalid_argument);
}

TEST(Extractor, UncoveredInputIsRejected) {
  const Gf2k field = Gf2k::make(2);
  Netlist nl;
  const NetId a0 = nl.add_input("a0");
  const NetId a1 = nl.add_input("a1");
  const NetId c = nl.add_input("stray");
  const NetId z0 = nl.add_gate(GateType::kAnd, {a0, c}, "z0");
  const NetId z1 = nl.add_gate(GateType::kBuf, {a1}, "z1");
  nl.mark_output(z0);
  nl.mark_output(z1);
  nl.declare_word("A", {a0, a1});
  nl.declare_word("Z", {z0, z1});
  EXPECT_THROW(extract_word_function(nl, field), std::invalid_argument);
}

TEST(Extractor, WidthMismatchIsRejected) {
  const Gf2k field = Gf2k::make(3);  // k = 3, but words are 2 bits
  const Netlist nl = test::make_fig2_multiplier();
  EXPECT_THROW(extract_word_function(nl, field), std::invalid_argument);
}

}  // namespace
}  // namespace gfa
