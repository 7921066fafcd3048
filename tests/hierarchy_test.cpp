#include "abstraction/hierarchy.h"

#include <gtest/gtest.h>

#include "circuit/mastrovito.h"
#include "circuit/mutate.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/exec_control.h"
#include "util/parallel_for.h"
#include "util/resource_budget.h"

namespace gfa {
namespace {

class MontgomeryHierarchyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MontgomeryHierarchyTest, BlockPolynomialsMatchFig1) {
  const Gf2k field = Gf2k::make(GetParam());
  const unsigned k = field.k();
  const MontgomeryHierarchy h = make_montgomery_hierarchy(field);
  const auto r = field.alpha_pow(std::uint64_t{k});
  const auto r_inv = field.inv(r);

  // Blk A: Mont(A, R²) = R·A — a linear polynomial with coefficient R.
  const WordFunction fa = extract_word_function(h.blk_a, field);
  MPoly expect_a(&field);
  expect_a.add_term(Monomial(fa.pool.id("X"), BigUint(1)), r);
  EXPECT_EQ(fa.g, expect_a) << fa.g.to_string(fa.pool);

  // Blk Mid: Mont(X, Y) = R⁻¹·X·Y.
  const WordFunction fm = extract_word_function(h.blk_mid, field);
  MPoly expect_m(&field);
  expect_m.add_term(Monomial::from_pairs({{fm.pool.id("X"), BigUint(1)},
                                          {fm.pool.id("Y"), BigUint(1)}}),
                    r_inv);
  EXPECT_EQ(fm.g, expect_m) << fm.g.to_string(fm.pool);

  // Blk Out: Mont(X, 1) = R⁻¹·X.
  const WordFunction fo = extract_word_function(h.blk_out, field);
  MPoly expect_o(&field);
  expect_o.add_term(Monomial(fo.pool.id("X"), BigUint(1)), r_inv);
  EXPECT_EQ(fo.g, expect_o) << fo.g.to_string(fo.pool);
}

TEST_P(MontgomeryHierarchyTest, ComposedPolynomialIsAB) {
  const Gf2k field = Gf2k::make(GetParam());
  const MontgomeryHierarchy h = make_montgomery_hierarchy(field);
  const HierarchicalAbstraction ha = abstract_montgomery(h, field);
  const MPoly ab = MPoly::variable(&field, ha.composed.pool.id("A")) *
                   MPoly::variable(&field, ha.composed.pool.id("B"));
  EXPECT_EQ(ha.composed.g, ab) << ha.composed.g.to_string(ha.composed.pool);
  EXPECT_EQ(ha.blocks.size(), 4u);
  EXPECT_EQ(ha.composed.output_word, "G");
}

INSTANTIATE_TEST_SUITE_P(Sizes, MontgomeryHierarchyTest,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 16, 24, 32));

TEST(Hierarchy, BuggyBlockComposesToWrongPolynomial) {
  const Gf2k field = Gf2k::make(4);
  MontgomeryHierarchy h = make_montgomery_hierarchy(field);
  BugDescription desc;
  h.blk_mid = inject_random_bug(h.blk_mid, /*seed=*/5, &desc);
  const HierarchicalAbstraction ha = abstract_montgomery(h, field);
  const MPoly ab = MPoly::variable(&field, ha.composed.pool.id("A")) *
                   MPoly::variable(&field, ha.composed.pool.id("B"));
  // The random bug may rarely be benign; this seed is checked to change the
  // function (if the generator changes, pick another seed).
  EXPECT_NE(ha.composed.g, ab) << "bug was benign: " << desc.text;
}

TEST(Hierarchy, GenericGraphWithDiamond) {
  // Z = (A·B)² via one multiplier block feeding a generic square-composition:
  // mid(X=T, Y=T) where T = mid(A, B) exercises reconvergent word signals.
  const Gf2k field = Gf2k::make(3);
  const Netlist mul = make_mastrovito_multiplier(field);
  // Rename the multiplier's words to the block interface X/Y/Z.
  Netlist blk = mul;
  // make_mastrovito declares A,B,Z; build the graph with those names.
  WordSignalGraph graph;
  graph.primary_inputs = {"A", "B"};
  graph.instances = {
      {&blk, "m1", {{"A", "A"}, {"B", "B"}}, "T"},
      {&blk, "m2", {{"A", "T"}, {"B", "T"}}, "S"},
  };
  graph.output_signal = "S";
  const HierarchicalAbstraction ha = abstract_hierarchy(graph, field);
  // S = (A·B)² = A²·B².
  MPoly expect(&field);
  expect.add_term(Monomial::from_pairs({{ha.composed.pool.id("A"), BigUint(2)},
                                        {ha.composed.pool.id("B"), BigUint(2)}}),
                  field.one());
  EXPECT_EQ(ha.composed.g, expect) << ha.composed.g.to_string(ha.composed.pool);
}

TEST(Hierarchy, UndrivenSignalThrows) {
  const Gf2k field = Gf2k::make(3);
  const Netlist mul = make_mastrovito_multiplier(field);
  WordSignalGraph graph;
  graph.primary_inputs = {"A"};
  graph.instances = {{&mul, "m", {{"A", "A"}, {"B", "GHOST"}}, "T"}};
  graph.output_signal = "T";
  EXPECT_THROW(abstract_hierarchy(graph, field), std::logic_error);
}

// Blocks are abstracted in order on the calling thread, so every lift loop
// inside them gets the pool: none degrades to a serial loop.
TEST(Hierarchy, BlocksLeaveThePoolToTheirLifts) {
  const unsigned width_was = parallel_thread_count();
  const bool metrics_was = obs::metrics_enabled();
  set_parallel_thread_count(2);
  obs::set_metrics_enabled(true);
  const Gf2k field = Gf2k::make(16);
  const MontgomeryHierarchy h = make_montgomery_hierarchy(field);
  obs::Metric& serial = obs::Metrics::instance().counter("parallel.serial_loops");
  obs::Metric& pooled = obs::Metrics::instance().counter("parallel.loops");
  const std::uint64_t serial0 = serial.value(), pooled0 = pooled.value();
  const HierarchicalAbstraction ha = abstract_montgomery(h, field);
  const std::uint64_t serial_added = serial.value() - serial0;
  const std::uint64_t pooled_added = pooled.value() - pooled0;
  obs::set_metrics_enabled(metrics_was);
  set_parallel_thread_count(width_was);
  EXPECT_EQ(serial_added, 0u);
  EXPECT_GT(pooled_added, 0u);
  EXPECT_EQ(ha.composed.g,
            MPoly::variable(&field, ha.composed.pool.id("A")) *
                MPoly::variable(&field, ha.composed.pool.id("B")));
}

// Every block charges the run's memory budget directly.
TEST(Hierarchy, BlocksChargeTheRunBudget) {
  const Gf2k field = Gf2k::make(8);
  const MontgomeryHierarchy h = make_montgomery_hierarchy(field);

  ResourceBudget generous(std::size_t{1} << 30);
  ExecControl control;
  control.budget = &generous;
  ExtractionOptions options;
  options.control = &control;
  const HierarchicalAbstraction ha = abstract_montgomery(h, field, options);
  EXPECT_EQ(ha.composed.g,
            MPoly::variable(&field, ha.composed.pool.id("A")) *
                MPoly::variable(&field, ha.composed.pool.id("B")));
  EXPECT_GT(generous.peak_bytes(), 0u);
  EXPECT_EQ(generous.used_bytes(), 0u);  // every lease released

  ResourceBudget tiny(64);
  control.budget = &tiny;
  try {
    abstract_montgomery(h, field, options);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status.code(), StatusCode::kResourceExhausted);
  }
}

// Compares two word functions semantically on random points (across pools).
bool same_rendering(const WordFunction& f1, const WordFunction& f2,
                    const Gf2k& field) {
  test::Rng rng(7);
  for (int t = 0; t < 24; ++t) {
    const auto a = rng.elem(field), b = rng.elem(field);
    if (test::eval_word_function(f1, field, {{"A", a}, {"B", b}}) !=
        test::eval_word_function(f2, field, {{"A", a}, {"B", b}}))
      return false;
  }
  return true;
}

TEST(Hierarchy, CompositionMatchesFlatExtraction) {
  // The composed hierarchical polynomial must equal the polynomial extracted
  // from the flattened interconnection (Abstraction Theorem end-to-end).
  for (unsigned k : {2u, 4u, 8u}) {
    const Gf2k field = Gf2k::make(k);
    const HierarchicalAbstraction ha =
        abstract_montgomery(make_montgomery_hierarchy(field), field);
    const WordFunction flat =
        extract_word_function(make_montgomery_multiplier_flat(field), field);
    EXPECT_TRUE(same_rendering(ha.composed, flat, field)) << "k=" << k;
  }
}

}  // namespace
}  // namespace gfa
