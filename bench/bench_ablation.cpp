// Ablations of the design choices DESIGN.md calls out:
//
//   1. Word-lift fast path: the bilinear Cᵀ·Q·C matrix triple product versus
//      the general monomial-by-monomial expansion, on the same Mastrovito
//      remainder (O(k³) vs O(k⁴) field multiplications).
//   2. Frobenius basis-change construction: the O(k²) trace-dual closed
//      form, across the NIST ladder.
//   3. Hierarchical versus flattened verification of the same Montgomery
//      multiplier (the paper's Table 2-vs-Table 1 flow distinction).

#include <benchmark/benchmark.h>

#include <string>

#include "abstraction/hierarchy.h"
#include "abstraction/word_lift.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "bench_util.h"

namespace {

// Rebuilds the Mastrovito remainder r = Σ α^{i+j} a_i b_j over a fresh pool.
struct RemainderFixture {
  gfa::Gf2k field;
  gfa::VarPool pool;
  std::vector<gfa::WordLift::WordBinding> bindings;
  gfa::BitPoly remainder;

  explicit RemainderFixture(unsigned k) : field(gfa::Gf2k::make(k)), remainder(&field) {
    gfa::WordLift::WordBinding ba, bb;
    for (unsigned i = 0; i < k; ++i)
      ba.bit_vars.push_back(pool.intern("a" + std::to_string(i), gfa::VarKind::kBit));
    for (unsigned i = 0; i < k; ++i)
      bb.bit_vars.push_back(pool.intern("b" + std::to_string(i), gfa::VarKind::kBit));
    ba.word_var = pool.intern("A", gfa::VarKind::kWord);
    bb.word_var = pool.intern("B", gfa::VarKind::kWord);
    for (unsigned i = 0; i < k; ++i)
      for (unsigned j = 0; j < k; ++j)
        remainder.add_term({ba.bit_vars[i], bb.bit_vars[j]},
                           field.alpha_pow(std::uint64_t{i} + j));
    bindings = {ba, bb};
  }
};

void BM_LiftBilinearFastPath(benchmark::State& state) {
  RemainderFixture fx(static_cast<unsigned>(state.range(0)));
  const gfa::WordLift lift(&fx.field);
  for (auto _ : state)
    benchmark::DoNotOptimize(lift.lift(fx.remainder, fx.bindings, fx.pool));
}

void BM_LiftGeneralPath(benchmark::State& state) {
  // Force the general path by adding one cubic monomial: the lift dispatches
  // on max monomial size, so the whole (otherwise identical) remainder now
  // takes the O(k⁴) expansion route.
  RemainderFixture fx(static_cast<unsigned>(state.range(0)));
  fx.remainder.add_term({fx.bindings[0].bit_vars[0], fx.bindings[0].bit_vars[1],
                         fx.bindings[1].bit_vars[0]},
                        fx.field.one());
  const gfa::WordLift lift(&fx.field);
  for (auto _ : state)
    benchmark::DoNotOptimize(lift.lift(fx.remainder, fx.bindings, fx.pool));
}

void BM_WordLiftConstruction(benchmark::State& state) {
  // The trace-dual closed form: O(k²) field operations plus one k×k
  // inversion over F_2.
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const gfa::WordLift lift(&field);
    benchmark::DoNotOptimize(lift.matrix().size());
  }
}

void BM_EngineIndexed(benchmark::State& state) {
  // Per-variable substitution through the occurrence index.
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  const gfa::Netlist nl = make_mastrovito_multiplier(field);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        gfa::extract_word_function(nl, field).g.num_terms());
}

void BM_VerifyHierarchical(benchmark::State& state) {
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  const gfa::MontgomeryHierarchy h = make_montgomery_hierarchy(field);
  for (auto _ : state) {
    const gfa::HierarchicalAbstraction ha = abstract_montgomery(h, field);
    benchmark::DoNotOptimize(ha.composed.g.num_terms());
  }
}

void BM_VerifyFlattened(benchmark::State& state) {
  const gfa::Gf2k field = gfa::Gf2k::make(static_cast<unsigned>(state.range(0)));
  const gfa::Netlist flat = make_montgomery_multiplier_flat(field);
  for (auto _ : state) {
    const gfa::WordFunction fn = gfa::extract_word_function(flat, field);
    benchmark::DoNotOptimize(fn.g.num_terms());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("table", "Ablations (DESIGN.md design choices)");
  for (unsigned k : gfa::bench::ladder({8, 16, 24, 32}, 32)) {
    benchmark::RegisterBenchmark("Ablation/LiftBilinear", BM_LiftBilinearFastPath)
        ->Arg(static_cast<int>(k))->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  // The general lift is O(k⁴) field products: a fixed list capped at k = 32,
  // not the NIST ladder (k = 163 alone runs for more than 14 minutes).
  const unsigned max_k = gfa::bench::max_k_from_env(32);
  for (unsigned k : {8u, 16u, 24u, 32u}) {
    if (k > max_k) continue;
    benchmark::RegisterBenchmark("Ablation/LiftGeneral", BM_LiftGeneralPath)
        ->Arg(static_cast<int>(k))->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  for (unsigned k : gfa::bench::ladder({32, 64, 128}, 571)) {
    benchmark::RegisterBenchmark("Ablation/WordLiftBuild", BM_WordLiftConstruction)
        ->Arg(static_cast<int>(k))->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  for (unsigned k : gfa::bench::ladder({16, 32, 64}, 64)) {
    benchmark::RegisterBenchmark("Ablation/VerifyHierarchical", BM_VerifyHierarchical)
        ->Arg(static_cast<int>(k))->Unit(benchmark::kMillisecond)->Iterations(1);
    benchmark::RegisterBenchmark("Ablation/VerifyFlattened", BM_VerifyFlattened)
        ->Arg(static_cast<int>(k))->Unit(benchmark::kMillisecond)->Iterations(1);
    benchmark::RegisterBenchmark("Ablation/EngineIndexed", BM_EngineIndexed)
        ->Arg(static_cast<int>(k))->Unit(benchmark::kMillisecond)->Iterations(1);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
