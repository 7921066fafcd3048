// Paper Table 2: "Abstraction of Montgomery blocks."
//
// For each field size k, generates the hierarchical Montgomery multiplier of
// Fig. 1 (four MontMul blocks; Blk A/B absorb the constant R², Blk Out the
// constant 1 — hence the different block sizes, as in the paper) and measures
// the per-block abstraction time plus the word-level composition. The gate
// counters reproduce the table's "# of Gates" rows.
//
// Paper reference (k=163): Blk A 33K gates / 144 s, Blk B 33K / 137 s,
// Blk Mid 85K / 264 s, Blk Out 32K / 91 s, total 636 s — and scaling through
// k=571 (total 87458 s), beyond what the flattened Table 1 flow reached.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "abstraction/hierarchy.h"
#include "circuit/montgomery.h"
#include "obs/trace.h"
#include "bench_util.h"

namespace {

gfa::bench::JsonReporter& reporter() {
  static gfa::bench::JsonReporter r("table2_montgomery");
  return r;
}

const char* kBlockNames[] = {"BlkA", "BlkB", "BlkMid", "BlkOut"};

const gfa::Netlist& block_of(const gfa::MontgomeryHierarchy& h, int which) {
  switch (which) {
    case 0: return h.blk_a;
    case 1: return h.blk_b;
    case 2: return h.blk_mid;
    default: return h.blk_out;
  }
}

struct PerField {
  gfa::Gf2k field;
  gfa::MontgomeryHierarchy hierarchy;
  explicit PerField(unsigned k)
      : field(gfa::Gf2k::make(k)), hierarchy(make_montgomery_hierarchy(field)) {}
};

PerField& cached(unsigned k) {
  static std::map<unsigned, std::unique_ptr<PerField>> cache;
  auto& slot = cache[k];
  if (!slot) slot = std::make_unique<PerField>(k);
  return *slot;
}

void BM_MontgomeryBlock(benchmark::State& state) {
  PerField& pf = cached(static_cast<unsigned>(state.range(0)));
  const gfa::Netlist& blk = block_of(pf.hierarchy, static_cast<int>(state.range(1)));
  gfa::ExtractionStats stats;
  double wall_ms = 0;
  std::vector<std::pair<std::string, double>> phases;
  for (auto _ : state) {
    gfa::obs::Tracer::instance().clear();
    const auto t0 = std::chrono::steady_clock::now();
    const gfa::WordFunction fn =
        gfa::extract_word_function(blk, pf.field);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    stats = fn.stats;
    phases = gfa::bench::drain_phase_times();
    benchmark::DoNotOptimize(fn.g.num_terms());
  }
  state.counters["gates"] = static_cast<double>(blk.num_logic_gates());
  state.counters["peak_terms"] = static_cast<double>(stats.peak_terms);
  gfa::bench::BenchRecord rec;
  rec.name = std::string("Table2/") + kBlockNames[state.range(1)];
  rec.k = static_cast<unsigned>(state.range(0));
  rec.wall_ms = wall_ms;
  rec.peak_terms = stats.peak_terms;
  rec.substitutions = stats.substitutions;
  rec.extra = {{"gates", static_cast<double>(blk.num_logic_gates())}};
  rec.phases = std::move(phases);
  reporter().add(rec);
}

void BM_MontgomeryTotal(benchmark::State& state) {
  // Full hierarchical flow: all four blocks + word-level composition, and the
  // final check that the composed polynomial is A·B.
  PerField& pf = cached(static_cast<unsigned>(state.range(0)));
  bool is_ab = false;
  double wall_ms = 0;
  std::vector<std::pair<std::string, double>> phases;
  for (auto _ : state) {
    gfa::obs::Tracer::instance().clear();
    const auto t0 = std::chrono::steady_clock::now();
    const gfa::HierarchicalAbstraction ha =
        abstract_montgomery(pf.hierarchy, pf.field);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    phases = gfa::bench::drain_phase_times();
    const gfa::MPoly ab =
        gfa::MPoly::variable(&pf.field, ha.composed.pool.id("A")) *
        gfa::MPoly::variable(&pf.field, ha.composed.pool.id("B"));
    is_ab = ha.composed.g == ab;
    benchmark::DoNotOptimize(is_ab);
  }
  if (!is_ab) state.SkipWithError("composed polynomial is not A*B");
  const std::size_t total_gates =
      pf.hierarchy.blk_a.num_logic_gates() + pf.hierarchy.blk_b.num_logic_gates() +
      pf.hierarchy.blk_mid.num_logic_gates() +
      pf.hierarchy.blk_out.num_logic_gates();
  state.counters["gates"] = static_cast<double>(total_gates);
  gfa::bench::BenchRecord rec;
  rec.name = "Table2/TotalHierarchical";
  rec.k = static_cast<unsigned>(state.range(0));
  rec.wall_ms = wall_ms;
  rec.extra = {{"gates", static_cast<double>(total_gates)}};
  rec.phases = std::move(phases);
  reporter().add(rec);
}

}  // namespace

int main(int argc, char** argv) {
  // Record per-phase times (rato_sort / reduction_chain / case2_lift / ...)
  // into BENCH_table2_montgomery.json alongside the wall totals.
  gfa::obs::set_trace_enabled(true);
  benchmark::AddCustomContext("table", "Paper Table 2: Montgomery blocks");
  benchmark::AddCustomContext(
      "paper_reference",
      "k=163 total 636s (BlkA 144 / BlkB 137 / BlkMid 264 / BlkOut 91); "
      "k=571 total 87458s. Block gate shape: Mid >> A = B > Out");
  // k=233 is on the default ladder; GFA_BENCH_MAX_K still trims it for CI.
  const std::vector<unsigned> sizes = gfa::bench::ladder({16, 32, 64, 96, 128}, 233);
  for (unsigned k : sizes) {
    for (int b = 0; b < 4; ++b) {
      benchmark::RegisterBenchmark(
          (std::string("Table2/") + kBlockNames[b]).c_str(), BM_MontgomeryBlock)
          ->Args({static_cast<int>(k), b})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1)
          ->MeasureProcessCPUTime();
    }
    benchmark::RegisterBenchmark("Table2/TotalHierarchical", BM_MontgomeryTotal)
        ->Args({static_cast<int>(k), 0})
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1)
        ->MeasureProcessCPUTime();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Scaling section on the largest block (Blk Mid carries the paper's
  // dominant share of the chain), with the cross-width determinism check.
  if (!sizes.empty()) {
    PerField& pf = cached(sizes.back());
    gfa::bench::add_scaling_records(reporter(), "Table2/ScalingReductionChain",
                                    pf.field, pf.hierarchy.blk_mid);
  }
  reporter().write();
  return 0;
}
