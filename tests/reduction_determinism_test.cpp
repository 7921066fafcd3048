// Determinism suite for the reduction chain (rewriter.h) and the parallel
// word-level endgame around it: the extracted canonical polynomial must be
// bit-identical at every pool width — including when a mid-chain fault
// unwinds a run, and when a checkpoint saved at one thread count is resumed
// at another. "Identical" here is exact: the same term set with the same
// GF(2^k) coefficients, compared both structurally and via to_string.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "abstraction/extractor.h"
#include "circuit/mastrovito.h"
#include "circuit/montgomery.h"
#include "util/fault_inject.h"
#include "util/parallel_for.h"
#include "worker/checkpoint.h"

namespace gfa {
namespace {

struct Disarmer {
  ~Disarmer() { fault::disarm(); }
};

/// Restores the pool width the test found, however the test exits.
struct WidthGuard {
  unsigned before = parallel_thread_count();
  ~WidthGuard() { set_parallel_thread_count(before); }
};

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "gfa_det_XXXXXX";
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

WordFunction extract_at(unsigned threads, const Netlist& nl, const Gf2k& field,
                        const ExtractionOptions& options = {}) {
  set_parallel_thread_count(threads);
  return extract_word_function(nl, field, options);
}

/// Extracts at 1/2/8 threads and asserts every result is bit-identical to
/// the 1-thread chain.
void expect_width_invariant(const Netlist& nl, const Gf2k& field) {
  WidthGuard guard;
  const WordFunction ref = extract_at(1, nl, field);
  const std::string ref_poly = ref.g.to_string(ref.pool);
  for (unsigned threads : {2u, 8u}) {
    const WordFunction fn = extract_at(threads, nl, field);
    EXPECT_TRUE(fn.g == ref.g) << "k=" << field.k() << " threads=" << threads;
    EXPECT_EQ(fn.g.to_string(fn.pool), ref_poly)
        << "k=" << field.k() << " threads=" << threads;
    // The chain does the same work at every width.
    EXPECT_EQ(fn.stats.substitutions, ref.stats.substitutions);
    EXPECT_EQ(fn.stats.peak_terms, ref.stats.peak_terms);
  }
}

TEST(ReductionDeterminism, MastrovitoIsBitIdenticalAcrossThreadCounts) {
  for (unsigned k : {8u, 32u, 64u}) {
    const Gf2k field = Gf2k::make(k);
    expect_width_invariant(make_mastrovito_multiplier(field), field);
  }
}

TEST(ReductionDeterminism, MontgomeryFlatIsBitIdenticalAcrossThreadCounts) {
  for (unsigned k : {8u, 32u, 64u}) {
    const Gf2k field = Gf2k::make(k);
    expect_width_invariant(make_montgomery_multiplier_flat(field), field);
  }
}

TEST(ReductionDeterminism, CleanRerunAfterMidChainFaultIsIdentical) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  WidthGuard guard;
  const Gf2k field = Gf2k::make(32);
  const Netlist nl = make_mastrovito_multiplier(field);
  const WordFunction ref = extract_at(1, nl, field);

  for (unsigned threads : {2u, 8u}) {
    set_parallel_thread_count(threads);
    // Kill the chain partway through (the 400th add lands mid-substitution);
    // the failure must unwind as a clean status, and a rerun in the same
    // process must not be perturbed by the aborted run.
    ASSERT_TRUE(fault::arm("oom:rewriter.add", 400).ok());
    const Result<WordFunction> interrupted =
        try_extract_word_function(nl, field);
    EXPECT_TRUE(fault::fired()) << "threads=" << threads;
    ASSERT_FALSE(interrupted.ok()) << "threads=" << threads;
    EXPECT_EQ(interrupted.status().code(), StatusCode::kResourceExhausted);
    fault::disarm();

    const WordFunction rerun = extract_word_function(nl, field);
    EXPECT_TRUE(rerun.g == ref.g) << "threads=" << threads;
    EXPECT_EQ(rerun.g.to_string(rerun.pool), ref.g.to_string(ref.pool));
  }
}

TEST(ReductionDeterminism, ResumeOnADifferentThreadCountMatches) {
  if (!fault::compiled_in()) GTEST_SKIP() << "GFA_FAULT_INJECTION is off";
  Disarmer disarm;
  WidthGuard guard;
  const Gf2k field = Gf2k::make(64);
  const Netlist nl = make_mastrovito_multiplier(field);
  const WordFunction ref = extract_at(1, nl, field);
  const std::string ref_poly = ref.g.to_string(ref.pool);

  const std::string dir = make_temp_dir();
  ExtractionCheckpoint ck;
  ck.directory = dir;
  ck.interval = 100;
  ExecControl control;  // non-null so the cancel fault point is polled
  ExtractionOptions options;
  options.control = &control;
  options.checkpoint = &ck;

  // Save under a 2-thread pool... The chain polls the cancel point once per
  // gate on the calling thread, so the 2000th poll lands on gate 2000 at
  // every width: after 19 periodic saves, far from the chain's end.
  set_parallel_thread_count(2);
  ASSERT_TRUE(fault::arm("cancel:checkpoint", 2000).ok());
  const Result<WordFunction> interrupted =
      try_extract_word_function(nl, field, options);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
  fault::disarm();
  const std::string path =
      worker::checkpoint_path(dir, worker::netlist_content_hash(nl), "Z");
  ASSERT_TRUE(worker::load_checkpoint(path).ok())
      << "no checkpoint survived the interruption";

  // ...and resume under an 8-thread pool: the polynomial must not change.
  set_parallel_thread_count(8);
  ck.resume = true;
  const Result<WordFunction> resumed =
      try_extract_word_function(nl, field, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_TRUE(resumed->stats.resumed);
  EXPECT_LT(resumed->stats.substitutions, ref.stats.substitutions);
  EXPECT_TRUE(resumed->g == ref.g);
  EXPECT_EQ(resumed->g.to_string(resumed->pool), ref_poly);
}

}  // namespace
}  // namespace gfa
