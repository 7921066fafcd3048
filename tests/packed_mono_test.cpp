#include "abstraction/packed_mono.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "abstraction/bitpoly.h"

namespace gfa {
namespace {

PackedMono make(const std::vector<VarId>& ids) {
  return PackedMono::from_sorted(ids.data(), ids.size());
}

std::vector<VarId> ascending(std::size_t n, VarId start = 0, VarId step = 1) {
  std::vector<VarId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = start + step * VarId(i);
  return ids;
}

// ---------------------------------------------------------------------------
// Inline/spill boundary
// ---------------------------------------------------------------------------

TEST(PackedMonoTest, RoundTripsAcrossTheInlineBoundary) {
  // kMaxInline = 6: sizes up to 6 stay inline, 7+ spill. Both forms must
  // reproduce the exact id sequence.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{6}, std::size_t{7}, std::size_t{8},
                        std::size_t{20}, std::size_t{100}}) {
    const std::vector<VarId> ids = ascending(n, 3, 17);
    const PackedMono m = make(ids);
    EXPECT_EQ(m.size(), n);
    EXPECT_EQ(m.spilled(), n > PackedMono::kMaxInline) << "n=" << n;
    EXPECT_EQ(m.ids(), ids) << "n=" << n;
    std::size_t i = 0;
    for (VarId v : m) EXPECT_EQ(v, ids[i++]);
  }
}

TEST(PackedMonoTest, LargeIdForcesSpillEvenWhenShort) {
  // Any id >= 2^20 cannot be packed into a 20-bit lane; the monomial spills
  // even with a single variable, and the choice is canonical per id set.
  const PackedMono inline_form = make({PackedMono::kMaxInlineId});
  EXPECT_FALSE(inline_form.spilled());
  EXPECT_EQ(inline_form[0], PackedMono::kMaxInlineId);

  const PackedMono spilled_form = make({PackedMono::kMaxInlineId + 1});
  EXPECT_TRUE(spilled_form.spilled());
  EXPECT_EQ(spilled_form[0], PackedMono::kMaxInlineId + 1);
  EXPECT_NE(inline_form, spilled_form);
}

TEST(PackedMonoTest, EqualIdSetsAreEqualAcrossConstructionRoutes) {
  const PackedMono a = make({1, 5, 9});
  const PackedMono b{9, 1, 5, 5};  // initializer list sorts and dedups
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(PackedMonoTest, WithoutCrossesBackToInline) {
  // A 7-variable spill dropping to 6 must return to the inline form —
  // canonicality means equality never compares across forms.
  const PackedMono seven = make(ascending(7));
  ASSERT_TRUE(seven.spilled());
  const PackedMono six = seven.without(3);
  EXPECT_FALSE(six.spilled());
  EXPECT_EQ(six, make({0, 1, 2, 4, 5, 6}));
  // Removing an absent variable is a no-op.
  EXPECT_EQ(seven.without(99), seven);
  // without() on the inline form filters in place.
  EXPECT_EQ(make({2, 4}).without(2), make({4}));
  EXPECT_EQ(make({2}).without(2), PackedMono{});
}

TEST(PackedMonoTest, MulIsSetUnionAcrossForms) {
  // Multilinear product = id-set union, whatever mix of forms the operands
  // use; results re-canonicalize (inline result from spilled operands).
  const PackedMono a = make({0, 2, 4});
  const PackedMono b = make({1, 2, 5});
  EXPECT_EQ(packed_mono_mul(a, b), make({0, 1, 2, 4, 5}));
  EXPECT_EQ(packed_mono_mul(a, PackedMono{}), a);
  EXPECT_EQ(packed_mono_mul(PackedMono{}, b), b);

  const PackedMono wide = make(ascending(10));
  ASSERT_TRUE(wide.spilled());
  EXPECT_EQ(packed_mono_mul(wide, make({3})), wide);  // subset absorbs
  const PackedMono crossing = packed_mono_mul(make({0, 1, 2}), make({3, 4, 5, 6}));
  EXPECT_TRUE(crossing.spilled());
  EXPECT_EQ(crossing, make(ascending(7)));

  const PackedMono big = make({PackedMono::kMaxInlineId + 7});
  EXPECT_EQ(packed_mono_mul(big, make({1})).size(), 2u);
  EXPECT_TRUE(packed_mono_mul(big, make({1})).spilled());
}

TEST(PackedMonoTest, OrderingMatchesVectorLexicographic) {
  // operator< must induce the same order std::vector<VarId> does, so sorted
  // renderings and checkpoint serializations agree across representations.
  const std::vector<std::vector<VarId>> sets = {
      {},        {0},         {0, 1},      {0, 5},
      {1},       {1, 2, 3},   {1, 2, 4},   ascending(7),
      ascending(8), {PackedMono::kMaxInlineId + 1}};
  for (const auto& x : sets) {
    for (const auto& y : sets) {
      EXPECT_EQ(make(x) < make(y), x < y)
          << "lex mismatch for sizes " << x.size() << " vs " << y.size();
    }
  }
}

// ---------------------------------------------------------------------------
// Copy/move semantics and the spill pool
// ---------------------------------------------------------------------------

TEST(PackedMonoTest, CopyIsDeepForSpilledForm) {
  const std::vector<VarId> ids = ascending(12);
  PackedMono a = make(ids);
  PackedMono b = a;  // deep copy: b owns its own buffer
  PackedMono c;
  c = a;
  a = PackedMono{};  // destroys a's buffer
  EXPECT_EQ(b.ids(), ids);
  EXPECT_EQ(c.ids(), ids);
}

TEST(PackedMonoTest, MoveTransfersOwnershipAndEmptiesSource) {
  PackedMono a = make(ascending(9));
  const PackedMono moved = std::move(a);
  EXPECT_EQ(moved.size(), 9u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd reset
  PackedMono b;
  b = std::move(const_cast<PackedMono&>(moved));
  EXPECT_EQ(b.size(), 9u);
  // Self-move-assignment must not free the buffer.
  PackedMono& ref = b;
  b = std::move(ref);
  EXPECT_EQ(b.size(), 9u);
}

TEST(PackedMonoTest, SpillPoolRecyclesBuffers) {
  const SpillPoolStats before = packed_mono_pool_stats();
  {
    // First allocation warms the thread-local free list...
    PackedMono warm = make(ascending(8));
    EXPECT_GT(warm.spill_bytes(), 0u);
  }
  const SpillPoolStats mid = packed_mono_pool_stats();
  EXPECT_GT(mid.allocs, before.allocs);
  EXPECT_GT(mid.frees, before.frees);
  {
    // ... so an equal-class allocation right after is a pool hit.
    PackedMono reuse = make(ascending(8));
    const SpillPoolStats after = packed_mono_pool_stats();
    EXPECT_GT(after.pool_hits, before.pool_hits);
    EXPECT_GE(after.live_bytes, reuse.spill_bytes());
  }
  // Inline monomials never touch the pool.
  const SpillPoolStats base = packed_mono_pool_stats();
  PackedMono tiny = make({1, 2, 3});
  EXPECT_EQ(tiny.spill_bytes(), 0u);
  EXPECT_EQ(packed_mono_pool_stats().allocs, base.allocs);
}

// ---------------------------------------------------------------------------
// Hash quality
// ---------------------------------------------------------------------------

template <typename Gen>
std::size_t max_bucket_load(std::size_t n, std::size_t buckets, unsigned shift,
                            Gen mono_of) {
  std::vector<std::size_t> load(buckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = mono_of(i).hash();
    ++load[(h >> shift) & (buckets - 1)];
  }
  std::size_t max = 0;
  for (std::size_t l : load) max = std::max(max, l);
  return max;
}

TEST(PackedMonoHashTest, ConsecutiveIdsSpreadAcrossAllHashBits) {
  // 65536 single-variable monomials into 1024 buckets: uniform expectation
  // 64 per bucket; 128 allows ~8σ of slack, on low and high hash bits.
  const auto single = [](std::size_t i) { return make({VarId(i)}); };
  EXPECT_LT(max_bucket_load(65536, 1024, 0, single), 128u);
  EXPECT_LT(max_bucket_load(65536, 1024, 54, single), 128u);
}

TEST(PackedMonoHashTest, QuadraticMonomialsSpreadAcrossAllHashBits) {
  // The {a_i, b_j} grid of a multiplier's partial products — exactly the
  // working set of the packed reduction chain.
  const auto pair = [](std::size_t i) {
    const VarId a = VarId(i % 256), b = VarId(256 + i / 256);
    return make({a, b});
  };
  EXPECT_LT(max_bucket_load(65536, 1024, 0, pair), 128u);
  EXPECT_LT(max_bucket_load(65536, 1024, 54, pair), 128u);
}

TEST(PackedMonoHashTest, SingleBitFlipAvalanchesHalfTheOutput) {
  std::uint64_t total_flipped = 0;
  const std::size_t trials = 4096;
  for (std::size_t i = 0; i < trials; ++i) {
    const VarId v = VarId(i);
    const std::uint64_t h1 = make({v}).hash();
    const std::uint64_t h2 = make({VarId(v ^ 1u)}).hash();
    total_flipped += __builtin_popcountll(h1 ^ h2);
  }
  const double avg = static_cast<double>(total_flipped) / trials;
  EXPECT_GT(avg, 28.0);
  EXPECT_LT(avg, 36.0);
}

TEST(PackedMonoHashTest, HashDependsOnEveryVariableSlot) {
  // Each of the six 20-bit lanes (three in w0, three in w1) must reach the
  // hash — the two words are mixed with distinct salts so lanes in w0 and
  // w1 cannot cancel.
  const std::vector<VarId> base = {1, 2, 3, 4, 5, 6};
  const PackedMono m = make(base);
  for (std::size_t slot = 0; slot < base.size(); ++slot) {
    std::vector<VarId> flipped = base;
    flipped[slot] += 10;
    std::sort(flipped.begin(), flipped.end());
    EXPECT_NE(m.hash(), make(flipped).hash()) << "slot " << slot;
  }
  EXPECT_NE(PackedMono{}.hash(), make({0}).hash());
  // Spilled hashes depend on every position too.
  EXPECT_NE(make(ascending(9)).hash(), make(ascending(9, 0, 2)).hash());
}

TEST(PackedMonoHashTest, AgreesWithFacadeHasher) {
  // PackedMonoHash must be PackedMono::hash — the term map and any
  // std::unordered_map keyed by PackedMono must bucket identically.
  const PackedMono m = make({4, 7});
  EXPECT_EQ(PackedMonoHash{}(m), static_cast<std::size_t>(m.hash()));
}

}  // namespace
}  // namespace gfa
