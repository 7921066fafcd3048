#include "abstraction/bitpoly.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "abstraction/rewriter.h"
#include "test_util.h"

namespace gfa {
namespace {

class BitPolyTest : public ::testing::Test {
 protected:
  BitPolyTest() : field_(Gf2k::make(4)) {
    x_ = pool_.intern("x", VarKind::kBit);
    y_ = pool_.intern("y", VarKind::kBit);
    z_ = pool_.intern("z", VarKind::kBit);
  }
  BitPoly var(VarId v) { return BitPoly::variable(&field_, v); }
  BitPoly one() { return BitPoly::constant(&field_, field_.one()); }
  Gf2k field_;
  VarPool pool_;
  VarId x_, y_, z_;
};

TEST_F(BitPolyTest, MonoMulIsUnion) {
  EXPECT_EQ(packed_mono_mul(BitMono{0, 2}, BitMono{1, 2}), (BitMono{0, 1, 2}));
  EXPECT_EQ(packed_mono_mul(BitMono{}, BitMono{3}), (BitMono{3}));
  EXPECT_EQ(packed_mono_mul(BitMono{5}, BitMono{5}), (BitMono{5}));  // x² = x
}

TEST_F(BitPolyTest, AdditionCancels) {
  BitPoly p = var(x_) + var(y_);
  EXPECT_EQ(p.num_terms(), 2u);
  p += var(x_);
  EXPECT_EQ(p.num_terms(), 1u);
  EXPECT_EQ(p.coeff({y_}), field_.one());
  EXPECT_TRUE(p.coeff({x_}).is_zero());
}

TEST_F(BitPolyTest, MultiplicationIsMultilinear) {
  // (x + y)·(x + y) = x + y over bits (x² = x, cross terms cancel).
  const BitPoly s = var(x_) + var(y_);
  EXPECT_EQ(s * s, s);
  // (x + 1)(y + 1) = xy + x + y + 1.
  const BitPoly p = (var(x_) + one()) * (var(y_) + one());
  EXPECT_EQ(p.num_terms(), 4u);
  EXPECT_EQ(p.coeff({x_, y_}), field_.one());
  EXPECT_EQ(p.coeff({}), field_.one());
}

TEST_F(BitPolyTest, ScaledMultipliesCoefficients) {
  const auto alpha = field_.alpha();
  const BitPoly p = (var(x_) + one()).scaled(alpha);
  EXPECT_EQ(p.coeff({x_}), alpha);
  EXPECT_EQ(p.coeff({}), alpha);
  EXPECT_TRUE(p.scaled(field_.zero()).is_zero());
}

TEST_F(BitPolyTest, EvalAgreesWithStructure) {
  // p = α·x·y + y + 1.
  BitPoly p(&field_);
  p.add_term({x_, y_}, field_.alpha());
  p.add_term({y_}, field_.one());
  p.add_term({}, field_.one());
  EXPECT_EQ(p.eval({true, true, false}),
            field_.add(field_.alpha(), field_.zero()));  // α + 1 + 1
  EXPECT_EQ(p.eval({true, false, false}), field_.one());
  EXPECT_EQ(p.eval({false, true, false}), field_.zero());  // 1 + 1
}

TEST_F(BitPolyTest, MaxMonomialSize) {
  BitPoly p(&field_);
  EXPECT_EQ(p.max_monomial_size(), 0u);
  p.add_term({}, field_.one());
  EXPECT_EQ(p.max_monomial_size(), 0u);
  p.add_term({x_, y_, z_}, field_.one());
  EXPECT_EQ(p.max_monomial_size(), 3u);
}

TEST_F(BitPolyTest, ToStringDeterministic) {
  BitPoly p(&field_);
  p.add_term({y_}, field_.one());
  p.add_term({x_}, field_.alpha());
  EXPECT_EQ(p.to_string(pool_), "α*x + y");
}

TEST_F(BitPolyTest, RewriterSubstitutesOnlyMatchingTerms) {
  // r = α·x·y + z ; substitute x := z + 1 → α·y·z + α·y + z.
  BackwardRewriter rw({true, true, true});
  rw.add({x_, y_}, field_.alpha());
  rw.add({z_}, field_.one());
  rw.substitute(x_, FlatTail{{BitMono{z_}, BitMono{}}});
  EXPECT_EQ(rw.num_terms(), 3u);
  EXPECT_EQ(rw.terms().at({y_, z_}), field_.alpha());
  EXPECT_EQ(rw.terms().at({y_}), field_.alpha());
  EXPECT_EQ(rw.terms().at({z_}), field_.one());
}

TEST_F(BitPolyTest, RewriterMultilinearCancellation) {
  // α·x·y with x := y + 1 is (y+1)·y = y² + y = 0 under x² = x.
  BackwardRewriter rw({true, true, true});
  rw.add({x_, y_}, field_.alpha());
  rw.substitute(x_, FlatTail{{BitMono{y_}, BitMono{}}});
  EXPECT_EQ(rw.num_terms(), 0u);
}

TEST_F(BitPolyTest, RewriterHandlesCancellationThenReuse) {
  BackwardRewriter rw({true, true, true});
  rw.add({x_}, field_.one());
  rw.add({x_}, field_.one());  // cancels to zero
  EXPECT_EQ(rw.num_terms(), 0u);
  rw.add({x_}, field_.alpha());  // re-created after cancellation
  rw.substitute(x_, FlatTail{{BitMono{y_}}});
  EXPECT_EQ(rw.terms().at({y_}), field_.alpha());
}

TEST_F(BitPolyTest, RewriterBudget) {
  BackwardRewriter rw({true, true, true}, /*max_terms=*/1);
  rw.add({x_}, field_.one());
  EXPECT_THROW(rw.add({y_}, field_.one()), RewriteBudgetExceeded);
}

/// The tail's value at a 0/1 assignment: the parity of its monomials whose
/// variables are all set (every coefficient is implicitly 1).
bool eval_tail(const FlatTail& tail, const std::vector<bool>& assign) {
  bool sum = false;
  for (const BitMono& m : tail.monos) {
    bool all = true;
    for (VarId v : m) all = all && assign[v];
    sum ^= all;
  }
  return sum;
}

TEST_F(BitPolyTest, GateTailPolynomials) {
  // fill_gate_tail against gate semantics on every point of {0,1}³ over the
  // nets a, b, c; one scratch tail is reused, as the reduction chain does.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId c = nl.add_input("c");
  using Fn = std::function<bool(bool, bool, bool)>;
  struct Case {
    const char* what;
    GateType type;
    std::vector<NetId> fanins;
    Fn expect;
    std::size_t terms;  // distinct monomials in the tail
  };
  const Case cases[] = {
      {"const0", GateType::kConst0, {}, [](bool, bool, bool) { return false; }, 0},
      {"const1", GateType::kConst1, {}, [](bool, bool, bool) { return true; }, 1},
      {"buf", GateType::kBuf, {a}, [](bool x, bool, bool) { return x; }, 1},
      {"not", GateType::kNot, {a}, [](bool x, bool, bool) { return !x; }, 2},
      {"and", GateType::kAnd, {a, b}, [](bool x, bool y, bool) { return x && y; }, 1},
      {"nand", GateType::kNand, {b, a}, [](bool x, bool y, bool) { return !(x && y); }, 2},
      {"or", GateType::kOr, {a, b}, [](bool x, bool y, bool) { return x || y; }, 3},
      {"nor", GateType::kNor, {a, b}, [](bool x, bool y, bool) { return !(x || y); }, 4},
      {"xor", GateType::kXor, {b, a}, [](bool x, bool y, bool) { return x != y; }, 2},
      {"xnor", GateType::kXnor, {a, b}, [](bool x, bool y, bool) { return x == y; }, 3},
      // Duplicated fanins: XOR cancels them in pairs, AND collapses them.
      {"xor(a,b,a)", GateType::kXor, {a, b, a}, [](bool, bool y, bool) { return y; }, 1},
      {"xor(a,a)", GateType::kXor, {a, a}, [](bool, bool, bool) { return false; }, 0},
      {"and(b,a,b)", GateType::kAnd, {b, a, b}, [](bool x, bool y, bool) { return x && y; }, 1},
      // A 3-input OR expands to every non-empty subset of its fanins.
      {"or(c,a,b)", GateType::kOr, {c, a, b},
       [](bool x, bool y, bool z) { return x || y || z; }, 7},
      {"and(a,b,c)", GateType::kAnd, {a, b, c},
       [](bool x, bool y, bool z) { return x && y && z; }, 1},
      {"xor(a,b,c)", GateType::kXor, {a, b, c},
       [](bool x, bool y, bool z) { return x ^ y ^ z; }, 3},
  };
  FlatTail tail;
  for (const Case& t : cases) {
    fill_gate_tail(Netlist::Gate{t.type, t.fanins, "g"}, tail);
    EXPECT_EQ(tail.monos.size(), t.terms) << t.what;
    for (int i = 0; i < 8; ++i) {
      std::vector<bool> assign(3);
      assign[a] = i & 1;
      assign[b] = i & 2;
      assign[c] = i & 4;
      EXPECT_EQ(eval_tail(tail, assign), t.expect(assign[a], assign[b], assign[c]))
          << t.what << " at a=" << assign[a] << " b=" << assign[b]
          << " c=" << assign[c];
    }
  }
}

}  // namespace
}  // namespace gfa
