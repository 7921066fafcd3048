#include "gf/normal_basis.h"

#include <gtest/gtest.h>

#include "abstraction/equivalence.h"
#include "baselines/interpolation.h"
#include "circuit/massey_omura.h"
#include "circuit/mastrovito.h"
#include "circuit/sim.h"
#include "test_util.h"

namespace gfa {
namespace {

class NormalBasisTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(NormalBasisTest, FindsANormalElement) {
  const Gf2k field = Gf2k::make(GetParam());
  const NormalBasis nb = NormalBasis::find(field);
  // Orbit structure: basis[i+1] = basis[i]² and basis[0]^{2^k} = basis[0].
  for (unsigned i = 0; i + 1 < field.k(); ++i)
    EXPECT_EQ(nb.basis()[i + 1], field.square(nb.basis()[i]));
  EXPECT_EQ(field.square(nb.basis().back()), nb.basis()[0]);
}

TEST_P(NormalBasisTest, CoordinateRoundTrip) {
  const Gf2k field = Gf2k::make(GetParam());
  const NormalBasis nb = NormalBasis::find(field);
  test::Rng rng(GetParam() * 19);
  for (int t = 0; t < 32; ++t) {
    const auto a = rng.elem(field);
    EXPECT_EQ(nb.from_coords(nb.to_coords(a)), a);
  }
  EXPECT_TRUE(nb.to_coords(field.zero()).is_zero());
}

TEST_P(NormalBasisTest, SquaringIsCyclicShift) {
  // The normal-basis selling point: coords(a²) = coords(a) rotated by one.
  const Gf2k field = Gf2k::make(GetParam());
  const unsigned k = field.k();
  const NormalBasis nb = NormalBasis::find(field);
  test::Rng rng(GetParam() * 23);
  for (int t = 0; t < 16; ++t) {
    const auto a = rng.elem(field);
    const Gf2Poly ca = nb.to_coords(a);
    const Gf2Poly ca2 = nb.to_coords(field.square(a));
    for (unsigned i = 0; i < k; ++i)
      EXPECT_EQ(ca2.coeff((i + 1) % k), ca.coeff(i));
  }
}

TEST_P(NormalBasisTest, LambdaMatrixDefinesMultiplication) {
  const Gf2k field = Gf2k::make(GetParam());
  const unsigned k = field.k();
  const NormalBasis nb = NormalBasis::find(field);
  test::Rng rng(GetParam() * 29);
  for (int t = 0; t < 8; ++t) {
    const auto a = rng.elem(field), b = rng.elem(field);
    const Gf2Poly ca = nb.to_coords(a), cb = nb.to_coords(b);
    // z_l = Σ_{ij} λ[i][j]_l a_i b_j.
    Gf2Poly cz;
    for (unsigned i = 0; i < k; ++i) {
      if (!ca.coeff(i)) continue;
      for (unsigned j = 0; j < k; ++j)
        if (cb.coeff(j)) cz += nb.lambda()[i][j];
    }
    EXPECT_EQ(nb.from_coords(cz), field.mul(a, b));
  }
}

TEST_P(NormalBasisTest, MasseyOmuraShiftSymmetry) {
  // λ_l[i][j] = λ_0[i-l][j-l] (mod k): the one-Boolean-function property.
  const Gf2k field = Gf2k::make(GetParam());
  const unsigned k = field.k();
  const NormalBasis nb = NormalBasis::find(field);
  for (unsigned l = 0; l < k; ++l)
    for (unsigned i = 0; i < k; ++i)
      for (unsigned j = 0; j < k; ++j)
        EXPECT_EQ(nb.lambda()[i][j].coeff(l),
                  nb.lambda()[(i + k - l) % k][(j + k - l) % k].coeff(0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, NormalBasisTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 11, 16));

class MasseyOmura : public ::testing::TestWithParam<unsigned> {};

TEST_P(MasseyOmura, MultipliesInNormalCoordinates) {
  const Gf2k field = Gf2k::make(GetParam());
  const NormalBasis nb = NormalBasis::find(field);
  const Netlist nl = make_massey_omura_multiplier(field, nb);
  EXPECT_TRUE(nl.validate().empty());
  test::Rng rng(GetParam() * 31);
  std::vector<Gf2Poly> ca, cb, expect;
  for (int i = 0; i < 32; ++i) {
    const auto a = rng.elem(field), b = rng.elem(field);
    ca.push_back(nb.to_coords(a));
    cb.push_back(nb.to_coords(b));
    expect.push_back(nb.to_coords(field.mul(a, b)));
  }
  // simulate_words just moves bits; the normal interpretation lives in the
  // coordinate conversion on both sides.
  EXPECT_EQ(simulate_words(nl, *nl.find_word("Z"),
                           {{nl.find_word("A"), ca}, {nl.find_word("B"), cb}}),
            expect);
}

TEST_P(MasseyOmura, AbstractsToABOverNormalBasis) {
  const Gf2k field = Gf2k::make(GetParam());
  const NormalBasis nb = NormalBasis::find(field);
  const Netlist nl = make_massey_omura_multiplier(field, nb);
  ExtractionOptions options;
  options.basis = &nb.basis();
  const WordFunction fn = extract_word_function(nl, field, options);
  const MPoly ab = MPoly::variable(&field, fn.pool.id("A")) *
                   MPoly::variable(&field, fn.pool.id("B"));
  EXPECT_EQ(fn.g, ab) << fn.g.to_string(fn.pool);
}

TEST_P(MasseyOmura, CrossRepresentationEquivalence) {
  // The headline extension: a polynomial-basis Mastrovito multiplier and a
  // normal-basis Massey–Omura multiplier — no two corresponding output bits
  // compute the same Boolean function — proven equivalent as field functions
  // by comparing canonical polynomials extracted under each circuit's basis.
  const Gf2k field = Gf2k::make(GetParam());
  const NormalBasis nb = NormalBasis::find(field);

  const WordFunction spec =
      extract_word_function(make_mastrovito_multiplier(field), field);
  ExtractionOptions nb_options;
  nb_options.basis = &nb.basis();
  const WordFunction impl = extract_word_function(
      make_massey_omura_multiplier(field, nb), field, nb_options);

  std::string why;
  EXPECT_TRUE(same_word_function(spec, impl, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sizes, MasseyOmura, ::testing::Values(2, 3, 4, 5, 6, 8, 11, 16));

TEST(MasseyOmura, WrongBasisInterpretationIsCaught) {
  // Reading a Massey–Omura circuit with the polynomial basis yields some
  // *other* polynomial — not A·B (unless the bases coincide, excluded here).
  const Gf2k field = Gf2k::make(5);
  const NormalBasis nb = NormalBasis::find(field);
  const Netlist nl = make_massey_omura_multiplier(field, nb);
  const WordFunction wrong = extract_word_function(nl, field);  // default basis
  const MPoly ab = MPoly::variable(&field, wrong.pool.id("A")) *
                   MPoly::variable(&field, wrong.pool.id("B"));
  EXPECT_NE(wrong.g, ab);
}

TEST(MasseyOmura, NormalBasisSquarerAbstracts) {
  const Gf2k field = Gf2k::make(6);
  const NormalBasis nb = NormalBasis::find(field);
  const Netlist nl = make_normal_basis_squarer(field);
  ExtractionOptions options;
  options.basis = &nb.basis();
  const WordFunction fn = extract_word_function(nl, field, options);
  MPoly expect(&field);
  expect.add_term(Monomial(fn.pool.id("A"), BigUint(2)), field.one());
  EXPECT_EQ(fn.g, expect) << fn.g.to_string(fn.pool);
}

TEST(NormalBasisUnit, NonNormalElementRejected) {
  // 1 is never normal (its orbit is {1}); α in F_4 with x²+x+1 *is* normal.
  const Gf2k f4(Gf2Poly::from_bits(0b111));
  EXPECT_FALSE(NormalBasis::from_element(f4, f4.one()).has_value());
  EXPECT_TRUE(NormalBasis::from_element(f4, f4.alpha()).has_value());
}

}  // namespace
}  // namespace gfa
