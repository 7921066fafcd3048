#include "gf/normal_basis.h"

#include <cassert>

namespace gfa {

namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

NormalBasis::NormalBasis(const Gf2k* field, std::vector<Gf2k::Elem> basis,
                         std::vector<Gf2Poly> inverse_rows)
    : field_(field), basis_(std::move(basis)), inverse_rows_(std::move(inverse_rows)) {
  const unsigned k = field_->k();
  lambda_.assign(k, std::vector<Gf2Poly>(k));
  for (unsigned i = 0; i < k; ++i)
    for (unsigned j = 0; j < k; ++j)
      lambda_[i][j] = to_coords(field_->mul(basis_[i], basis_[j]));
}

std::optional<NormalBasis> NormalBasis::from_element(const Gf2k& field,
                                                     const Gf2k::Elem& beta) {
  const unsigned k = field.k();
  std::vector<Gf2k::Elem> basis(k);
  basis[0] = field.reduce(beta);
  for (unsigned i = 1; i < k; ++i) basis[i] = field.square(basis[i - 1]);

  // Coordinate matrix: row i = polynomial coordinates of β^{2^i}. Normal
  // coordinates a satisfy  polycoords(x) = Mᵀ·a, i.e. a = (Mᵀ)⁻¹·polycoords.
  // Build Mᵀ rows directly: row r, bit i = coefficient of α^r in basis[i].
  std::vector<Gf2Poly> mt(k);
  for (unsigned r = 0; r < k; ++r)
    for (unsigned i = 0; i < k; ++i)
      if (basis[i].coeff(r)) mt[r].set_coeff(i, true);
  std::vector<Gf2Poly> inv = invert_gf2(std::move(mt), k);
  if (inv.empty()) return std::nullopt;
  return NormalBasis(&field, std::move(basis), std::move(inv));
}

NormalBasis NormalBasis::find(const Gf2k& field, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (int attempt = 0; attempt < 100000; ++attempt) {
    Gf2Poly candidate;
    for (unsigned i = 0; i < field.k(); ++i)
      if (splitmix(state) & 1u) candidate.set_coeff(i, true);
    if (candidate.is_zero()) continue;
    if (auto nb = from_element(field, candidate)) return *std::move(nb);
  }
  assert(false && "no normal element found (should be impossible)");
  return *from_element(field, field.one());  // unreachable
}

Gf2Poly NormalBasis::to_coords(const Gf2k::Elem& a) const {
  // a_i = <inverse_rows_[i], polycoords(a)> over GF(2).
  Gf2Poly out;
  for (unsigned i = 0; i < field_->k(); ++i) {
    const Gf2Poly dot = inverse_rows_[i];
    // Parity of the AND of the two bit vectors.
    int parity = 0;
    const auto& aw = a.words();
    const auto& dw = dot.words();
    const std::size_t n = std::min(aw.size(), dw.size());
    for (std::size_t w = 0; w < n; ++w)
      parity ^= __builtin_parityll(aw[w] & dw[w]);
    if (parity) out.set_coeff(i, true);
  }
  return out;
}

Gf2k::Elem NormalBasis::from_coords(const Gf2Poly& coords) const {
  Gf2k::Elem out;
  for (unsigned i = 0; i < field_->k(); ++i)
    if (coords.coeff(i)) out += basis_[i];
  return out;
}

}  // namespace gfa
