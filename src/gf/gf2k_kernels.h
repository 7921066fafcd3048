#pragma once
// Tiered fast-arithmetic kernels behind Gf2k (see gf/gf2k.h).
//
// Every coefficient operation of the abstraction engine — the RATO
// substitution chain, the Frobenius basis change and the O(k³) Cᵀ·Q·C
// transforms of the word lift — bottoms out in F_{2^k} multiplication.
// The generic path (schoolbook carry-less multiply followed by long division
// in Gf2Poly) allocates on every step; at the NIST sizes that is millions of
// heap round-trips on the critical path. This module replaces it with three
// specialized tiers, selected once per field at construction:
//
//   kTable      k <= 16   log/antilog tables over a generator of F_{2^k}^*:
//                         mul/square/inv/alpha_pow are O(1) lookups.
//   kSingleWord k <= 64   elements live in one uint64_t; carry-less multiply
//                         (PCLMUL intrinsic when compiled in, portable
//                         shift-XOR otherwise) plus a fold reduction driven
//                         by the modulus tail exponents.
//   kSparseMod  k  > 64   multi-word elements; schoolbook/CLMUL multiply into
//                         a stack scratch buffer, then an in-place word-level
//                         shift-XOR fold: x^k ≡ Σ x^{t_i} for the tail
//                         exponents t_i of the (trinomial/pentanomial)
//                         modulus. No per-step allocation, no long division.
//   kGeneric    fallback  dense or oversized moduli: Gf2Poly mul + mod.
//
// All kernels are pure w.r.t. the object state after construction, so one
// Gf2kKernels may be shared by any number of threads (the scratch buffers are
// stack-allocated per call).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf2/gf2_poly.h"

namespace gfa {

enum class KernelTier { kTable, kSingleWord, kSparseMod, kGeneric };

const char* to_string(KernelTier tier);

class Gf2kKernels {
 public:
  /// Builds the best tier for the modulus (degree k >= 1, assumed
  /// irreducible — Gf2k validates that separately).
  explicit Gf2kKernels(const Gf2Poly& modulus);

  KernelTier tier() const { return tier_; }
  unsigned k() const { return k_; }

  /// All inputs must be canonical residues (degree < k); Gf2k dispatches
  /// non-canonical operands to the generic path before calling these.
  Gf2Poly mul(const Gf2Poly& a, const Gf2Poly& b) const;
  Gf2Poly square(const Gf2Poly& a) const;
  /// Multiplicative inverse of a non-zero canonical element.
  Gf2Poly inv(const Gf2Poly& a) const;
  /// α^e for the residue α of x.
  Gf2Poly alpha_pow(std::uint64_t e) const;

 private:
  // Single-word helpers (shared by the table builder).
  std::uint64_t mul_u64(std::uint64_t a, std::uint64_t b) const;
  std::uint64_t square_u64(std::uint64_t a) const;
  std::uint64_t inv_u64(std::uint64_t a) const;
  std::uint64_t reduce_u128(std::uint64_t lo, std::uint64_t hi) const;

  // Sparse multi-word helpers.
  Gf2Poly mul_sparse(const Gf2Poly& a, const Gf2Poly& b) const;
  Gf2Poly square_sparse(const Gf2Poly& a) const;
  void fold_in_place(std::uint64_t* buf, std::size_t nwords) const;

  unsigned k_ = 0;
  Gf2Poly modulus_;
  KernelTier tier_ = KernelTier::kGeneric;

  /// Exponents of the modulus strictly below k, descending (the tail T in
  /// P = x^k + T): folding one overflow word is one shift-XOR per entry.
  std::vector<unsigned> tails_;
  std::size_t elem_words_ = 0;  // ceil(k / 64), kSparseMod only

  // kTable state: N = 2^k - 1; antilog_[i] = g^i for a fixed generator g,
  // doubled to 2N entries so sums of two logs index without a modulo;
  // log_[bits] inverts it on [1, 2^k).
  std::uint32_t order_n_ = 0;
  std::uint32_t log_alpha_ = 0;
  std::vector<std::uint32_t> log_;
  std::vector<std::uint32_t> antilog_;
};

}  // namespace gfa
