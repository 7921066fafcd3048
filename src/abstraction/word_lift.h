#pragma once
// Case-2 word-level lift (paper §5, step 3(b)).
//
// After the guided reduction, the remainder r contains only primary-input
// *bit* variables and word variables. The paper closes the gap by a reduced
// Gröbner basis of {r, word-input definitions} ∪ {vanishing polynomials}.
// Because the word-input polynomial f_wi : a_0 + a_1α + … + a_{k-1}α^{k-1} + A
// is linear in the bits, that Gröbner-basis step is exactly a linear basis
// change: applying Frobenius j times to f_wi gives A^{2^j} = Σ_i a_i·α^{i·2^j}
// (bits are F_2-valued, so a_i^{2^j} = a_i), i.e. the power vector
// (A, A², A⁴, …) is M·(a_0 … a_{k-1}) with M_{j,i} = α^{i·2^j}. Its inverse
// C has a closed form (Lidl–Niederreiter, Finite Fields, §2.3): with {β_i}
// the trace-dual basis of the word basis {b_l}, Tr(β_i·b_l) = δ_il, each bit is
// a_i = Tr(β_i·A) = Σ_j β_i^{2^j}·A^{2^j}, so C_{i,j} = β_i^{2^j}.
//
// Substituting this expansion into r and reducing exponents by X^q ≡ X yields
// the canonical word-level polynomial directly. A bilinear fast path handles
// the multiplier-shaped case (all monomials ≤ 2 bits) as matrix triple
// products Cᵀ·Q·C — O(k³) field multiplications instead of O(k⁴).

#include <vector>

#include "abstraction/bitpoly.h"
#include "poly/mpoly.h"
#include "util/exec_control.h"

namespace gfa {

class WordLift {
 public:
  using Elem = Gf2k::Elem;

  /// Builds C from the trace-dual basis in O(k²) field operations: the
  /// trace matrix T_{i,l} = Tr(b_i·b_l) is inverted over F_2, giving
  /// β_i = Σ_l (T⁻¹)_{i,l}·b_l, and C_{i,j} = β_i^{2^j} by repeated squaring.
  /// `basis` gives the word interpretation A = Σ a_i·basis[i]; by default the
  /// polynomial basis {α^i}. A normal basis (gf/normal_basis.h) plugs in here,
  /// which is what makes cross-representation equivalence checks work;
  /// everything downstream is unchanged. Throws std::invalid_argument if
  /// `basis` is not linearly independent. `control` is checkpointed once per
  /// row; expiry unwinds via StatusError.
  explicit WordLift(const Gf2k* field,
                    const std::vector<Elem>* basis = nullptr,
                    const ExecControl* control = nullptr);

  /// The expansion matrix: bit i of a word W satisfies
  /// w_i = Σ_j matrix()[i][j] · W^{2^j}.
  const std::vector<std::vector<Elem>>& matrix() const { return c_; }

  /// Binds the bit variables (LSB-first, exactly k of them) of one input word
  /// to its word variable.
  struct WordBinding {
    VarId word_var;
    std::vector<VarId> bit_vars;
  };

  /// Lifts a multilinear polynomial over bound input bits into the canonical
  /// polynomial over the word variables. Every bit variable occurring in `r`
  /// must be bound. `pool` supplies variable kinds for vanishing reduction.
  MPoly lift(const BitPoly& r, const std::vector<WordBinding>& words,
             const VarPool& pool, const ExecControl* control = nullptr) const;

 private:
  MPoly lift_bilinear(const BitPoly& r, const std::vector<WordBinding>& words,
                      const VarPool& pool, const ExecControl* control) const;
  MPoly lift_general(const BitPoly& r, const std::vector<WordBinding>& words,
                     const VarPool& pool, const ExecControl* control) const;

  const Gf2k* field_;
  std::vector<std::vector<Elem>> c_;  // k×k inverse basis-change matrix
};

}  // namespace gfa
