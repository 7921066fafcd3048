#pragma once
// Dense polynomials over GF(2), stored as packed bit vectors.
//
// A Gf2Poly represents an element of GF(2)[x]. Bit i of the packed storage is
// the coefficient of x^i. This is the substrate on which the extension fields
// F_{2^k} (src/gf/gf2k.h) are constructed: field elements are residues of
// GF(2)[x] modulo an irreducible polynomial P(x) of degree k.
//
// The representation is canonical: the top word never carries bits above
// degree(), and the zero polynomial has empty storage. All arithmetic keeps
// this invariant, so operator== is a plain vector compare.

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace gfa {

class Gf2Poly {
 public:
  /// The zero polynomial.
  Gf2Poly() = default;

  /// Polynomial whose coefficient bits are the bits of `bits` (bit i -> x^i).
  static Gf2Poly from_bits(std::uint64_t bits);

  /// Polynomial from `n` packed little-endian words (bit i of word j is the
  /// coefficient of x^(64j+i)); trailing zero words are trimmed.
  static Gf2Poly from_words(const std::uint64_t* words, std::size_t n);

  /// Polynomial with 1-coefficients exactly at the listed exponents.
  /// Duplicate exponents cancel in pairs (GF(2) addition).
  static Gf2Poly from_exponents(std::initializer_list<unsigned> exps);
  static Gf2Poly from_exponents(const std::vector<unsigned>& exps);

  /// The monomial x^e.
  static Gf2Poly monomial(unsigned e);

  /// Constant 1.
  static Gf2Poly one() { return from_bits(1); }

  /// Degree of the polynomial; -1 for the zero polynomial.
  int degree() const;

  bool is_zero() const { return words_.empty(); }
  bool is_one() const { return words_.size() == 1 && words_[0] == 1; }

  /// Coefficient of x^i (0 or 1). Out-of-range exponents read as 0.
  bool coeff(unsigned i) const;

  /// Set the coefficient of x^i.
  void set_coeff(unsigned i, bool value);

  /// Number of nonzero coefficients.
  int weight() const;

  /// Addition and subtraction coincide over GF(2): coefficient-wise XOR.
  Gf2Poly operator+(const Gf2Poly& rhs) const;
  Gf2Poly& operator+=(const Gf2Poly& rhs);

  /// Carry-less (schoolbook) product.
  Gf2Poly operator*(const Gf2Poly& rhs) const;

  /// x^2-substitution: returns p(x)^2, i.e. coefficients spread to even slots.
  Gf2Poly squared() const;

  /// Multiply by x^n (left shift of the coefficient vector).
  Gf2Poly shifted_up(unsigned n) const;

  /// Quotient and remainder of polynomial division by `divisor` (non-zero).
  struct DivMod;  // defined after the class (holds Gf2Poly values)
  DivMod divmod(const Gf2Poly& divisor) const;

  /// Remainder modulo `divisor`.
  Gf2Poly mod(const Gf2Poly& divisor) const;

  /// Greatest common divisor (monic by construction over GF(2)).
  static Gf2Poly gcd(Gf2Poly a, Gf2Poly b);

  /// Extended gcd: returns g = gcd(a, b) and s, t with s*a + t*b = g.
  struct ExtGcd;  // defined after the class
  static ExtGcd ext_gcd(const Gf2Poly& a, const Gf2Poly& b);

  /// (a * b) mod m, for m of degree >= 1.
  static Gf2Poly mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& m);

  /// a^(2^n) mod m via iterated squaring (Frobenius power).
  static Gf2Poly frobenius_pow(Gf2Poly a, unsigned n, const Gf2Poly& m);

  bool operator==(const Gf2Poly& rhs) const = default;

  /// Human-readable form, e.g. "x^3 + x + 1"; "0" for the zero polynomial.
  std::string to_string() const;

  /// Raw packed words (bit i of word j is the coefficient of x^(64j+i)).
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Hash suitable for unordered containers.
  std::size_t hash() const;

 private:
  void trim();
  std::vector<std::uint64_t> words_;
};

struct Gf2Poly::DivMod {
  Gf2Poly quotient;
  Gf2Poly remainder;
};

struct Gf2Poly::ExtGcd {
  Gf2Poly g;
  Gf2Poly s;
  Gf2Poly t;
};

/// Inverts a k×k matrix over GF(2) given as bit rows (bit j of rows[i] is
/// M[i][j]) by Gauss–Jordan elimination; the result uses the same layout.
/// Returns empty when the matrix is singular.
std::vector<Gf2Poly> invert_gf2(std::vector<Gf2Poly> rows, unsigned k);

}  // namespace gfa
