#include "gf2/gf2_poly.h"

#include <bit>
#include <cassert>
#include <utility>

namespace gfa {

namespace {
constexpr unsigned kWordBits = 64;
}  // namespace

void Gf2Poly::trim() {
  while (!words_.empty() && words_.back() == 0) words_.pop_back();
}

Gf2Poly Gf2Poly::from_bits(std::uint64_t bits) {
  Gf2Poly p;
  if (bits != 0) p.words_.push_back(bits);
  return p;
}

Gf2Poly Gf2Poly::from_words(const std::uint64_t* words, std::size_t n) {
  Gf2Poly p;
  p.words_.assign(words, words + n);
  p.trim();
  return p;
}

Gf2Poly Gf2Poly::from_exponents(std::initializer_list<unsigned> exps) {
  Gf2Poly p;
  for (unsigned e : exps) p.set_coeff(e, !p.coeff(e));
  return p;
}

Gf2Poly Gf2Poly::from_exponents(const std::vector<unsigned>& exps) {
  Gf2Poly p;
  for (unsigned e : exps) p.set_coeff(e, !p.coeff(e));
  return p;
}

Gf2Poly Gf2Poly::monomial(unsigned e) {
  Gf2Poly p;
  p.set_coeff(e, true);
  return p;
}

int Gf2Poly::degree() const {
  if (words_.empty()) return -1;
  const std::uint64_t top = words_.back();
  return static_cast<int>((words_.size() - 1) * kWordBits +
                          (kWordBits - 1 - std::countl_zero(top)));
}

bool Gf2Poly::coeff(unsigned i) const {
  const std::size_t w = i / kWordBits;
  if (w >= words_.size()) return false;
  return (words_[w] >> (i % kWordBits)) & 1u;
}

void Gf2Poly::set_coeff(unsigned i, bool value) {
  const std::size_t w = i / kWordBits;
  if (value) {
    if (w >= words_.size()) words_.resize(w + 1, 0);
    words_[w] |= std::uint64_t{1} << (i % kWordBits);
  } else {
    if (w < words_.size()) {
      words_[w] &= ~(std::uint64_t{1} << (i % kWordBits));
      trim();
    }
  }
}

int Gf2Poly::weight() const {
  int n = 0;
  for (std::uint64_t w : words_) n += std::popcount(w);
  return n;
}

Gf2Poly Gf2Poly::operator+(const Gf2Poly& rhs) const {
  Gf2Poly out = *this;
  out += rhs;
  return out;
}

Gf2Poly& Gf2Poly::operator+=(const Gf2Poly& rhs) {
  if (rhs.words_.size() > words_.size()) words_.resize(rhs.words_.size(), 0);
  for (std::size_t i = 0; i < rhs.words_.size(); ++i) words_[i] ^= rhs.words_[i];
  trim();
  return *this;
}

Gf2Poly Gf2Poly::shifted_up(unsigned n) const {
  if (is_zero() || n == 0) {
    Gf2Poly out = *this;
    return out;
  }
  const unsigned word_shift = n / kWordBits;
  const unsigned bit_shift = n % kWordBits;
  Gf2Poly out;
  out.words_.assign(words_.size() + word_shift + 1, 0);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[i + word_shift] |= bit_shift ? (words_[i] << bit_shift) : words_[i];
    if (bit_shift != 0)
      out.words_[i + word_shift + 1] |= words_[i] >> (kWordBits - bit_shift);
  }
  out.trim();
  return out;
}

Gf2Poly Gf2Poly::operator*(const Gf2Poly& rhs) const {
  if (is_zero() || rhs.is_zero()) return {};
  // Schoolbook carry-less multiply, word-by-word with 4-bit windowing on the
  // left operand to amortize shifts.
  const std::vector<std::uint64_t>& a = words_;
  const std::vector<std::uint64_t>& b = rhs.words_;
  Gf2Poly out;
  out.words_.assign(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ai = a[i];
    while (ai != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(ai));
      ai &= ai - 1;
      // XOR b << (64*i + bit) into out.
      for (std::size_t j = 0; j < b.size(); ++j) {
        const std::uint64_t w = b[j];
        out.words_[i + j] ^= bit ? (w << bit) : w;
        if (bit != 0) out.words_[i + j + 1] ^= w >> (kWordBits - bit);
      }
    }
  }
  out.trim();
  return out;
}

Gf2Poly Gf2Poly::squared() const {
  // Spread each bit to the even positions: (sum a_i x^i)^2 = sum a_i x^{2i}.
  auto spread32 = [](std::uint32_t v) {
    std::uint64_t x = v;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFull;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFull;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0Full;
    x = (x | (x << 2)) & 0x3333333333333333ull;
    x = (x | (x << 1)) & 0x5555555555555555ull;
    return x;
  };
  Gf2Poly out;
  out.words_.assign(words_.size() * 2, 0);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    out.words_[2 * i] = spread32(static_cast<std::uint32_t>(words_[i]));
    out.words_[2 * i + 1] = spread32(static_cast<std::uint32_t>(words_[i] >> 32));
  }
  out.trim();
  return out;
}

Gf2Poly::DivMod Gf2Poly::divmod(const Gf2Poly& divisor) const {
  assert(!divisor.is_zero() && "division by zero polynomial");
  DivMod dm;
  dm.remainder = *this;
  const int dd = divisor.degree();
  int rd = dm.remainder.degree();
  while (rd >= dd) {
    const unsigned shift = static_cast<unsigned>(rd - dd);
    dm.quotient.set_coeff(shift, true);
    dm.remainder += divisor.shifted_up(shift);
    rd = dm.remainder.degree();
  }
  return dm;
}

Gf2Poly Gf2Poly::mod(const Gf2Poly& divisor) const {
  assert(!divisor.is_zero() && "division by zero polynomial");
  Gf2Poly r = *this;
  const int dd = divisor.degree();
  int rd = r.degree();
  while (rd >= dd) {
    r += divisor.shifted_up(static_cast<unsigned>(rd - dd));
    rd = r.degree();
  }
  return r;
}

Gf2Poly Gf2Poly::gcd(Gf2Poly a, Gf2Poly b) {
  while (!b.is_zero()) {
    Gf2Poly r = a.mod(b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Gf2Poly::ExtGcd Gf2Poly::ext_gcd(const Gf2Poly& a, const Gf2Poly& b) {
  // Iterative extended Euclid; all arithmetic is char-2 so signs vanish.
  Gf2Poly r0 = a, r1 = b;
  Gf2Poly s0 = Gf2Poly::one(), s1;
  Gf2Poly t0, t1 = Gf2Poly::one();
  while (!r1.is_zero()) {
    DivMod dm = r0.divmod(r1);
    Gf2Poly r2 = dm.remainder;
    Gf2Poly s2 = s0 + dm.quotient * s1;
    Gf2Poly t2 = t0 + dm.quotient * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s1 = std::move(s2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  return {r0, s0, t0};
}

Gf2Poly Gf2Poly::mulmod(const Gf2Poly& a, const Gf2Poly& b, const Gf2Poly& m) {
  return (a * b).mod(m);
}

Gf2Poly Gf2Poly::frobenius_pow(Gf2Poly a, unsigned n, const Gf2Poly& m) {
  a = a.mod(m);
  for (unsigned i = 0; i < n; ++i) a = a.squared().mod(m);
  return a;
}

std::string Gf2Poly::to_string() const {
  if (is_zero()) return "0";
  std::string out;
  for (int i = degree(); i >= 0; --i) {
    if (!coeff(static_cast<unsigned>(i))) continue;
    if (!out.empty()) out += " + ";
    if (i == 0)
      out += "1";
    else if (i == 1)
      out += "x";
    else
      out += "x^" + std::to_string(i);
  }
  return out;
}

std::vector<Gf2Poly> invert_gf2(std::vector<Gf2Poly> rows, unsigned k) {
  std::vector<Gf2Poly> inv(k);
  for (unsigned i = 0; i < k; ++i) inv[i] = Gf2Poly::monomial(i);
  for (unsigned col = 0; col < k; ++col) {
    unsigned pivot = col;
    while (pivot < k && !rows[pivot].coeff(col)) ++pivot;
    if (pivot == k) return {};
    std::swap(rows[pivot], rows[col]);
    std::swap(inv[pivot], inv[col]);
    for (unsigned r = 0; r < k; ++r) {
      if (r != col && rows[r].coeff(col)) {
        rows[r] += rows[col];
        inv[r] += inv[col];
      }
    }
  }
  return inv;
}

std::size_t Gf2Poly::hash() const {
  // FNV-1a over the packed words.
  std::size_t h = 1469598103934665603ull;
  for (std::uint64_t w : words_) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace gfa
