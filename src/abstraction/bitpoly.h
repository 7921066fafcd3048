#pragma once
// Multilinear polynomials over bit variables with F_{2^k} coefficients.
//
// This is the specialized representation behind the paper's §5 optimization.
// Under RATO every gate polynomial is x + tail(x) with a unique leading bit
// variable, so the whole Gröbner-basis computation collapses into a chain of
// substitutions ("one S-polynomial, then division"). Those substitutions only
// ever touch *multilinear* monomials: the vanishing polynomials x² - x of J_0
// are applied eagerly by unioning variable sets, so a monomial is just a
// sorted set of VarIds and a coefficient in F_{2^k}.
//
// Compared to the general MPoly engine this drops: exponents (always 1),
// term-order bookkeeping (substitution order comes from the circuit), and
// ordered storage (a hash map suffices) — which is what makes 100k-gate
// multipliers abstractable.
//
// Monomials are PackedMono (two inline words with an arena spill, see
// packed_mono.h) keyed into a flat open-addressing term map (term_map.h).
// The word-level lift (word_lift) keeps the generic MPoly ring with BigUint
// exponents.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/packed_mono.h"
#include "abstraction/term_map.h"
#include "gf/gf2k.h"
#include "poly/varpool.h"

namespace gfa {

/// A multilinear monomial: strictly increasing VarIds, inline in two words.
using BitMono = PackedMono;

class BitPoly {
 public:
  using Elem = Gf2k::Elem;
  using TermMap = PackedTermMap<Elem>;

  explicit BitPoly(const Gf2k* field) : field_(field) {}

  static BitPoly constant(const Gf2k* field, Elem c) {
    BitPoly p(field);
    p.add_term(BitMono{}, c);
    return p;
  }
  static BitPoly variable(const Gf2k* field, VarId v) {
    BitPoly p(field);
    p.add_term(BitMono{v}, field->one());
    return p;
  }

  const Gf2k& field() const { return *field_; }

  bool is_zero() const { return terms_.empty(); }
  std::size_t num_terms() const { return terms_.size(); }

  /// Sizes the term map for `n` expected terms up front; callers that know
  /// the operand term counts (operator*, bulk add loops) pass the product or
  /// sum so the map never rehashes mid-accumulation.
  void reserve(std::size_t n) { terms_.reserve(n); }

  /// Adds c·m, cancelling to zero where coefficients collide (char 2).
  void add_term(BitMono m, const Elem& c) {
    if (c.is_zero()) return;
    auto [it, inserted] = terms_.try_emplace(std::move(m), c);
    if (!inserted) {
      it->second += c;  // field add == GF(2)[x] XOR
      if (it->second.is_zero()) terms_.erase(it);
    }
  }

  Elem coeff(const BitMono& m) const {
    auto it = terms_.find(m);
    return it == terms_.end() ? field_->zero() : it->second;
  }

  BitPoly operator+(const BitPoly& rhs) const {
    BitPoly out = *this;
    out += rhs;
    return out;
  }
  BitPoly& operator+=(const BitPoly& rhs) {
    reserve(terms_.size() + rhs.terms_.size());
    for (const auto& [m, c] : rhs.terms_) add_term(m, c);
    return *this;
  }
  /// Multilinear product; pre-reserves for the worst-case |lhs|·|rhs| fanout
  /// (capped — cancellation usually keeps the result far smaller).
  BitPoly operator*(const BitPoly& rhs) const {
    BitPoly out(field_);
    out.reserve(std::min<std::size_t>(
        terms_.size() * rhs.terms_.size(), std::size_t{1} << 16));
    for (const auto& [ma, ca] : terms_)
      for (const auto& [mb, cb] : rhs.terms_)
        out.add_term(packed_mono_mul(ma, mb), field_->mul(ca, cb));
    return out;
  }
  BitPoly scaled(const Elem& c) const {
    BitPoly out(field_);
    if (c.is_zero()) return out;
    out.reserve(terms_.size());
    for (const auto& [m, coeff] : terms_) out.add_term(m, field_->mul(coeff, c));
    return out;
  }

  /// Maximum number of variables in any monomial (0 for constants).
  std::size_t max_monomial_size() const {
    std::size_t mx = 0;
    for (const auto& [m, c] : terms_) mx = std::max(mx, m.size());
    return mx;
  }

  /// Evaluates with every bit variable set to the given 0/1 value.
  Elem eval(const std::vector<bool>& assignment) const;

  const TermMap& terms() const { return terms_; }

  bool operator==(const BitPoly& rhs) const { return terms_ == rhs.terms_; }

  std::string to_string(const VarPool& pool) const;

 private:
  const Gf2k* field_;
  TermMap terms_;
};

}  // namespace gfa
