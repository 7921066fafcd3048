#include "abstraction/word_lift.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "util/parallel_for.h"

namespace gfa {

WordLift::WordLift(const Gf2k* field, const std::vector<Elem>* basis,
                   const ExecControl* control)
    : field_(field) {
  const obs::TraceSpan span("frobenius_basis_change", "abstraction");
  const unsigned k = field_->k();
  assert((basis == nullptr || basis->size() == k) &&
         "word basis must have k elements");
  std::vector<Elem> b(k);
  for (unsigned i = 0; i < k; ++i)
    b[i] = basis != nullptr ? field_->reduce((*basis)[i])
                            : field_->alpha_pow(std::uint64_t{i});

  // Bit m of `trace_mask` is Tr(α^m) (k² squarings), so Tr(x) is the parity
  // of x's polynomial coordinates under the mask.
  Gf2Poly trace_mask;
  for (unsigned m = 0; m < k; ++m) {
    Elem x = field_->alpha_pow(std::uint64_t{m});
    Elem tr = x;
    for (unsigned j = 1; j < k; ++j) {
      x = field_->square(x);
      tr += x;
    }
    assert((tr.is_zero() || tr.is_one()) && "trace must lie in F_2");
    if (tr.is_one()) trace_mask.set_coeff(m, true);
  }
  const auto trace = [&](const Elem& x) {
    const auto& xw = x.words();
    const auto& tw = trace_mask.words();
    int parity = 0;
    for (std::size_t w = 0; w < std::min(xw.size(), tw.size()); ++w)
      parity ^= __builtin_parityll(xw[w] & tw[w]);
    return parity != 0;
  };

  // The trace matrix T[i][l] = Tr(b_i·b_l), as GF(2) bit rows (symmetric,
  // k²/2 products). It is invertible exactly when b is a basis.
  std::vector<Gf2Poly> t(k);
  for (unsigned i = 0; i < k; ++i) {
    throw_if_stopped(control);
    for (unsigned l = i; l < k; ++l) {
      if (!trace(field_->mul(b[i], b[l]))) continue;
      t[i].set_coeff(l, true);
      t[l].set_coeff(i, true);
    }
  }
  const std::vector<Gf2Poly> t_inv = invert_gf2(std::move(t), k);
  if (t_inv.empty())
    throw std::invalid_argument("word basis is not linearly independent");

  // β_i = Σ_l (T⁻¹)[i][l]·b_l is the trace-dual basis: Tr(β_i·b_l) = δ_il,
  // so a_i = Tr(β_i·A) = Σ_j β_i^{2^j}·A^{2^j}, i.e. C[i][j] = β_i^{2^j}.
  c_.assign(k, std::vector<Elem>(k));
  for (unsigned i = 0; i < k; ++i) {
    throw_if_stopped(control);
    Elem beta;
    for (unsigned l = 0; l < k; ++l)
      if (t_inv[i].coeff(l)) beta += b[l];
    for (unsigned j = 0; j < k; ++j) {
      c_[i][j] = beta;
      beta = field_->square(beta);
    }
  }
}

MPoly WordLift::lift(const BitPoly& r, const std::vector<WordBinding>& words,
                     const VarPool& pool, const ExecControl* control) const {
  for (const WordBinding& w : words)
    assert(w.bit_vars.size() == field_->k() && "word width must equal k");
  if (r.max_monomial_size() <= 2) return lift_bilinear(r, words, pool, control);
  return lift_general(r, words, pool, control);
}

namespace {

struct BitLocation {
  std::size_t word_index;
  unsigned bit_index;
};

std::unordered_map<VarId, BitLocation> index_bits(
    const std::vector<WordLift::WordBinding>& words) {
  std::unordered_map<VarId, BitLocation> loc;
  for (std::size_t w = 0; w < words.size(); ++w)
    for (unsigned i = 0; i < words[w].bit_vars.size(); ++i)
      loc.emplace(words[w].bit_vars[i], BitLocation{w, i});
  return loc;
}

}  // namespace

MPoly WordLift::lift_bilinear(const BitPoly& r,
                              const std::vector<WordBinding>& words,
                              const VarPool& pool,
                              const ExecControl* control) const {
  const unsigned k = field_->k();
  const auto loc = index_bits(words);

  Elem constant = field_->zero();
  // Linear part per word; quadratic part per (word, word) pair with the
  // convention word_index1 <= word_index2 (and bit order as in the monomial).
  std::map<std::size_t, std::vector<Elem>> linear;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::vector<Elem>>> quad;

  for (const auto& [m, c] : r.terms()) {
    if (m.empty()) {
      constant += c;
    } else if (m.size() == 1) {
      const auto it = loc.find(m[0]);
      if (it == loc.end()) throw std::logic_error("unbound bit variable in remainder");
      // Find before emplace: a k-vector (k×k matrix below) temporary per
      // term would build O(k²) elements per word (O(k⁴) per word pair).
      auto vit = linear.find(it->second.word_index);
      if (vit == linear.end())
        vit = linear.emplace(it->second.word_index, std::vector<Elem>(k)).first;
      vit->second[it->second.bit_index] += c;
    } else {
      const auto it0 = loc.find(m[0]);
      const auto it1 = loc.find(m[1]);
      if (it0 == loc.end() || it1 == loc.end())
        throw std::logic_error("unbound bit variable in remainder");
      BitLocation l0 = it0->second, l1 = it1->second;
      if (l0.word_index > l1.word_index) std::swap(l0, l1);
      const auto key = std::make_pair(l0.word_index, l1.word_index);
      auto qit = quad.find(key);
      if (qit == quad.end())
        qit = quad.emplace(key, std::vector<std::vector<Elem>>(
                                    k, std::vector<Elem>(k))).first;
      qit->second[l0.bit_index][l1.bit_index] += c;
    }
  }

  MPoly out(field_);
  out.add_term(Monomial(), constant);

  // Linear: Σ_i L[i]·w_i = Σ_j (Σ_i L[i]·C[i][j]) · W^{2^j}. The k output
  // coefficients are independent (k² multiplies each word), so they run on
  // the pool; terms merge sequentially in j order afterwards.
  for (const auto& [w, vec] : linear) {
    const VarId wv = words[w].word_var;
    std::vector<Elem> coeffs(k);
    parallel_for(k, [&](std::size_t j) {
      Elem s = field_->zero();
      for (unsigned i = 0; i < k; ++i) {
        if (!vec[i].is_zero() && !c_[i][j].is_zero())
          s += field_->mul(vec[i], c_[i][j]);
      }
      coeffs[j] = s;
    }, control);
    for (unsigned j = 0; j < k; ++j)
      out.add_term(Monomial(wv, BigUint::pow2(j)), coeffs[j]);
  }

  // Quadratic: Σ Q[i][l]·u_i·v_l = Σ_{s,t} (Cᵀ·Q·C)[s][t] · U^{2^s}·V^{2^t}.
  // Both transforms are O(k³) field multiplies — ~1.9·10⁸ at k = 571 — and
  // embarrassingly parallel by row, so they run on the pool; each task only
  // touches its own output row and the results are merged sequentially.
  for (const auto& [pair, q] : quad) {
    throw_if_stopped(control);
    const VarId uv = words[pair.first].word_var;
    const VarId vv = words[pair.second].word_var;
    // E = Q·C, then D = Cᵀ·E.
    std::vector<std::vector<Elem>> e(k, std::vector<Elem>(k));
    parallel_for(k, [&](std::size_t i) {
      for (unsigned l = 0; l < k; ++l) {
        if (q[i][l].is_zero()) continue;
        for (unsigned t = 0; t < k; ++t)
          if (!c_[l][t].is_zero()) e[i][t] += field_->mul(q[i][l], c_[l][t]);
      }
    }, control);
    std::vector<std::vector<std::pair<Monomial, Elem>>> rows(k);
    parallel_for(k, [&](std::size_t s) {
      for (unsigned t = 0; t < k; ++t) {
        Elem d = field_->zero();
        for (unsigned i = 0; i < k; ++i)
          if (!c_[i][s].is_zero() && !e[i][t].is_zero())
            d += field_->mul(c_[i][s], e[i][t]);
        if (d.is_zero()) continue;
        Monomial mono =
            uv == vv
                ? Monomial(uv, field_->reduce_exponent(BigUint::pow2(s) +
                                                       BigUint::pow2(t)))
                : Monomial::from_pairs({{uv, BigUint::pow2(static_cast<unsigned>(s))},
                                        {vv, BigUint::pow2(t)}});
        rows[s].emplace_back(std::move(mono), std::move(d));
      }
    }, control);
    for (const auto& row : rows)
      for (const auto& [mono, d] : row) out.add_term(mono, d);
  }
  return out.normalized_vanishing(pool);
}

MPoly WordLift::lift_general(const BitPoly& r,
                             const std::vector<WordBinding>& words,
                             const VarPool& pool,
                             const ExecControl* control) const {
  const unsigned k = field_->k();
  const auto loc = index_bits(words);

  // Per-bit expansion polynomials w_i = Σ_j C[i][j]·W^{2^j}, built up front
  // (serially — k terms per distinct bit) so the expensive per-term products
  // below can share them read-only across pool threads.
  std::unordered_map<VarId, MPoly> expansion;
  for (const auto& [m, c] : r.terms()) {
    for (VarId v : m) {
      if (expansion.count(v)) continue;
      const auto lit = loc.find(v);
      if (lit == loc.end())
        throw std::logic_error("unbound bit variable in remainder");
      MPoly p(field_);
      const VarId wv = words[lit->second.word_index].word_var;
      for (unsigned j = 0; j < k; ++j) {
        const Elem& coeff = c_[lit->second.bit_index][j];
        if (!coeff.is_zero()) p.add_term(Monomial(wv, BigUint::pow2(j)), coeff);
      }
      expansion.emplace(v, std::move(p));
    }
  }

  // Each remainder term expands independently (a product of its bits'
  // expansion polynomials); terms are strided over width-many chunks, each
  // chunk accumulating into a private MPoly, merged in fixed chunk order.
  // Coefficient addition in F_{2^k} is exact, so the result matches the
  // serial accumulation bit for bit.
  std::vector<const BitPoly::TermMap::value_type*> terms;
  terms.reserve(r.terms().size());
  for (const auto& term : r.terms()) terms.push_back(&term);
  const std::size_t chunks =
      std::min<std::size_t>(parallel_thread_count(), terms.size());
  std::vector<MPoly> partial(chunks, MPoly(field_));
  parallel_for(chunks, [&](std::size_t chunk) {
    MPoly acc_sum(field_);
    for (std::size_t i = chunk; i < terms.size(); i += chunks) {
      throw_if_stopped(control);
      const auto& [m, c] = *terms[i];
      MPoly acc = MPoly::constant(field_, c);
      for (VarId v : m)
        acc = (acc * expansion.at(v)).normalized_vanishing(pool);
      acc_sum += acc;
    }
    partial[chunk] = std::move(acc_sum);
  }, control);
  MPoly out(field_);
  for (MPoly& p : partial) out += p;
  return out.normalized_vanishing(pool);
}

}  // namespace gfa
