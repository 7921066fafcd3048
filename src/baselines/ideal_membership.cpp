#include "baselines/ideal_membership.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "abstraction/rato.h"
#include "abstraction/rewriter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gfa {

namespace {

/// Bit-blasts one word variable raised to exponent e: (Σ_i α^i·w_i)^e over
/// the multilinear engine. Squaring is Frobenius-linear modulo J_0, so the
/// square-and-multiply chain stays polynomial-sized for practical specs.
BitPoly word_power_bits(const Gf2k& field, const Word& word, const BigUint& e) {
  BitPoly lin(&field);
  for (std::size_t i = 0; i < word.bits.size(); ++i)
    lin.add_term(BitMono{word.bits[i]},
                 field.alpha_pow(static_cast<std::uint64_t>(i)));
  BitPoly result = BitPoly::constant(&field, field.one());
  for (int i = e.bit_length(); i >= 0; --i) {
    result = result * result;  // cross terms cancel in char 2
    if (e.bit(static_cast<unsigned>(i))) result = result * lin;
  }
  return result;
}

}  // namespace

IdealMembershipResult verify_by_ideal_membership(
    const Netlist& circuit, const Gf2k& field,
    const std::function<MPoly(const Gf2k* field, VarPool& pool)>& spec_builder,
    const IdealMembershipOptions& options) {
  const obs::TraceSpan span("ideal_membership", "baseline");
  GFA_COUNT("ideal_membership.runs", 1);
  const Word* out_word = output_word(circuit);
  if (out_word == nullptr) throw std::invalid_argument("no output word declared");

  VarPool pool;
  std::unordered_map<VarId, const Word*> word_of_var;
  for (const Word& w : circuit.words()) {
    const VarId v = pool.intern(w.name, VarKind::kWord);
    word_of_var.emplace(v, &w);
  }
  const MPoly g = spec_builder(&field, pool);

  std::vector<bool> substitutable(circuit.num_nets());
  for (NetId n = 0; n < circuit.num_nets(); ++n)
    substitutable[n] = circuit.gate(n).type != GateType::kInput;

  IdealMembershipResult res;
  BackwardRewriter rw(std::move(substitutable), options.max_terms,
                      options.control);

  // Miter polynomial f : Z + G(A, B, …), bit-blasted on both sides.
  for (std::size_t j = 0; j < out_word->bits.size(); ++j)
    rw.add(BitMono{out_word->bits[j]},
           field.alpha_pow(static_cast<std::uint64_t>(j)));
  for (const auto& [mono, coeff] : g.terms()) {
    throw_if_stopped(options.control);
    BitPoly expanded = BitPoly::constant(&field, coeff);
    for (const auto& [v, e] : mono.factors()) {
      auto it = word_of_var.find(v);
      if (it == word_of_var.end())
        throw std::invalid_argument("spec mentions a non-word variable");
      expanded = expanded * word_power_bits(field, *it->second, e);
    }
    rw.add(expanded);
  }
  res.peak_terms = rw.num_terms();

  // Division chain: substitute every gate tail in RATO order.
  {
    const obs::TraceSpan chain_span("reduction_chain", "baseline");
    FlatTail tail;
    for (NetId n : rato_net_order(circuit)) {
      if (circuit.gate(n).type == GateType::kInput) continue;
      throw_if_stopped(options.control);
      fill_gate_tail(circuit.gate(n), tail);
      rw.substitute(n, tail);
      ++res.substitutions;
      res.peak_terms = std::max(res.peak_terms, rw.num_terms());
    }
  }
  GFA_COUNT("reduction_steps", res.substitutions);

  res.residual_terms = rw.num_terms();
  res.is_member = rw.terms().empty();
  return res;
}

IdealMembershipResult verify_multiplier_by_ideal_membership(
    const Netlist& circuit, const Gf2k& field,
    const IdealMembershipOptions& options) {
  return verify_by_ideal_membership(
      circuit, field,
      [](const Gf2k* f, VarPool& pool) {
        return MPoly::term(
            f, f->one(),
            Monomial::from_pairs(
                {{pool.id("A"), BigUint(1)}, {pool.id("B"), BigUint(1)}}));
      },
      options);
}

}  // namespace gfa
