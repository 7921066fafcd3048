#include "abstraction/equivalence.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace gfa {

namespace {

/// Remaps f.g's word variables into `target` ids by name. Returns false if
/// some word of f has no counterpart.
bool remap_into(const WordFunction& f, const VarPool& target, MPoly* out) {
  std::map<VarId, VarId> vmap;
  for (const std::string& w : f.input_words) {
    if (!target.contains(w)) return false;
    vmap.emplace(f.pool.id(w), target.id(w));
  }
  *out = MPoly(&f.g.field());
  for (const auto& [mono, coeff] : f.g.terms()) {
    std::vector<std::pair<VarId, BigUint>> pairs;
    pairs.reserve(mono.factors().size());
    for (const auto& [v, e] : mono.factors()) {
      auto it = vmap.find(v);
      if (it == vmap.end()) return false;
      pairs.emplace_back(it->second, e);
    }
    out->add_term(Monomial::from_pairs(std::move(pairs)), coeff);
  }
  return true;
}

std::string describe_difference(const Gf2k& field, const VarPool& pool,
                                const MPoly& g1, const MPoly& g2) {
  MPoly diff = g1 + g2;  // char 2: the symmetric difference of coefficients
  std::string out = "coefficients differ on " +
                    std::to_string(diff.num_terms()) + " monomial(s): ";
  std::size_t shown = 0;
  for (const auto& [mono, c] : diff.terms()) {
    if (shown++ == 4) {
      out += "…";
      break;
    }
    if (shown > 1) out += ", ";
    out += mono.to_string(pool) + " [spec " + field.to_string(g1.coeff(mono)) +
           " vs impl " + field.to_string(g2.coeff(mono)) + "]";
  }
  return out;
}

}  // namespace

bool same_word_function(const WordFunction& f1, const WordFunction& f2,
                        std::string* difference) {
  std::vector<std::string> w1 = f1.input_words, w2 = f2.input_words;
  std::sort(w1.begin(), w1.end());
  std::sort(w2.begin(), w2.end());
  if (w1 != w2) {
    if (difference) *difference = "input word names differ";
    return false;
  }
  MPoly g2(&f2.g.field());
  if (!remap_into(f2, f1.pool, &g2)) {
    if (difference) *difference = "input word names differ";
    return false;
  }
  if (f1.g == g2) return true;
  if (difference)
    *difference = describe_difference(f1.g.field(), f1.pool, f1.g, g2);
  return false;
}

EquivalenceResult check_equivalence(const Netlist& spec, const Netlist& impl,
                                    const Gf2k& field,
                                    const ExtractionOptions& options) {
  // Spec and impl are abstracted one after the other. Each extraction
  // parallelizes its lift transforms internally at full pool width; running
  // the two on the pool instead would mark both callers as pool work, so
  // every nested lift loop would degrade to serial (see parallel_for.h).
  WordFunction spec_fn = extract_word_function(spec, field, options);
  WordFunction impl_fn = extract_word_function(impl, field, options);
  GFA_COUNT("equivalence.checks", 1);
  const obs::TraceSpan match_span("coefficient_match", "abstraction");
  std::string diff;
  const bool eq = same_word_function(spec_fn, impl_fn, &diff);
  return EquivalenceResult{eq, std::move(spec_fn), std::move(impl_fn),
                           std::move(diff)};
}

Result<EquivalenceResult> try_check_equivalence(
    const Netlist& spec, const Netlist& impl, const Gf2k& field,
    const ExtractionOptions& options) {
  try {
    return check_equivalence(spec, impl, field, options);
  } catch (const ExtractionBudgetExceeded& e) {
    return Status::resource_exhausted(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace gfa
