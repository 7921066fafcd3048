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

/// Renders a remainder monomial as A[i]·B[j] ("1" for the constant term);
/// `names` are the input word names in sorted order, so key v is bit v % k
/// of word names[v / k].
std::string render_bits(const PackedMono& m,
                        const std::vector<std::string>& names, unsigned k) {
  if (m.empty()) return "1";
  std::string out;
  for (VarId v : m) {
    if (!out.empty()) out += "·";
    out += names[v / k] + "[" + std::to_string(v % k) + "]";
  }
  return out;
}

/// Merges the two sorted remainders. On a mismatch fills the result's
/// difference and the witness of a minimum-degree monomial of the sum (the
/// first one in monomial order, so the witness is deterministic).
void match_remainders(const Gf2k& field, EquivalenceResult& res) {
  std::vector<std::string> names = res.spec.input_words;
  std::vector<std::string> impl_names = res.impl.input_words;
  std::sort(names.begin(), names.end());
  std::sort(impl_names.begin(), impl_names.end());
  if (names != impl_names) {
    res.difference = "input word names differ";
    return;
  }
  const unsigned k = field.k();
  const auto& a = res.spec.terms;
  const auto& b = res.impl.terms;
  const Gf2k::Elem zero = field.zero();
  std::size_t differing = 0;
  std::string shown;
  const PackedMono* lowest = nullptr;
  const auto note = [&](const PackedMono& m, const Gf2k::Elem& in_spec,
                        const Gf2k::Elem& in_impl) {
    if (differing < 4) {
      if (differing > 0) shown += ", ";
      shown += render_bits(m, names, k) + " [spec " + field.to_string(in_spec) +
               " vs impl " + field.to_string(in_impl) + "]";
    }
    ++differing;
    if (lowest == nullptr || m.size() < lowest->size()) lowest = &m;
  };
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
      note(a[i].first, a[i].second, zero);
      ++i;
    } else if (i == a.size() || b[j].first < a[i].first) {
      note(b[j].first, zero, b[j].second);
      ++j;
    } else {
      if (a[i].second != b[j].second)
        note(a[i].first, a[i].second, b[j].second);
      ++i;
      ++j;
    }
  }
  if (differing == 0) {
    res.equivalent = true;
    return;
  }
  res.difference = "coefficients differ on " + std::to_string(differing) +
                   " monomial(s): " + shown + (differing > 4 ? "…" : "");
  for (const std::string& name : names) res.witness[name] = zero;
  for (VarId v : *lowest) res.witness[names[v / k]].set_coeff(v % k, true);
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
  // Spec and impl are reduced one after the other on the calling thread.
  EquivalenceResult res;
  res.spec = extract_remainder(spec, field, options);
  res.impl = extract_remainder(impl, field, options);
  GFA_COUNT("equivalence.checks", 1);
  const obs::TraceSpan match_span("coefficient_match", "abstraction");
  match_remainders(field, res);
  return res;
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
