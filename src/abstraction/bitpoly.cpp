#include "abstraction/bitpoly.h"

#include <algorithm>
#include <cassert>

namespace gfa {

BitPoly::Elem BitPoly::eval(const std::vector<bool>& assignment) const {
  Elem sum = field_->zero();
  for (const auto& [m, c] : terms_) {
    bool all = true;
    for (VarId v : m) {
      assert(v < assignment.size());
      if (!assignment[v]) {
        all = false;
        break;
      }
    }
    if (all) sum += c;
  }
  return sum;
}

std::string BitPoly::to_string(const VarPool& pool) const {
  if (is_zero()) return "0";
  // Deterministic rendering: sort by monomial (ids lexicographic).
  std::vector<const TermMap::value_type*> sorted;
  sorted.reserve(terms_.size());
  for (const auto& t : terms_) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return a->first < b->first;
  });
  std::string out;
  for (const auto* t : sorted) {
    if (!out.empty()) out += " + ";
    const bool coeff_is_sum = t->second.weight() > 1;
    std::string cs = field_->to_string(t->second);
    if (coeff_is_sum) cs = "(" + cs + ")";
    if (t->first.empty()) {
      out += cs;
      continue;
    }
    std::string ms;
    for (VarId v : t->first) {
      if (!ms.empty()) ms += "*";
      ms += pool.name(v);
    }
    out += t->second.is_one() ? ms : cs + "*" + ms;
  }
  return out;
}

}  // namespace gfa
