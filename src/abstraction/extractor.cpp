#include "abstraction/extractor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "abstraction/bitpoly.h"
#include "abstraction/rato.h"
#include "abstraction/rewriter.h"
#include "abstraction/word_lift.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "worker/checkpoint.h"

namespace gfa {

namespace {

/// Reports a phase boundary / segment end to the progress sink (the isolated
/// worker's heartbeat channel) and drops a phase-transition breadcrumb into
/// the crash flight recorder. One branch when neither consumer is active.
void report_phase(const char* phase, std::uint64_t step, std::uint64_t total,
                  std::uint64_t terms, const ExecControl* control) {
  if (obs::progress_active()) {
    obs::Progress p;
    p.phase = phase;
    p.step = step;
    p.total = total;
    p.terms = terms;
    if (const ResourceBudget* b = budget_of(control))
      p.budget_bytes = b->used_bytes();
    obs::report_progress(p);
    obs::flight::note(phase, step, terms);
  }
}

/// Resolved checkpoint plumbing for one remainder_for_word call: the file this
/// (circuit, word) pair maps to, plus the saved state when resuming.
struct CheckpointPlan {
  bool active = false;
  std::uint64_t interval = 0;
  std::string path;
  std::uint64_t circuit_hash = 0;
  /// Non-empty terms + step > 0 when a valid matching checkpoint was loaded.
  std::uint64_t resume_step = 0;
  std::vector<std::pair<BitMono, Gf2Poly>> resume_terms;
  bool resumed = false;
};

CheckpointPlan plan_checkpoint(const Netlist& netlist, unsigned k,
                               const Word* out_word,
                               const ExtractionOptions& options) {
  CheckpointPlan plan;
  const ExtractionCheckpoint* ck = options.checkpoint;
  if (ck == nullptr || ck->directory.empty()) return plan;
  plan.active = true;
  plan.interval = ck->interval == 0 ? 1000 : ck->interval;
  plan.circuit_hash = worker::netlist_content_hash(netlist);
  plan.path =
      worker::checkpoint_path(ck->directory, plan.circuit_hash, out_word->name);
  if (!ck->resume) return plan;
  Result<worker::ReductionCheckpoint> loaded =
      worker::load_checkpoint(plan.path);
  if (!loaded.ok()) {
    GFA_LOG_WARN("extract", "cannot resume: " << loaded.status().message()
                                              << "; starting fresh");
    return plan;
  }
  if (loaded->k != k || loaded->circuit_hash != plan.circuit_hash ||
      loaded->word != out_word->name) {
    GFA_LOG_WARN("extract",
                 "checkpoint '" << plan.path
                                << "' was written for a different "
                                   "circuit/field/word; starting fresh");
    return plan;
  }
  plan.resume_step = loaded->step;
  plan.resume_terms = std::move(loaded->terms);
  plan.resumed = true;
  GFA_LOG_INFO("extract", "resuming word '" << out_word->name << "' at step "
                                            << plan.resume_step);
  return plan;
}

/// Snapshots the rewriter's term map in a deterministic (sorted) order and
/// writes it. Save failures are logged, not fatal — checkpointing is an
/// optimization, never a correctness dependency.
void save_progress(const CheckpointPlan& plan, const Word* out_word,
                   unsigned k, std::uint64_t step,
                   const BackwardRewriter::TermMap& terms) {
  worker::ReductionCheckpoint cp;
  cp.k = k;
  cp.circuit_hash = plan.circuit_hash;
  cp.word = out_word->name;
  cp.step = step;
  cp.terms.reserve(terms.size());
  for (const auto& [mono, coeff] : terms) cp.terms.emplace_back(mono, coeff);
  std::sort(cp.terms.begin(), cp.terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (const Status s = worker::save_checkpoint(plan.path, cp); !s.ok())
    GFA_LOG_WARN("extract", "checkpoint save failed: " << s.message());
}

/// Substitutes gates[from, to) — in RATO order — into `rw`. One scratch tail
/// is reused across all gates (its capacity sticks, so steady-state tail
/// construction is allocation-free), and gates absent from the working
/// polynomial skip tail construction outright (substitution would be a
/// no-op — the occurrence index only over-approximates, never misses). The
/// control is polled once per gate on the calling thread, so the Nth poll
/// lands on the same gate at every pool width. One substitution in 64 is
/// timed into the rewriter.substitution_us histogram when metrics are on.
void run_chain(BackwardRewriter& rw, const Netlist& netlist,
               const std::vector<NetId>& gates, std::size_t from,
               std::size_t to, const ExecControl* control) {
  const bool measured = obs::metrics_enabled();
  FlatTail tail;
  for (std::size_t i = from; i < to; ++i) {
    throw_if_stopped(control);
    if (i + 2 < to) rw.prefetch_occurrence_list(gates[i + 2]);
    if (i + 1 < to) rw.prefetch_pending(gates[i + 1]);
    if (rw.occurrences(gates[i]) == 0) continue;
    fill_gate_tail(netlist.gate(gates[i]), tail);
    if (measured && (i & 63u) == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      rw.substitute(gates[i], tail);
      const auto dt = std::chrono::steady_clock::now() - t0;
      GFA_HISTOGRAM(
          "rewriter.substitution_us",
          std::chrono::duration_cast<std::chrono::microseconds>(dt).count());
    } else {
      rw.substitute(gates[i], tail);
    }
  }
}

/// Rank of each input word's name in sorted name order, by declaration
/// index: the word part of a remainder variable key (see Remainder).
std::vector<unsigned> name_ranks(const std::vector<std::string>& names) {
  std::vector<unsigned> order(names.size());
  for (unsigned i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](unsigned x, unsigned y) { return names[x] < names[y]; });
  std::vector<unsigned> rank(names.size());
  for (unsigned r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

/// Throws unless the k basis elements are linearly independent over F_2: a
/// dependent basis maps different output bit vectors to one word value, so
/// equal remainders would no longer mean equal circuits.
void require_independent_basis(const Gf2k& field,
                               const std::vector<Gf2k::Elem>& basis) {
  std::vector<Gf2Poly> rows;
  rows.reserve(basis.size());
  for (const Gf2k::Elem& b : basis) rows.push_back(field.reduce(b));
  if (invert_gf2(std::move(rows), field.k()).empty())
    throw std::invalid_argument("word basis is not linearly independent");
}

Remainder remainder_for_word(const Netlist& netlist, const Gf2k& field,
                             const Word* out_word,
                             const ExtractionOptions& options) {
  const obs::TraceSpan extract_span("extract_word", "abstraction");
  report_phase("extract_word", 0, 0, 0, options.control);
  const unsigned k = field.k();
  const std::vector<const Word*> in_words = input_words(netlist);
  if (in_words.empty()) throw std::invalid_argument("no input words declared");
  if (out_word->bits.size() != k)
    throw std::invalid_argument("output word width != k");
  for (const Word* w : in_words)
    if (w->bits.size() != k) throw std::invalid_argument("input word width != k");
  if (options.basis != nullptr) {
    if (options.basis->size() != k)
      throw std::invalid_argument("word basis must have k elements");
    require_independent_basis(field, *options.basis);
  }

  std::vector<bool> is_input(netlist.num_nets(), false);
  for (NetId n : netlist.inputs()) is_input[n] = true;

  Remainder result;
  result.output_word = out_word->name;

  // Step 1: r := Σ_j α^j · z_j, i.e. Spoly(f_w, f_g) ->+ r realized as
  // backward rewriting of the word-output combination.
  std::vector<bool> substitutable(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n) substitutable[n] = !is_input[n];
  auto basis_elem = [&](unsigned j) {
    return options.basis != nullptr ? (*options.basis)[j]
                                    : field.alpha_pow(std::uint64_t{j});
  };

  ExtractionStats stats;
  CheckpointPlan ckpt = plan_checkpoint(netlist, k, out_word, options);
  stats.resumed = ckpt.resumed;
  BackwardRewriter chain(std::move(substitutable), options.max_terms,
                         options.control);
  try {
    std::vector<NetId> rato;
    {
      // The paper's RATO: the reverse-topological order that makes backward
      // substitution *be* the Gröbner reduction chain.
      const obs::TraceSpan sort_span("rato_sort", "abstraction");
      report_phase("rato_sort", 0, 0, 0, options.control);
      rato = rato_net_order(netlist);
    }
    const obs::TraceSpan chain_span("reduction_chain", "abstraction");
    if (ckpt.resumed) {
      // Seed the rewriter with the checkpointed intermediate polynomial (the
      // occurrence index rebuilds through add()); the first resume_step
      // substitutions of the deterministic RATO chain are already folded in.
      for (auto& [mono, coeff] : ckpt.resume_terms)
        chain.add(std::move(mono), std::move(coeff));
      ckpt.resume_terms.clear();
    } else {
      for (unsigned j = 0; j < k; ++j)
        chain.add(BitMono{out_word->bits[j]}, basis_elem(j));
    }
    std::vector<NetId> gates;
    gates.reserve(rato.size());
    for (NetId n : rato)
      if (!is_input[n]) gates.push_back(n);
    // The chain runs in segments of one checkpoint interval (the whole chain
    // when neither checkpointing nor a progress sink is active); snapshots
    // and heartbeat progress reports happen at segment ends. A sink alone
    // segments at the default checkpoint cadence, which only bounds how
    // stale a heartbeat's step count can get.
    const bool segmented = ckpt.active || obs::progress_active();
    const std::uint64_t interval =
        ckpt.active ? ckpt.interval : std::uint64_t{1000};
    std::uint64_t step = ckpt.resume_step;
    report_phase("reduction_chain", step, gates.size(), chain.num_terms(),
                 options.control);
    while (step < gates.size()) {
      const std::uint64_t end =
          segmented ? std::min<std::uint64_t>(step + interval, gates.size())
                    : gates.size();
      run_chain(chain, netlist, gates, step, end, options.control);
      stats.substitutions += end - step;
      step = end;
      if (ckpt.active && step < gates.size()) {
        save_progress(ckpt, out_word, k, step, chain.terms());
        if (obs::progress_active())
          obs::flight::note("checkpoint:save", step, chain.num_terms());
      }
      report_phase("reduction_chain", step, gates.size(), chain.num_terms(),
                   options.control);
    }
    stats.peak_terms = chain.peak_terms();
    stats.expansions = chain.expansions();
  } catch (const RewriteBudgetExceeded& e) {
    throw ExtractionBudgetExceeded(e.what());
  }
  // The chain is done; a leftover checkpoint would only invite a pointless
  // (if harmless) resume of a finished run.
  if (ckpt.active) worker::remove_checkpoint(ckpt.path);
  GFA_COUNT("extract.words", 1);
  GFA_COUNT("extract.substitutions", stats.substitutions);
  GFA_COUNT("extract.expansions", stats.expansions);
  GFA_COUNT("reduction_steps", stats.substitutions);
  GFA_GAUGE_MAX("extract.peak_terms", stats.peak_terms);

  // The remainder now mentions only primary-input bits. Key each bit by
  // (rank of its word's name, bit index) and sort the terms.
  for (const Word* w : in_words) result.input_words.push_back(w->name);
  const std::vector<unsigned> rank = name_ranks(result.input_words);
  std::vector<VarId> net_to_key(netlist.num_nets(), UINT32_MAX);
  for (std::size_t w = 0; w < in_words.size(); ++w)
    for (unsigned i = 0; i < k; ++i)
      net_to_key[in_words[w]->bits[i]] = rank[w] * k + i;

  const BackwardRewriter::TermMap& remainder = chain.terms();
  stats.remainder_terms = remainder.size();
  result.terms.reserve(remainder.size());
  std::vector<VarId> keys;
  for (const auto& [m, c] : remainder) {
    stats.remainder_degree = std::max(stats.remainder_degree, m.size());
    keys.clear();
    for (VarId v : m) {
      assert(is_input[v] && "non-input variable survived the reduction");
      if (net_to_key[v] == UINT32_MAX)
        throw std::invalid_argument(
            "primary input '" + netlist.gate(v).name + "' is not part of any word");
      keys.push_back(net_to_key[v]);
    }
    std::sort(keys.begin(), keys.end());
    result.terms.emplace_back(PackedMono::from_sorted(keys.data(), keys.size()),
                              c);
  }
  std::sort(result.terms.begin(), result.terms.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  stats.case1 = stats.remainder_degree == 0;
  result.stats = stats;
  return result;
}

}  // namespace

Remainder extract_remainder(const Netlist& netlist, const Gf2k& field,
                            const ExtractionOptions& options) {
  const std::vector<const Word*> outs = output_words(netlist);
  if (outs.size() != 1)
    throw std::invalid_argument(
        outs.empty() ? "no output word declared"
                     : "several output words; use extract_word_function_for");
  return remainder_for_word(netlist, field, outs[0], options);
}

WordFunction lift_remainder(const Remainder& r, const Gf2k& field,
                            const ExtractionOptions& options) {
  const obs::TraceSpan lift_span("case2_lift", "abstraction");
  report_phase("case2_lift", 0, 0, r.terms.size(), options.control);
  const unsigned k = field.k();
  WordFunction result{VarPool{}, MPoly(&field), r.output_word, r.input_words,
                      r.stats};

  // Bind each word's bits by their remainder keys. The pool still interns one
  // bit variable per bit ahead of each word, in declaration order, so the
  // word variables' ids (and the printed term order of g) do not depend on
  // how the remainder keys its bits.
  const std::vector<unsigned> rank = name_ranks(r.input_words);
  std::vector<WordLift::WordBinding> bindings;
  bindings.reserve(r.input_words.size());
  for (std::size_t w = 0; w < r.input_words.size(); ++w) {
    const std::string& name = r.input_words[w];
    WordLift::WordBinding b;
    b.bit_vars.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
      result.pool.intern(name + "[" + std::to_string(i) + "]", VarKind::kBit);
      b.bit_vars.push_back(rank[w] * k + i);
    }
    b.word_var = result.pool.intern(name, VarKind::kWord);
    bindings.push_back(std::move(b));
  }

  // Case 1 (no input bits) is the constant term alone.
  if (r.stats.case1) {
    if (!r.terms.empty()) result.g = MPoly::constant(&field, r.terms[0].second);
    return result;
  }
  BitPoly bits(&field);
  bits.reserve(r.terms.size());
  for (const auto& [m, c] : r.terms) bits.add_term(m, c);
  const WordLift lift(&field, options.basis, options.control);
  result.g = lift.lift(bits, bindings, result.pool, options.control);
  return result;
}

WordFunction extract_word_function(const Netlist& netlist, const Gf2k& field,
                                   const ExtractionOptions& options) {
  return lift_remainder(extract_remainder(netlist, field, options), field,
                        options);
}

WordFunction extract_word_function_for(const Netlist& netlist, const Gf2k& field,
                                       std::string_view output_word_name,
                                       const ExtractionOptions& options) {
  for (const Word* w : output_words(netlist)) {
    if (w->name == output_word_name)
      return lift_remainder(remainder_for_word(netlist, field, w, options),
                            field, options);
  }
  throw std::invalid_argument("no output word named '" +
                              std::string(output_word_name) + "'");
}

std::vector<WordFunction> extract_all_word_functions(
    const Netlist& netlist, const Gf2k& field, const ExtractionOptions& options) {
  // Output words are abstracted in order; each extraction's lift uses the
  // pool (the one level of parallelism, see parallel_for.h).
  std::vector<WordFunction> out;
  for (const Word* w : output_words(netlist))
    out.push_back(lift_remainder(remainder_for_word(netlist, field, w, options),
                                 field, options));
  return out;
}

Result<WordFunction> try_extract_word_function(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options) {
  try {
    return extract_word_function(netlist, field, options);
  } catch (const ExtractionBudgetExceeded& e) {
    return Status::resource_exhausted(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

Result<std::vector<WordFunction>> try_extract_all_word_functions(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options) {
  try {
    return extract_all_word_functions(netlist, field, options);
  } catch (const ExtractionBudgetExceeded& e) {
    return Status::resource_exhausted(e.what());
  } catch (...) {
    return status_from_current_exception();
  }
}

}  // namespace gfa
