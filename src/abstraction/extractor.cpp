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

/// Resolved checkpoint plumbing for one extract_for_word call: the file this
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

WordFunction extract_for_word(const Netlist& netlist, const Gf2k& field,
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

  std::vector<bool> is_input(netlist.num_nets(), false);
  for (NetId n : netlist.inputs()) is_input[n] = true;

  WordFunction result{VarPool{}, MPoly(&field), out_word->name, {}, {}};

  // Step 1: r := Σ_j α^j · z_j, i.e. Spoly(f_w, f_g) ->+ r realized as
  // backward rewriting of the word-output combination.
  std::vector<bool> substitutable(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n) substitutable[n] = !is_input[n];
  if (options.basis != nullptr && options.basis->size() != k)
    throw std::invalid_argument("word basis must have k elements");
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
  } catch (const RewriteBudgetExceeded& e) {
    throw ExtractionBudgetExceeded(e.what());
  }
  // The chain is done; a leftover checkpoint would only invite a pointless
  // (if harmless) resume of a finished run.
  if (ckpt.active) worker::remove_checkpoint(ckpt.path);
  GFA_COUNT("extract.words", 1);
  GFA_COUNT("extract.substitutions", stats.substitutions);
  GFA_COUNT("reduction_steps", stats.substitutions);
  GFA_GAUGE_MAX("extract.peak_terms", stats.peak_terms);

  // The remainder now mentions only primary-input bits.
  const BackwardRewriter::TermMap& remainder = chain.terms();
  stats.remainder_terms = remainder.size();
  bool any_bits = false;
  for (const auto& [m, c] : remainder) {
    stats.remainder_degree = std::max(stats.remainder_degree, m.size());
    if (!m.empty()) any_bits = true;
    for ([[maybe_unused]] VarId v : m)
      assert(is_input[v] && "non-input variable survived the reduction");
  }
  stats.case1 = !any_bits;

  // Build the public variable pool: input bit variables then word variables.
  std::vector<WordLift::WordBinding> bindings;
  bindings.reserve(in_words.size());
  std::vector<VarId> net_to_var(netlist.num_nets(), UINT32_MAX);
  for (const Word* w : in_words) {
    WordLift::WordBinding b;
    b.bit_vars.reserve(w->bits.size());
    for (NetId bit : w->bits) {
      const VarId v =
          result.pool.intern(netlist.gate(bit).name, VarKind::kBit);
      net_to_var[bit] = v;
      b.bit_vars.push_back(v);
    }
    b.word_var = result.pool.intern(w->name, VarKind::kWord);
    bindings.push_back(std::move(b));
    result.input_words.push_back(w->name);
  }

  // Remap the remainder onto pool variable ids.
  BitPoly r(&field);
  r.reserve(remainder.size());
  std::vector<VarId> mapped;
  for (const auto& [m, c] : remainder) {
    mapped.clear();
    mapped.reserve(m.size());
    for (VarId v : m) {
      if (net_to_var[v] == UINT32_MAX)
        throw std::invalid_argument(
            "primary input '" + netlist.gate(v).name + "' is not part of any word");
      mapped.push_back(net_to_var[v]);
    }
    std::sort(mapped.begin(), mapped.end());
    r.add_term(BitMono::from_sorted(mapped.data(), mapped.size()), c);
  }

  // Step 2: the Case-2 lift (a no-op beyond copying constants for Case 1).
  const obs::TraceSpan lift_span("case2_lift", "abstraction");
  report_phase("case2_lift", 0, 0, r.num_terms(), options.control);
  if (stats.case1) {
    result.g = MPoly::constant(&field, r.coeff(BitMono{}));
  } else {
    const WordLift lift(&field, options.basis, options.control);
    result.g = lift.lift(r, bindings, result.pool, options.control);
  }
  result.stats = stats;
  return result;
}

}  // namespace

WordFunction extract_word_function(const Netlist& netlist, const Gf2k& field,
                                   const ExtractionOptions& options) {
  const std::vector<const Word*> outs = output_words(netlist);
  if (outs.size() != 1)
    throw std::invalid_argument(
        outs.empty() ? "no output word declared"
                     : "several output words; use extract_word_function_for");
  return extract_for_word(netlist, field, outs[0], options);
}

WordFunction extract_word_function_for(const Netlist& netlist, const Gf2k& field,
                                       std::string_view output_word_name,
                                       const ExtractionOptions& options) {
  for (const Word* w : output_words(netlist)) {
    if (w->name == output_word_name)
      return extract_for_word(netlist, field, w, options);
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
    out.push_back(extract_for_word(netlist, field, w, options));
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
