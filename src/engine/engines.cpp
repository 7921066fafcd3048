// The six concrete built-in EquivEngine adapters (the portfolio meta-engine
// lives in portfolio.cpp). Each wraps one of the repository's
// verification methods behind the uniform verify() contract (see engine.h for
// the Status-vs-Unknown semantics) and threads RunOptions::control into the
// method's deep loops.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "abstraction/canon_serial.h"
#include "abstraction/equivalence.h"
#include "abstraction/extractor.h"
#include "abstraction/rato.h"
#include "abstraction/rewriter.h"
#include "baselines/aig/aig.h"
#include "certify/certify.h"
#include "baselines/bdd/bdd.h"
#include "baselines/full_gb.h"
#include "baselines/ideal_membership.h"
#include "baselines/miter.h"
#include "baselines/sat/solver.h"
#include "engine/portfolio.h"
#include "engine/registry.h"
#include "worker/checkpoint.h"

namespace gfa::engine {

namespace {

/// Remaps `g` (over `from` variable ids) into `to` ids by variable name.
/// Throws std::invalid_argument when a name is missing from `to`.
MPoly remap_by_name(const MPoly& g, const VarPool& from, VarPool& to) {
  MPoly out(&g.field());
  for (const auto& [mono, coeff] : g.terms()) {
    std::vector<std::pair<VarId, BigUint>> pairs;
    pairs.reserve(mono.factors().size());
    for (const auto& [v, e] : mono.factors()) {
      const std::string& name = from.name(v);
      if (!to.contains(name))
        throw std::invalid_argument("implementation declares no word named '" +
                                    name + "'");
      pairs.emplace_back(to.id(name), e);
    }
    out.add_term(Monomial::from_pairs(std::move(pairs)), coeff);
  }
  return out;
}

/// Replays a machine witness and attaches the typed counterexample.
/// Best-effort: a failure to replay leaves the result untouched, and
/// run_engine() backfills by simulation search.
void attach_witness(VerifyResult& out, const Netlist& spec,
                    const Netlist& impl, const Gf2k& field,
                    const certify::Witness& witness) {
  try {
    out.counterexample = certify::replay_witness(spec, impl, field, witness);
  } catch (...) {
  }
}

/// Groups a miter-input bit assignment (SAT model, BDD path, fraig vector
/// re-expanded over the miter) into a witness and attaches it.
void attach_bit_witness(VerifyResult& out, const Netlist& spec,
                        const Netlist& impl, const Gf2k& field,
                        const Netlist& miter, const std::vector<bool>& bits) {
  try {
    attach_witness(out, spec, impl, field,
                   certify::witness_from_bits(miter, bits));
  } catch (...) {
  }
}

// ---------------------------------------------------------------------------
// abstraction — the paper's flow: RATO-guided reduction of both circuits,
// then coefficient matching of the two bit-level remainders (see
// abstraction/equivalence.h); a mismatch replays the remainder witness.

class AbstractionEngine final : public EquivEngine {
 public:
  std::string name() const override { return "abstraction"; }
  std::string description() const override {
    return "word-level abstraction via guided Groebner bases (the paper's "
           "method); canonical-form coefficient matching";
  }
  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    ExtractionOptions eo;
    eo.max_terms = options.max_terms;
    eo.control = &options.control;
    ExtractionCheckpoint ck;
    if (!options.checkpoint_dir.empty()) {
      // Fail fast with the concrete path problem instead of letting every
      // periodic save die with a cryptic open error.
      if (Status s = worker::ensure_directory(options.checkpoint_dir);
          !s.ok())
        return s;
      ck.directory = options.checkpoint_dir;
      if (options.checkpoint_interval != 0)
        ck.interval = options.checkpoint_interval;
      ck.resume = options.checkpoint_resume;
      eo.checkpoint = &ck;
    }
    Result<EquivalenceResult> r = try_check_equivalence(spec, impl, field, eo);
    if (!r.ok()) return r.status();
    VerifyResult out;
    out.verdict =
        r->equivalent ? Verdict::kEquivalent : Verdict::kNotEquivalent;
    out.detail = r->difference;
    if (!r->witness.empty()) attach_witness(out, spec, impl, field, r->witness);
    if (options.export_canonical) {
      // The service caches word polynomials: lift the remainders in hand
      // rather than running the chains again. The lift is not part of the
      // verdict, so when it fails (deadline, budget) the verdict stands and
      // both forms stay empty, which the service reads as "do not cache".
      try {
        std::string spec_form =
            encode_canon_form(lift_remainder(r->spec, field, eo));
        std::string impl_form =
            encode_canon_form(lift_remainder(r->impl, field, eo));
        out.canonical_spec = std::move(spec_form);
        out.canonical_impl = std::move(impl_form);
      } catch (...) {
      }
    }
    out.resumed = r->spec.stats.resumed || r->impl.stats.resumed;
    out.stats["spec_substitutions"] =
        static_cast<double>(r->spec.stats.substitutions);
    out.stats["impl_substitutions"] =
        static_cast<double>(r->impl.stats.substitutions);
    out.stats["spec_peak_terms"] = static_cast<double>(r->spec.stats.peak_terms);
    out.stats["impl_peak_terms"] = static_cast<double>(r->impl.stats.peak_terms);
    return out;
  }
};

// ---------------------------------------------------------------------------
// sat — Tseitin-encoded miter handed to the in-tree CDCL solver.

class SatEngine final : public EquivEngine {
 public:
  std::string name() const override { return "sat"; }
  std::string description() const override {
    return "CDCL SAT on the Tseitin-encoded miter (contemporary CEC baseline)";
  }
  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    try {
      const Netlist miter = make_miter(spec, impl);
      const Cnf cnf = tseitin_encode(miter, miter.outputs()[0]);
      sat::Solver solver;
      for (const auto& clause : cnf.clauses) solver.add_clause(clause);
      const sat::Result res =
          solver.solve(options.sat_conflict_limit, &options.control);
      VerifyResult out;
      const sat::SolverStats& st = solver.stats();
      out.stats["conflicts"] = static_cast<double>(st.conflicts);
      out.stats["decisions"] = static_cast<double>(st.decisions);
      out.stats["propagations"] = static_cast<double>(st.propagations);
      out.stats["clauses"] = static_cast<double>(cnf.clauses.size());
      switch (res) {
        case sat::Result::kUnsat:
          out.verdict = Verdict::kEquivalent;
          break;
        case sat::Result::kSat: {
          out.verdict = Verdict::kNotEquivalent;
          out.detail = "miter satisfiable: some input distinguishes the circuits";
          // Tseitin gives net n the variable n+1, so the model projects
          // straight onto the miter's (shared, word-grouped) inputs.
          std::vector<bool> bits(miter.inputs().size());
          for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] =
                solver.model_value(static_cast<int>(miter.inputs()[i]) + 1);
          attach_bit_witness(out, spec, impl, field, miter, bits);
          break;
        }
        case sat::Result::kUnknown:
          out.verdict = Verdict::kUnknown;
          out.detail = "conflict budget (" +
                       std::to_string(options.sat_conflict_limit) +
                       ") exhausted";
          break;
      }
      return out;
    } catch (...) {
      return status_from_current_exception();
    }
  }
};

// ---------------------------------------------------------------------------
// fraig — AIG sweeping with SAT-backed merging, then one final miter query.

class FraigEngine final : public EquivEngine {
 public:
  std::string name() const override { return "fraig"; }
  std::string description() const override {
    return "AIG fraiging: simulate, merge SAT-proven internal equivalences, "
           "final miter SAT query";
  }
  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    try {
      aig::FraigOptions fo;
      fo.final_conflicts = options.sat_conflict_limit;
      fo.control = &options.control;
      const aig::FraigResult r = aig::fraig_equivalence_check(spec, impl, fo);
      VerifyResult out;
      out.stats["merges"] = static_cast<double>(r.merges);
      out.stats["sat_calls"] = static_cast<double>(r.sat_calls);
      out.stats["refinements"] = static_cast<double>(r.refinements);
      out.stats["final_conflicts"] = static_cast<double>(r.final_conflicts);
      switch (r.status) {
        case aig::FraigResult::Status::kEquivalent:
          out.verdict = Verdict::kEquivalent;
          break;
        case aig::FraigResult::Status::kNotEquivalent: {
          out.verdict = Verdict::kNotEquivalent;
          out.detail = "counterexample found over " +
                       std::to_string(r.counterexample.size()) + " inputs";
          // The AIG's inputs were created word-major over input_words(spec)
          // with each word LSB-first, so the refinement vector slices
          // directly into word coordinates.
          try {
            certify::Witness w;
            std::size_t at = 0;
            for (const Word* word : input_words(spec)) {
              Gf2Poly elem;
              for (std::size_t b = 0; b < word->bits.size(); ++b, ++at)
                if (at < r.counterexample.size() && r.counterexample[at])
                  elem.set_coeff(static_cast<unsigned>(b), true);
              w[word->name] = std::move(elem);
            }
            attach_witness(out, spec, impl, field, w);
          } catch (...) {
          }
          break;
        }
        case aig::FraigResult::Status::kUnknown:
          out.verdict = Verdict::kUnknown;
          out.detail = "conflict budget (" +
                       std::to_string(options.sat_conflict_limit) +
                       ") exhausted";
          break;
      }
      return out;
    } catch (...) {
      return status_from_current_exception();
    }
  }
};

// ---------------------------------------------------------------------------
// bdd — the miter output's ROBDD must be the false terminal.

class BddEngine final : public EquivEngine {
 public:
  std::string name() const override { return "bdd"; }
  std::string description() const override {
    return "ROBDD of the miter output (canonical-DAG baseline); equivalent "
           "iff it is the false terminal";
  }
  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    try {
      const Netlist miter = make_miter(spec, impl);
      bdd::Manager manager(options.bdd_node_limit);
      manager.set_exec_control(&options.control);
      std::vector<unsigned> vars(miter.inputs().size());
      for (unsigned i = 0; i < vars.size(); ++i) vars[i] = i;
      const std::vector<bdd::NodeRef> refs =
          build_netlist_bdds(manager, miter, vars);
      const bdd::NodeRef out_ref = refs[miter.outputs()[0]];
      VerifyResult out;
      out.stats["nodes"] = static_cast<double>(manager.num_nodes());
      out.stats["miter_nodes"] = static_cast<double>(manager.count_nodes(out_ref));
      out.stats["cache_lookups"] = static_cast<double>(manager.cache_lookups());
      out.stats["cache_hits"] = static_cast<double>(manager.cache_hits());
      if (manager.cache_lookups() > 0)
        out.stats["cache_hit_rate"] = static_cast<double>(manager.cache_hits()) /
                                      static_cast<double>(manager.cache_lookups());
      out.verdict = out_ref == bdd::kFalse ? Verdict::kEquivalent
                                           : Verdict::kNotEquivalent;
      if (out.verdict == Verdict::kNotEquivalent) {
        out.detail = "miter BDD is not the false terminal";
        // Variable i is miter input i, so a satisfying path through the
        // miter's BDD is exactly a distinguishing input assignment.
        attach_bit_witness(
            out, spec, impl, field, miter,
            manager.satisfying_assignment(
                out_ref, static_cast<unsigned>(vars.size())));
      }
      return out;
    } catch (const bdd::BddBudgetExceeded& e) {
      return Status::resource_exhausted(e.what());
    } catch (...) {
      return status_from_current_exception();
    }
  }
};

// ---------------------------------------------------------------------------
// full-gb — unguided Buchberger on J + J_0 for both circuits, then compare
// the extracted word polynomials.

class FullGbEngine final : public EquivEngine {
 public:
  std::string name() const override { return "full-gb"; }
  std::string description() const override {
    return "unguided Buchberger over the full circuit ideal (the paper's "
           "slimgb baseline); compares the two extracted word polynomials";
  }
  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    try {
      BuchbergerOptions bo;
      bo.max_reductions = options.gb_max_reductions;
      bo.max_poly_terms = options.gb_max_poly_terms;
      bo.control = &options.control;
      const FullGbResult rs = abstract_by_full_groebner(spec, field, bo);
      const FullGbResult ri = abstract_by_full_groebner(impl, field, bo);
      VerifyResult out;
      out.stats["spec_reductions"] = static_cast<double>(rs.reductions);
      out.stats["impl_reductions"] = static_cast<double>(ri.reductions);
      out.stats["spec_basis_size"] = static_cast<double>(rs.basis_size);
      out.stats["impl_basis_size"] = static_cast<double>(ri.basis_size);
      if (!rs.completed || !ri.completed || !rs.found || !ri.found) {
        out.verdict = Verdict::kUnknown;
        out.detail = "Buchberger budget exhausted before a word polynomial "
                     "was isolated";
        return out;
      }
      VarPool pool = rs.pool;
      const MPoly gi = remap_by_name(ri.g, ri.pool, pool);
      out.verdict =
          rs.g == gi ? Verdict::kEquivalent : Verdict::kNotEquivalent;
      if (out.verdict == Verdict::kNotEquivalent)
        out.detail = "extracted word polynomials differ";
      return out;
    } catch (...) {
      return status_from_current_exception();
    }
  }
};

// ---------------------------------------------------------------------------
// ideal-membership — Lv et al.: the method needs the spec *polynomial*, so
// this adapter first abstracts the spec circuit (the cheap, guided flow),
// then tests Z + G_spec ∈ J(impl) + J_0 by backward division.

class IdealMembershipEngine final : public EquivEngine {
 public:
  std::string name() const override { return "ideal-membership"; }
  std::string description() const override {
    return "Lv-Kalla-Enescu ideal-membership test of the miter polynomial "
           "against the implementation's circuit ideal";
  }
  Result<VerifyResult> verify(const Netlist& spec, const Netlist& impl,
                              const Gf2k& field,
                              const RunOptions& options) const override {
    ExtractionOptions eo;
    eo.max_terms = options.max_terms;
    eo.control = &options.control;
    Result<WordFunction> spec_fn = try_extract_word_function(spec, field, eo);
    if (!spec_fn.ok()) return spec_fn.status();
    try {
      IdealMembershipOptions io;
      io.max_terms = options.max_terms;
      io.control = &options.control;
      const IdealMembershipResult r = verify_by_ideal_membership(
          impl, field,
          [&](const Gf2k*, VarPool& pool) {
            return remap_by_name(spec_fn->g, spec_fn->pool, pool);
          },
          io);
      VerifyResult out;
      out.stats["substitutions"] = static_cast<double>(r.substitutions);
      out.stats["peak_terms"] = static_cast<double>(r.peak_terms);
      out.stats["residual_terms"] = static_cast<double>(r.residual_terms);
      out.verdict =
          r.is_member ? Verdict::kEquivalent : Verdict::kNotEquivalent;
      if (out.verdict == Verdict::kNotEquivalent)
        out.detail = "miter polynomial leaves a residual of " +
                     std::to_string(r.residual_terms) + " term(s)";
      return out;
    } catch (const RewriteBudgetExceeded& e) {
      return Status::resource_exhausted(e.what());
    } catch (...) {
      return status_from_current_exception();
    }
  }
};

}  // namespace

void register_builtin_engines(EngineRegistry& registry) {
  registry.add(std::make_unique<AbstractionEngine>());
  registry.add(std::make_unique<SatEngine>());
  registry.add(std::make_unique<FraigEngine>());
  registry.add(std::make_unique<BddEngine>());
  registry.add(std::make_unique<FullGbEngine>());
  registry.add(std::make_unique<IdealMembershipEngine>());
  registry.add(make_portfolio_engine());
}

}  // namespace gfa::engine
