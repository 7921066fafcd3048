#pragma once
// Byte-denominated memory budgets for verification runs.
//
// The paper's methodology (Tables 1–2) treats mem-outs as first-class
// outcomes; a ResourceBudget makes them *bounded* outcomes. Each allocation
// hot spot — mpoly working terms, the Buchberger pair queue, BDD unique/ITE
// tables, the SAT clause arena, the backward rewriter's substitution maps —
// charges an estimated byte cost against the budget as it grows and releases
// it as it shrinks. Exceeding the total (or an optional per-site) limit
// unwinds via StatusError(kResourceExhausted), which the engine layer
// converts into a clean Status and records alongside the peak usage in the
// run report.
//
// Charges are estimates (container overhead is approximated with the
// per-entry constants below), so the budget bounds the dominant data
// structures rather than the process RSS — good enough to stop a blow-up
// long before the allocator does, and cheap enough (relaxed atomics) to sit
// inside reduction loops.
//
// A budget is threaded through ExecControl (`control->budget`, nullptr =
// unbounded) next to the deadline and cancel token it behaves like.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace gfa {

/// One enumerator per counted allocation hot spot. Keep budget_site_name(),
/// the "budget:*" fault-injection sites, and the DESIGN.md table in sync.
enum class BudgetSite : unsigned {
  kMpolyTerms = 0,   // normal_form working-term map (poly/mpoly.cpp)
  kPairQueue,        // Buchberger critical-pair queue (poly/groebner.cpp)
  kBddNodes,         // BDD node/unique/ITE-cache tables (baselines/bdd)
  kSatClauses,       // CDCL clause arena + learned clauses (baselines/sat)
  kRewriterTerms,    // backward-rewriter term + occurrence maps (abstraction)
};
inline constexpr std::size_t kNumBudgetSites = 5;

/// Canonical site name, e.g. "mpoly.terms"; matches the fault-injection
/// site "budget:<name>" fired by the Nth charge at that site.
const char* budget_site_name(BudgetSite site);

// Per-entry byte estimates used by the charge sites (node payload plus
// amortized container/index overhead). Centralised so tests and docs can
// reason about how many entries a given --memory-budget admits.
inline constexpr std::size_t kMPolyTermBytes = 128;       // map node + monomial
inline constexpr std::size_t kPairEntryBytes = 32;        // deque slot
inline constexpr std::size_t kBddNodeBytes = 64;          // node + unique entry
inline constexpr std::size_t kBddCacheEntryBytes = 48;    // ITE memo entry
inline constexpr std::size_t kSatClauseOverheadBytes = 48; // Clause + watchers
inline constexpr std::size_t kSatLiteralBytes = 8;        // lit + watch slots
inline constexpr std::size_t kRewriterTermBytes = 96;     // term map node + coeff

/// Thread-safe byte accounting with a hard total limit and optional
/// per-site limits. charge() throws StatusError(kResourceExhausted) naming
/// the site that tripped; release() never throws. Peaks are retained after
/// release for reporting.
class ResourceBudget {
 public:
  /// limit_bytes == 0 means "account but never trip" (useful for peak
  /// measurement and for fault-injection sweeps that need charges to flow).
  explicit ResourceBudget(std::size_t limit_bytes = 0) : limit_(limit_bytes) {}

  ResourceBudget(const ResourceBudget&) = delete;
  ResourceBudget& operator=(const ResourceBudget&) = delete;

  /// Optional per-site cap on top of the total limit (0 = none).
  void set_site_limit(BudgetSite site, std::size_t bytes) {
    sites_[index(site)].limit = bytes;
  }

  /// Adds `bytes` at `site`; throws StatusError(kResourceExhausted) — after
  /// rolling the addition back — if the total or site limit would be
  /// exceeded. Fires the "budget:<site>" fault-injection point.
  void charge(BudgetSite site, std::size_t bytes);

  /// Returns previously charged bytes. Never throws; clamps at zero to stay
  /// sane if an estimate shrank between charge and release.
  void release(BudgetSite site, std::size_t bytes) noexcept;

  std::size_t limit_bytes() const { return limit_; }
  std::size_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }
  std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  std::uint64_t charge_calls() const {
    return charges_.load(std::memory_order_relaxed);
  }
  std::size_t site_used_bytes(BudgetSite site) const {
    return sites_[index(site)].used.load(std::memory_order_relaxed);
  }
  std::size_t site_peak_bytes(BudgetSite site) const {
    return sites_[index(site)].peak.load(std::memory_order_relaxed);
  }

 private:
  static std::size_t index(BudgetSite site) {
    return static_cast<std::size_t>(site);
  }

  struct SiteState {
    std::atomic<std::size_t> used{0};
    std::atomic<std::size_t> peak{0};
    std::size_t limit = 0;  // set before the run starts, read-only after
  };

  std::size_t limit_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> charges_{0};
  SiteState sites_[kNumBudgetSites];
};

// The budget rides inside ExecControl (exec_control.h), reachable at charge
// sites via budget_of(control).

/// RAII accounting for one owner's share of one site. Null-budget tolerant
/// (every call is a no-op), releases whatever is still held on destruction,
/// and keeps its own held-byte count so owners can track a container whose
/// size moves both ways. charge failures propagate (StatusError) with the
/// lease's count unchanged, so unwinding releases exactly what was charged.
class BudgetLease {
 public:
  BudgetLease(ResourceBudget* budget, BudgetSite site)
      : budget_(budget), site_(site) {}
  BudgetLease(const BudgetLease&) = delete;
  BudgetLease& operator=(const BudgetLease&) = delete;
  ~BudgetLease() {
    if (budget_ != nullptr && held_ > 0) budget_->release(site_, held_);
  }

  bool active() const { return budget_ != nullptr; }
  std::size_t held_bytes() const { return held_; }

  /// Adjusts the lease to `bytes` total, charging the delta up (may throw)
  /// or releasing the delta down.
  void set_bytes(std::size_t bytes) {
    if (budget_ == nullptr || bytes == held_) return;
    if (bytes > held_) {
      budget_->charge(site_, bytes - held_);
    } else {
      budget_->release(site_, held_ - bytes);
    }
    held_ = bytes;
  }

  void add(std::size_t bytes) {
    if (budget_ == nullptr || bytes == 0) return;
    budget_->charge(site_, bytes);
    held_ += bytes;
  }

  void sub(std::size_t bytes) noexcept {
    if (budget_ == nullptr || bytes == 0) return;
    if (bytes > held_) bytes = held_;
    budget_->release(site_, bytes);
    held_ -= bytes;
  }

 private:
  ResourceBudget* budget_;
  BudgetSite site_;
  std::size_t held_ = 0;
};

}  // namespace gfa
