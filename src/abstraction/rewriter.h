#pragma once
// Backward-rewriting engine over the multilinear BitPoly representation.
//
// Shared by the abstraction extractor and the ideal-membership baseline: a
// polynomial over net-indexed bit variables plus an occurrence index, so that
// substituting a gate-output variable by its tail touches only the terms that
// actually contain it. Under RATO this sequence of substitutions *is* the
// Gröbner-basis reduction chain (see extractor.h).
//
// The engine is serial: every substitution runs on the calling thread, so the
// work it does, the fault points it hits and the polynomial it produces do
// not depend on the thread-pool width.

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "abstraction/bitpoly.h"
#include "circuit/netlist.h"
#include "util/exec_control.h"

namespace gfa {

struct RewriteBudgetExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A gate tail as a flat monomial list with every coefficient implicitly 1.
/// Substitution only ever *iterates* a tail's terms — it never looks one up —
/// and every boolean gate's tail polynomial over F_{2^k} has all-one
/// coefficients, so tails are plain monomial vectors built straight from the
/// gate structure instead of hash-map polynomials (one map, several
/// temporaries, and one heap-allocated field element per term, per gate;
/// over half the reduction-chain wall time at k=163 before this existed).
/// Term order within a tail is unspecified: tails only feed commutative
/// XOR-accumulation.
struct FlatTail {
  std::vector<BitMono> monos;
};

/// Rebuilds `tail` in place as the tail of `gate` over net-id variables (the
/// multilinear form of gate_tail_poly), reusing its vector capacity. The
/// chain calls this once per gate; with the spill pool behind wide
/// monomials, steady-state tail construction allocates nothing at all.
void fill_gate_tail(const Netlist::Gate& gate, FlatTail& tail);

/// A vector with N inline slots that spills to a heap vector past them.
/// Backs the occurrence index: in XOR-dominated multiplier chains almost
/// every substitutable variable occurs in one or two working terms, so the
/// per-variable occurrence lists stay malloc-free.
template <class T, std::size_t N>
class InlineSmallVec {
 public:
  InlineSmallVec() = default;
  InlineSmallVec(InlineSmallVec&& o) noexcept
      : size_(o.size_), heap_(std::move(o.heap_)) {
    for (std::size_t i = 0; i < (size_ < N ? size_ : N); ++i)
      inline_[i] = std::move(o.inline_[i]);
    o.size_ = 0;
  }
  InlineSmallVec& operator=(InlineSmallVec&& o) noexcept {
    if (this != &o) {
      size_ = o.size_;
      heap_ = std::move(o.heap_);
      for (std::size_t i = 0; i < (size_ < N ? size_ : N); ++i)
        inline_[i] = std::move(o.inline_[i]);
      o.size_ = 0;
    }
    return *this;
  }
  InlineSmallVec(const InlineSmallVec&) = delete;
  InlineSmallVec& operator=(const InlineSmallVec&) = delete;

  void push_back(T v) {
    if (size_ < N) {
      inline_[size_] = std::move(v);
    } else {
      if (size_ == N) {
        // First spill: migrate the inline slots so the storage is contiguous.
        heap_.reserve(2 * N);
        for (T& e : inline_) heap_.push_back(std::move(e));
      }
      heap_.push_back(std::move(v));
    }
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return size_ <= N ? inline_ : heap_.data(); }
  const T* end() const { return begin() + size_; }
  const T& operator[](std::size_t i) const { return begin()[i]; }

 private:
  std::size_t size_ = 0;
  T inline_[N];
  std::vector<T> heap_;
};

class BackwardRewriter {
 public:
  using TermMap = BitPoly::TermMap;

  /// `substitutable[v]` marks variables that may later be substituted (gate
  /// outputs); only those are indexed. `max_terms` = 0 disables the budget.
  /// A control carrying a ResourceBudget additionally bounds the term map
  /// and occurrence index in bytes (site rewriter.terms).
  explicit BackwardRewriter(std::vector<bool> substitutable,
                            std::size_t max_terms = 0,
                            const ExecControl* control = nullptr)
      : substitutable_(std::move(substitutable)),
        occurs_(substitutable_.size()),
        max_terms_(max_terms),
        lease_(budget_of(control), BudgetSite::kRewriterTerms) {}

  void add(BitMono mono, const Gf2k::Elem& coeff) {
    add_impl(std::move(mono), coeff);
  }
  /// Move overload: on a fresh insert the coefficient's heap buffer moves
  /// into the map instead of being copied (one malloc per term at k > 64).
  void add(BitMono mono, Gf2k::Elem&& coeff) {
    add_impl(std::move(mono), std::move(coeff));
  }
  void add(const BitPoly& p) {
    for (const auto& [m, c] : p.terms()) add(m, c);
  }

  /// Replaces every occurrence of variable v by `tail` (a polynomial over
  /// variables that will be substituted after v, or never).
  void substitute(VarId v, const FlatTail& tail);

  std::size_t num_terms() const { return terms_.size(); }
  const TermMap& terms() const { return terms_; }

  /// Largest term-map size seen so far (sampled after every insertion).
  std::size_t peak_terms() const { return peak_terms_; }

  /// Terms substitute() has erased and re-expanded so far: the chain's unit
  /// of work (one per live occurrence of a substituted variable).
  std::size_t expansions() const { return expansions_; }

  /// Registered (possibly stale) occurrence-index entries for v.
  std::size_t occurrences(VarId v) const { return occurs_[v].size(); }

  /// Gate-lookahead prefetch hooks for the chain: a substitution typically
  /// affects a single term, so latency can only be hidden by warming the
  /// *next* gates' state while the current one expands. Two levels, matching
  /// the dependency chain: the occurrence list line first (its inline slots
  /// hold the pending monomials), then — one gate later, once that line is
  /// resident — the term-map slots those monomials probe. Advisory only.
  void prefetch_occurrence_list(VarId v) const {
    __builtin_prefetch(&occurs_[v], 0, 1);
  }
  void prefetch_pending(VarId v) const {
    const auto& pending = occurs_[v];
    std::size_t n = pending.size();
    if (n > 4) n = 4;  // a few lines of lead is all the loop can use
    for (std::size_t i = 0; i < n; ++i) terms_.prefetch(pending[i]);
  }

 private:
  template <class C>
  void add_impl(BitMono mono, C&& coeff) {
    if (coeff.is_zero()) return;
    GFA_FAULT_POINT("oom:rewriter.add");
    // Spent coefficient buffers (cancelled terms, unconsumed rvalues) are
    // recycled through a small pool: a copy-insert lands in a recycled
    // buffer's capacity instead of a fresh heap block.
    constexpr bool kByMove = !std::is_reference_v<C>;
    // try_emplace leaves `mono` (and `coeff`) intact when the key already
    // exists; it forwards the coefficient only on a fresh insert.
    std::pair<TermMap::iterator, bool> r;
    if constexpr (!kByMove) {
      r = terms_.try_emplace(std::move(mono));
      if (r.second) {
        Gf2k::Elem& slot = r.first->second;
        if (!elem_pool_.empty()) {
          slot = std::move(elem_pool_.back());
          elem_pool_.pop_back();
        }
        slot = coeff;
      }
    } else {
      r = terms_.try_emplace(std::move(mono), std::forward<C>(coeff));
    }
    auto [it, inserted] = r;
    if (!inserted) {
      it->second += coeff;
      if constexpr (kByMove) recycle(std::move(coeff));
      if (it->second.is_zero()) {
        spill_bytes_ -= it->first.spill_bytes();
        recycle(std::move(it->second));
        terms_.erase(it);
      }
      return;  // already indexed
    }
    spill_bytes_ += it->first.spill_bytes();
    for (VarId v : it->first) {
      if (substitutable_[v]) {
        occurs_[v].push_back(it->first);
        occ_bytes_ += occ_entry_bytes(it->first);
      }
    }
    if (terms_.size() > peak_terms_) peak_terms_ = terms_.size();
    if (max_terms_ && terms_.size() > max_terms_)
      throw RewriteBudgetExceeded("rewriting term budget exceeded");
    // Byte accounting is synced every 64 mutations — often enough to stop a
    // blow-up, rare enough to keep the atomics out of the inner loop. The
    // arena footprint is exact; coefficients add a per-term estimate (their
    // Gf2Poly word buffers live outside the arena).
    if (lease_.active() && (++budget_ops_ & 63u) == 0)
      lease_.set_bytes(terms_.allocated_bytes() + terms_.size() * 32 +
                       spill_bytes_ + occ_bytes_);
  }

  /// Heap footprint of one occurrence-index entry: the slot, plus the arena
  /// buffer of a spilled monomial.
  static std::size_t occ_entry_bytes(const BitMono& m) {
    return sizeof(BitMono) + m.spill_bytes();
  }

  /// Banks a spent coefficient's heap buffer for reuse (bounded pool).
  void recycle(Gf2k::Elem&& e) {
    if (elem_pool_.size() < kElemPoolCap) elem_pool_.push_back(std::move(e));
  }
  static constexpr std::size_t kElemPoolCap = 64;

  std::vector<bool> substitutable_;
  TermMap terms_;
  std::vector<InlineSmallVec<BitMono, 2>> occurs_;
  std::size_t max_terms_;
  std::size_t occ_bytes_ = 0;    // current occurrence-index footprint
  std::size_t spill_bytes_ = 0;  // arena bytes owned by keys in terms_
  std::size_t budget_ops_ = 0;   // mutation counter for the sync cadence
  std::size_t peak_terms_ = 0;   // high-water mark of terms_.size()
  std::size_t expansions_ = 0;   // live terms erased by substitute()
  std::vector<Gf2k::Elem> elem_pool_;  // recycled coefficient buffers
  BudgetLease lease_;            // releases everything on destruction
};

}  // namespace gfa
