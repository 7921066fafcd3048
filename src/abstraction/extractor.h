#pragma once
// Word-level abstraction of a gate-level circuit (paper §4–§5), in two parts.
//
// extract_remainder() runs the paper's guided Gröbner-basis computation up to
// the bit-level remainder:
//
//   Impose RATO. The only critical pair with non-relatively-prime leading
//   terms is (f_w, f_g): the word-output definition z_0 + z_1α + … + Z
//   against the gate driving z_0. Spoly(f_w, f_g) followed by reduction
//   modulo {gate polynomials} ∪ J_0 is realized as *backward substitution*:
//   starting from Σ z_jα^j, every gate-output variable is replaced by its
//   tail, in reverse-topological order, in the multilinear BitPoly engine
//   (x² → x applied eagerly). The result is the remainder R over primary
//   input bits only: Σ_j b_j·z_j ≡ R(a, b, …).
//
// R is multilinear, and a function F_2^n → F_{2^k} has exactly one
// multilinear form, so two circuits whose words share one basis compute the
// same function exactly when their remainders match term by term. That is
// how check_equivalence() (equivalence.h) decides.
//
// lift_remainder() is the paper's Case 2 (§5 3(b)): it lifts the input bits
// to word variables with the Frobenius basis change (see word_lift.h) and
// returns the unique canonical polynomial F with Z = F(A, B, …). Case 1 (R
// constant) needs no lift. extract_word_function() is the lift applied to
// extract_remainder(); the Gröbner basis of J + J_0 under the abstraction
// order contains exactly Z + F (Theorem 4.2 / Corollary 4.1). The lift is a
// bijective change of variables, so it adds nothing to a verdict; it serves
// `gfa_tool extract`, hierarchical composition and the canonical-form cache.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abstraction/packed_mono.h"
#include "circuit/netlist.h"
#include "poly/mpoly.h"
#include "util/exec_control.h"
#include "util/status.h"

namespace gfa {

/// Checkpoint/resume of the backward-rewriting chain (storage format and
/// integrity rules in src/worker/checkpoint.h). Progress is saved every
/// `interval` substitution steps under `directory`, keyed by the circuit's
/// content hash and the output word, and removed after a completed
/// extraction. With `resume` set, a matching checkpoint seeds the rewriter
/// and the first `step` substitutions are skipped; a missing, damaged, or
/// mismatched (different circuit/k/word) checkpoint falls back to a fresh
/// start — a stale file can cost time, never correctness.
struct ExtractionCheckpoint {
  std::string directory;
  std::uint64_t interval = 1000;
  bool resume = false;
};

struct ExtractionOptions {
  /// Abort when the intermediate polynomial exceeds this many terms
  /// (0 = unlimited). Tripping raises ExtractionBudgetExceeded.
  std::size_t max_terms = 0;
  /// The basis interpreting every word's bits: A = Σ a_i·basis[i]. Null means
  /// the polynomial basis {α^i}; pass a NormalBasis::basis() for circuits
  /// whose words are normal-basis coordinates (e.g. Massey–Omura multipliers).
  const std::vector<Gf2k::Elem>* basis = nullptr;
  /// Deadline/cancellation, checkpointed once per gate in the
  /// backward-rewriting loop, inside the basis change, and per chunk of the
  /// lift's parallel_for loops. Everything but those lift loops runs on the
  /// calling thread, whatever the pool width, including the output words of
  /// extract_all_word_functions and the blocks of abstract_hierarchy.
  /// Expiry unwinds via StatusError; the try_* entry points below convert
  /// it to a Status.
  const ExecControl* control = nullptr;
  /// Periodic reduction-chain checkpointing (null = off; see above).
  const ExtractionCheckpoint* checkpoint = nullptr;
};

struct ExtractionStats {
  std::size_t substitutions = 0;     // gate tails substituted
  std::size_t expansions = 0;        // terms erased and re-expanded by them
  std::size_t peak_terms = 0;        // largest intermediate polynomial
  std::size_t remainder_terms = 0;   // |R| before the word lift
  std::size_t remainder_degree = 0;  // largest monomial (bit count) in R
  bool case1 = false;                // remainder had no input bits
  bool resumed = false;              // continued from a reduction checkpoint
};

/// A circuit's function at bit level: the reduction chain's remainder R with
/// Σ_j basis[j]·z_j ≡ R(input bits), as nonzero terms sorted by monomial.
/// Variables are keyed by input word *name* and bit: bit i of the word whose
/// name ranks r-th in sorted order is variable r·k + i. Two circuits with the
/// same input word names therefore share variables whatever their
/// declaration order or net names.
struct Remainder {
  std::vector<std::pair<PackedMono, Gf2k::Elem>> terms;
  std::string output_word;
  std::vector<std::string> input_words;  // names, in netlist declaration order
  ExtractionStats stats;
};

/// A circuit's function at word level: Z = g(input words).
struct WordFunction {
  VarPool pool;          // word variables (and input-bit variables, unused in g)
  MPoly g;               // canonical polynomial over the input word variables
  std::string output_word;
  std::vector<std::string> input_words;  // names, in netlist declaration order
  ExtractionStats stats;
};

struct ExtractionBudgetExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs the reduction chain of the circuit's sole output word. Requirements:
/// exactly one output word; every primary input belongs to exactly one input
/// word; all words are k bits wide with k = field.k(); options.basis, when
/// set, is linearly independent.
Remainder extract_remainder(const Netlist& netlist, const Gf2k& field,
                            const ExtractionOptions& options = {});

/// The Case-2 lift of a remainder to its canonical word polynomial, under
/// options.basis (which must be the basis `r` was extracted with) and
/// options.control.
WordFunction lift_remainder(const Remainder& r, const Gf2k& field,
                            const ExtractionOptions& options = {});

/// Abstracts the circuit: lift_remainder(extract_remainder(…)), with the
/// same requirements.
WordFunction extract_word_function(const Netlist& netlist, const Gf2k& field,
                                   const ExtractionOptions& options = {});

/// Abstracts one named output word of a circuit that may declare several
/// (e.g. the X3/Z3 words of an ECC point operation).
WordFunction extract_word_function_for(const Netlist& netlist, const Gf2k& field,
                                       std::string_view output_word_name,
                                       const ExtractionOptions& options = {});

/// Abstracts every output word; one WordFunction per word, in declaration
/// order.
std::vector<WordFunction> extract_all_word_functions(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options = {});

/// Non-throwing entry points: malformed circuits map to kInvalidArgument,
/// a tripped max_terms budget to kResourceExhausted, and an expired
/// ExtractionOptions::control to kDeadlineExceeded / kCancelled.
Result<WordFunction> try_extract_word_function(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options = {});
Result<std::vector<WordFunction>> try_extract_all_word_functions(
    const Netlist& netlist, const Gf2k& field,
    const ExtractionOptions& options = {});

}  // namespace gfa
