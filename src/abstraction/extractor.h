#pragma once
// Word-level abstraction of a gate-level circuit (paper §4–§5).
//
// extract_word_function() computes the unique canonical polynomial F with
// Z = F(A, B, …) implemented by the circuit, via the paper's guided
// Gröbner-basis computation:
//
//   1. Impose RATO. The only critical pair with non-relatively-prime leading
//      terms is (f_w, f_g): the word-output definition z_0 + z_1α + … + Z
//      against the gate driving z_0. Spoly(f_w, f_g) followed by reduction
//      modulo {gate polynomials} ∪ J_0 is realized as *backward substitution*:
//      starting from Σ z_jα^j, every gate-output variable is replaced by its
//      tail, in reverse-topological order, in the multilinear BitPoly engine
//      (x² → x applied eagerly). The result is the remainder r over primary
//      input bits only.
//   2. Case 1: r is constant — done. Case 2: lift the input bits to word
//      variables with the Frobenius basis change (see word_lift.h), the
//      reduced-Gröbner-basis step of §5 3(b).
//
// The returned polynomial G satisfies: the Gröbner basis of J + J_0 under the
// abstraction order contains exactly Z + G (Theorem 4.2 / Corollary 4.1), so
// two circuits are equivalent iff their G's match coefficient-wise.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "abstraction/bitpoly.h"
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
  std::size_t peak_terms = 0;        // largest intermediate polynomial
  std::size_t remainder_terms = 0;   // |r| before the word lift
  std::size_t remainder_degree = 0;  // largest monomial (bit count) in r
  bool case1 = false;                // remainder had no input bits
  bool resumed = false;              // continued from a reduction checkpoint
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

/// Abstracts the circuit. Requirements: exactly one output word; every
/// primary input belongs to exactly one input word; all words are k bits wide
/// with k = field.k().
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
