#pragma once
// Canonical-form equivalence checking (the paper's verification problem).
//
// check_equivalence() decides on the bit-level remainders (extractor.h): both
// circuits are reduced to R_spec and R_impl over the same input-bit keys, and
// a function F_2^n → F_{2^k} has exactly one multilinear form, so the
// circuits are equivalent exactly when the remainders match term by term.
// The Case-2 lift to word polynomials is a bijective change of variables, so
// comparing the lifted forms (Corollary 4.1) gives the same verdict; the
// check skips it.
//
// A mismatch comes with a deterministic witness. Let D = R_spec + R_impl
// and m a minimum-degree monomial of D; set exactly m's bits to 1. No other
// monomial of D is a subset of m, so D there equals m's coefficient, which is
// nonzero: the circuits' outputs differ at that input.
//
// same_word_function() compares lifted forms (hierarchical composition and
// the service's canonical-form cache hold word polynomials, not remainders).
// A word-level difference is the buggy circuit's extra polynomial, as in
// the paper's Example 5.1.

#include <map>
#include <string>

#include "abstraction/extractor.h"
#include "circuit/netlist.h"

namespace gfa {

struct EquivalenceResult {
  bool equivalent = false;
  Remainder spec;
  Remainder impl;
  /// Empty when equivalent; otherwise a description of the first few
  /// monomials whose coefficients differ (bits named A[i]), or "input word
  /// names differ".
  std::string difference;
  /// On a coefficient mismatch, input word name -> element whose bit i is
  /// set exactly when the minimum-degree monomial of R_spec + R_impl holds
  /// that word's bit i (see above). Empty otherwise.
  std::map<std::string, Gf2k::Elem> witness;
};

/// Compares two word functions (possibly over different pools) by input word
/// *names*. Returns true iff they denote the same polynomial function; when
/// `difference` is non-null it receives a diff description on mismatch.
bool same_word_function(const WordFunction& f1, const WordFunction& f2,
                        std::string* difference = nullptr);

/// Full flow: reduce both circuits to their remainders over the field (one
/// options.basis for both) and match coefficients. Circuits whose input word
/// names differ are reported not equivalent, without a witness.
EquivalenceResult check_equivalence(const Netlist& spec, const Netlist& impl,
                                    const Gf2k& field,
                                    const ExtractionOptions& options = {});

/// Non-throwing variant with the same Status mapping as
/// try_extract_word_function (kInvalidArgument / kResourceExhausted /
/// kDeadlineExceeded / kCancelled).
Result<EquivalenceResult> try_check_equivalence(
    const Netlist& spec, const Netlist& impl, const Gf2k& field,
    const ExtractionOptions& options = {});

}  // namespace gfa
