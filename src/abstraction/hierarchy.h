#pragma once
// Hierarchical abstraction (paper §6, Table 2 flow).
//
// When the implementation is an interconnection of blocks (the Montgomery
// multiplier of Fig. 1), each block is abstracted gate-level → word-level
// separately, and the block polynomials are then composed *at word level*:
// every word signal of the hierarchy gets a polynomial over the primary word
// inputs by substituting driver polynomials into block polynomials — the
// paper's "approach re-applied at word level (solved trivially in < 1 s)".

#include <string>
#include <vector>

#include "abstraction/extractor.h"
#include "circuit/montgomery.h"
#include "circuit/netlist.h"

namespace gfa {

/// A dataflow of word-level signals through blocks. Signals are identified by
/// name; `inputs` binds each block input word to a driving signal.
struct WordSignalGraph {
  struct Instance {
    const Netlist* block;
    std::string name;  // for reporting
    std::vector<std::pair<std::string, std::string>> inputs;  // block word -> signal
    std::string output_signal;
  };
  std::vector<std::string> primary_inputs;
  std::vector<Instance> instances;  // in dataflow order
  std::string output_signal;
};

struct HierarchicalAbstraction {
  WordFunction composed;  // Z = g(primary inputs)
  std::vector<std::pair<std::string, WordFunction>> blocks;  // per-block results
};

/// Abstracts each distinct block once, in instance order on the calling
/// thread, and composes along the graph.
HierarchicalAbstraction abstract_hierarchy(const WordSignalGraph& graph,
                                           const Gf2k& field,
                                           const ExtractionOptions& options = {});

/// The Fig. 1 Montgomery hierarchy: AR = a(A), BR = b(B), T = mid(AR, BR),
/// Z = out(T); returns the composed polynomial (A·B for a correct design).
HierarchicalAbstraction abstract_montgomery(const MontgomeryHierarchy& h,
                                            const Gf2k& field,
                                            const ExtractionOptions& options = {});

}  // namespace gfa
