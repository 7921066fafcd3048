#include "abstraction/hierarchy.h"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace gfa {

namespace {

/// Rewrites `src` (over `src_pool` word variables) into `target_pool`, mapping
/// every variable through `signal_poly` (polynomials over the target pool).
MPoly apply_signal_map(
    const MPoly& src, const VarPool& src_pool,
    const std::unordered_map<std::string, const MPoly*>& by_block_word,
    const Gf2k& field, const VarPool& target_pool) {
  MPoly out(&field);
  for (const auto& [mono, coeff] : src.terms()) {
    MPoly acc = MPoly::constant(&field, coeff);
    for (const auto& [v, e] : mono.factors()) {
      auto it = by_block_word.find(src_pool.name(v));
      if (it == by_block_word.end())
        throw std::logic_error("block polynomial mentions unbound word '" +
                               src_pool.name(v) + "'");
      // acc *= driver^e, normalized at each squaring step.
      const MPoly& base = *it->second;
      MPoly p = MPoly::constant(&field, field.one());
      const int bits = e.bit_length();
      for (int i = bits; i >= 0; --i) {
        p = (p * p).normalized_vanishing(target_pool);
        if (e.bit(static_cast<unsigned>(i)))
          p = (p * base).normalized_vanishing(target_pool);
      }
      acc = (acc * p).normalized_vanishing(target_pool);
    }
    out += acc;
  }
  return out.normalized_vanishing(target_pool);
}

}  // namespace

HierarchicalAbstraction abstract_hierarchy(const WordSignalGraph& graph,
                                           const Gf2k& field,
                                           const ExtractionOptions& options) {
  HierarchicalAbstraction result;
  WordFunction& composed = result.composed;

  // Shared word-level pool over the primary inputs.
  for (const std::string& name : graph.primary_inputs) {
    composed.pool.intern(name, VarKind::kWord);
    composed.input_words.push_back(name);
  }

  // Signal name -> polynomial over the primary inputs.
  std::unordered_map<std::string, MPoly> signal;
  for (const std::string& name : graph.primary_inputs)
    signal.emplace(name, MPoly::variable(&field, composed.pool.id(name)));

  // A block netlist instantiated several times (e.g. the shared multiplier of
  // an Itoh–Tsujii chain) is abstracted once. The unique blocks (the Fig. 1
  // blocks of a Montgomery multiplier) are abstracted in order on the calling
  // thread, each charging the run's budget directly; the parallelism lives in
  // each block's lift (see parallel_for.h).
  std::unordered_map<const Netlist*, WordFunction> memo;
  for (const WordSignalGraph::Instance& inst : graph.instances) {
    auto memo_it = memo.find(inst.block);
    if (memo_it == memo.end())
      memo_it = memo.emplace(inst.block, extract_word_function(
                                             *inst.block, field, options))
                    .first;
    WordFunction fn = memo_it->second;

    std::unordered_map<std::string, const MPoly*> bound;
    for (const auto& [block_word, sig] : inst.inputs) {
      auto it = signal.find(sig);
      if (it == signal.end())
        throw std::logic_error("instance '" + inst.name +
                               "' consumes undriven signal '" + sig + "'");
      bound.emplace(block_word, &it->second);
    }
    MPoly g = apply_signal_map(fn.g, fn.pool, bound, field, composed.pool);

    composed.stats.substitutions += fn.stats.substitutions;
    composed.stats.expansions += fn.stats.expansions;
    composed.stats.peak_terms =
        std::max(composed.stats.peak_terms, fn.stats.peak_terms);
    result.blocks.emplace_back(inst.name, std::move(fn));

    if (!signal.emplace(inst.output_signal, std::move(g)).second)
      throw std::logic_error("signal '" + inst.output_signal + "' driven twice");
  }

  auto it = signal.find(graph.output_signal);
  if (it == signal.end())
    throw std::logic_error("output signal '" + graph.output_signal + "' undriven");
  composed.g = it->second;
  composed.output_word = graph.output_signal;
  return result;
}

HierarchicalAbstraction abstract_montgomery(const MontgomeryHierarchy& h,
                                            const Gf2k& field,
                                            const ExtractionOptions& options) {
  WordSignalGraph graph;
  graph.primary_inputs = {"A", "B"};
  graph.instances = {
      {&h.blk_a, "Blk A", {{"X", "A"}}, "AR"},
      {&h.blk_b, "Blk B", {{"X", "B"}}, "BR"},
      {&h.blk_mid, "Blk Mid", {{"X", "AR"}, {"Y", "BR"}}, "T"},
      {&h.blk_out, "Blk Out", {{"X", "T"}}, "G"},
  };
  graph.output_signal = "G";
  return abstract_hierarchy(graph, field, options);
}

}  // namespace gfa
