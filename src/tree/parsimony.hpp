// Fitch parsimony and randomized stepwise-addition starting trees.
//
// RAxML-Light and ExaML start their ML searches from randomized
// stepwise-addition parsimony trees: taxa are added in random order, each at
// the position minimizing the Fitch parsimony score.  Fitch runs bit-sliced,
// 64 patterns per word operation, and each candidate position is scored
// from cached subtree state sets instead of a full re-score (DESIGN.md §17).
#pragma once

#include <cstdint>

#include "src/bio/patterns.hpp"
#include "src/tree/tree.hpp"
#include "src/util/rng.hpp"

namespace miniphi::tree {

/// Weighted Fitch parsimony score of a complete tree.
std::uint64_t fitch_score(const Tree& tree, const bio::PatternSet& patterns);

/// Builds a starting topology by randomized stepwise addition under
/// parsimony; ties are broken by insertion order (deterministic given seed).
Tree parsimony_starting_tree(const bio::PatternSet& patterns, Rng& rng);

}  // namespace miniphi::tree
