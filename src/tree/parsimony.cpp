#include "src/tree/parsimony.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "src/util/error.hpp"

namespace miniphi::tree {
namespace {

constexpr std::size_t kMaxPlanes = 8;  // DnaCode is one byte
/// Words per pass: 1,024 patterns, so the inner rows of a pass stay in cache
/// and the layout's memory is the tip rows plus one small block.
constexpr std::size_t kBlockWords = 16;

/// Bit-sliced Fitch state sets, one row per tree slot (DESIGN.md §17).
///
/// Plane j of a row holds bit j of every pattern's state set, 64 patterns to
/// a word; a row stores its planes interleaved per word, so a join streams
/// each input once.  Patterns are regrouped so that every word holds
/// patterns of one weight (order does not matter to Fitch), which turns the
/// weighted cost of a word into one multiply of a popcount.  Zero-weight
/// patterns (bootstrap resamples) cost nothing and are left out.  Tip rows
/// span every word; inner rows and costs hold one block of words at a time,
/// and Fitch costs are sums over patterns, so callers add up the blocks.
class FitchRows {
 public:
  FitchRows(const bio::PatternSet& patterns, int slot_count) {
    std::vector<std::uint32_t> order;
    order.reserve(patterns.pattern_count());
    for (std::size_t p = 0; p < patterns.pattern_count(); ++p) {
      if (patterns.weights[p] != 0) order.push_back(static_cast<std::uint32_t>(p));
    }
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return patterns.weights[a] < patterns.weights[b];
    });

    // word_of/bit_of place each kept pattern; a weight change starts a word.
    std::vector<std::uint32_t> word_of(order.size());
    std::vector<std::uint8_t> bit_of(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::uint32_t weight = patterns.weights[order[k]];
      if (valid_.empty() || weight_.back() != weight || valid_.back() == ~std::uint64_t{0}) {
        weight_.push_back(weight);
        valid_.push_back(0);
      }
      const auto bit = static_cast<std::uint8_t>(std::popcount(valid_.back()));
      valid_.back() |= std::uint64_t{1} << bit;
      word_of[k] = static_cast<std::uint32_t>(valid_.size() - 1);
      bit_of[k] = bit;
    }

    unsigned code_union = 0;
    for (const auto& row : patterns.tip_rows) {
      for (const std::uint32_t p : order) code_union |= row[p];
    }
    planes_ = static_cast<std::size_t>(std::bit_width(code_union));
    MINIPHI_ASSERT(planes_ <= kMaxPlanes);

    // Tip t owns slot index t; its row never changes.
    tips_.assign(patterns.taxon_count() * valid_.size() * planes_, 0);
    for (std::size_t t = 0; t < patterns.taxon_count(); ++t) {
      std::uint64_t* out = tips_.data() + t * valid_.size() * planes_;
      const auto& codes = patterns.tip_rows[t];
      for (std::size_t k = 0; k < order.size(); ++k) {
        const unsigned code = codes[order[k]];
        std::uint64_t* word = out + word_of[k] * planes_;
        for (std::size_t j = 0; j < planes_; ++j) {
          word[j] |= static_cast<std::uint64_t>((code >> j) & 1u) << bit_of[k];
        }
      }
    }
    block_.assign(static_cast<std::size_t>(slot_count) * kBlockWords * planes_, 0);
    cost_.assign(static_cast<std::size_t>(slot_count), 0);
  }

  [[nodiscard]] std::size_t block_count() const {
    return (valid_.size() + kBlockWords - 1) / kBlockWords;
  }

  /// Points the inner rows, the costs and every score at block `block`.
  void select_block(std::size_t block) {
    first_ = block * kBlockWords;
    words_ = std::min(kBlockWords, valid_.size() - first_);
  }

  /// Sets slot s's Fitch set and subtree cost from its two children.
  void compute(const Slot* s) {
    const Slot* c1 = s->child1();
    const Slot* c2 = s->child2();
    cost_[index(s)] = cost_[index(c1)] + cost_[index(c2)] + join(row(c1), row(c2), inner_row(s));
  }

  /// Cost of the tree formed by hanging tip `t` off the edge (e, e->back):
  /// both subtree costs plus the two joins at the new node, fused into one
  /// pass with no output row.
  [[nodiscard]] std::uint64_t insertion_score(const Slot* e, const Slot* t) const {
    const std::uint64_t* a = row(e);
    const std::uint64_t* b = row(e->back);
    const std::uint64_t* c = row(t);
    std::uint64_t changes = 0;
    for (std::size_t w = first_; w < first_ + words_;
         ++w, a += planes_, b += planes_, c += planes_) {
      std::uint64_t inter[kMaxPlanes];
      std::uint64_t any = 0;
      for (std::size_t j = 0; j < planes_; ++j) {
        inter[j] = a[j] & b[j];
        any |= inter[j];
      }
      const std::uint64_t empty = ~any & valid_[w];
      std::uint64_t any_tip = 0;
      for (std::size_t j = 0; j < planes_; ++j) {
        any_tip |= (inter[j] | (empty & (a[j] | b[j]))) & c[j];
      }
      const std::uint64_t empty_tip = ~any_tip & valid_[w];
      changes += std::uint64_t{weight_[w]} *
                 static_cast<std::uint64_t>(std::popcount(empty) + std::popcount(empty_tip));
    }
    return cost(e) + cost(e->back) + changes;
  }

  /// Score of the tree rooted on the edge (a, b): both subtree costs plus
  /// the join across it.
  [[nodiscard]] std::uint64_t edge_score(const Slot* a, const Slot* b) const {
    const std::uint64_t* x = row(a);
    const std::uint64_t* y = row(b);
    std::uint64_t changes = 0;
    for (std::size_t w = first_; w < first_ + words_; ++w, x += planes_, y += planes_) {
      std::uint64_t any = 0;
      for (std::size_t j = 0; j < planes_; ++j) any |= x[j] & y[j];
      changes += std::uint64_t{weight_[w]} *
                 static_cast<std::uint64_t>(std::popcount(~any & valid_[w]));
    }
    return cost(a) + cost(b) + changes;
  }

 private:
  static std::size_t index(const Slot* s) { return static_cast<std::size_t>(s->slot_index); }
  [[nodiscard]] std::uint64_t cost(const Slot* s) const { return cost_[index(s)]; }
  [[nodiscard]] const std::uint64_t* row(const Slot* s) const {
    return s->is_tip() ? tips_.data() + (index(s) * valid_.size() + first_) * planes_
                       : block_.data() + index(s) * kBlockWords * planes_;
  }
  std::uint64_t* inner_row(const Slot* s) {
    MINIPHI_ASSERT(!s->is_tip());
    return block_.data() + index(s) * kBlockWords * planes_;
  }

  /// Fitch join: out = a ∩ b where nonempty, a ∪ b elsewhere; returns the
  /// weighted count of the union patterns.
  std::uint64_t join(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const {
    std::uint64_t changes = 0;
    for (std::size_t w = first_; w < first_ + words_;
         ++w, a += planes_, b += planes_, out += planes_) {
      std::uint64_t inter[kMaxPlanes];
      std::uint64_t any = 0;
      for (std::size_t j = 0; j < planes_; ++j) {
        inter[j] = a[j] & b[j];
        any |= inter[j];
      }
      const std::uint64_t empty = ~any & valid_[w];
      for (std::size_t j = 0; j < planes_; ++j) out[j] = inter[j] | (empty & (a[j] | b[j]));
      changes += std::uint64_t{weight_[w]} * static_cast<std::uint64_t>(std::popcount(empty));
    }
    return changes;
  }

  std::size_t planes_ = 0;
  std::size_t first_ = 0;              ///< first word of the selected block
  std::size_t words_ = 0;              ///< words in the selected block
  std::vector<std::uint32_t> weight_;  ///< per word: the weight of all its patterns
  std::vector<std::uint64_t> valid_;   ///< per word: which bits hold a pattern
  std::vector<std::uint64_t> tips_;    ///< per taxon, every word: its tip codes
  std::vector<std::uint64_t> block_;   ///< per slot index, selected block: the set behind it
  std::vector<std::uint64_t> cost_;    ///< per slot index, selected block: the cost behind it
};

/// Collects one canonical slot per edge of the component behind `slot`, in
/// preorder away from it: edge (s, s->back) precedes every edge beyond s->back.
void collect_component_edges(const Slot* slot, std::vector<const Slot*>& out) {
  out.push_back(slot);
  if (slot->back->is_tip()) return;
  collect_component_edges(slot->back->next, out);
  collect_component_edges(slot->back->next->next, out);
}

/// Fills the Fitch set of every directed slot of the component behind
/// `edges.front()`.  Reverse preorder computes the sets facing away from the
/// anchor (each from the two beyond it); `both_directions` then walks
/// forward for the sets facing the anchor, each from its parent's and
/// sibling's.
void compute_component(FitchRows& rows, const std::vector<const Slot*>& edges,
                       bool both_directions) {
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    if (!(*it)->back->is_tip()) rows.compute((*it)->back);
  }
  if (!both_directions) return;
  for (const Slot* s : edges) {
    if (!s->is_tip()) rows.compute(s);
  }
}

}  // namespace

std::uint64_t fitch_score(const Tree& tree, const bio::PatternSet& patterns) {
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "fitch_score: tree and patterns disagree on taxon count");
  const Slot* anchor = tree.tip(0);
  MINIPHI_ASSERT(anchor->back != nullptr);
  FitchRows rows(patterns, tree.slot_count());
  std::vector<const Slot*> edges;
  collect_component_edges(anchor, edges);
  std::uint64_t score = 0;
  for (std::size_t block = 0; block < rows.block_count(); ++block) {
    rows.select_block(block);
    compute_component(rows, edges, false);
    score += rows.edge_score(anchor, anchor->back);
  }
  return score;
}

Tree parsimony_starting_tree(const bio::PatternSet& patterns, Rng& rng) {
  const int ntaxa = static_cast<int>(patterns.taxon_count());
  MINIPHI_CHECK(ntaxa >= 3, "parsimony_starting_tree: need at least 3 taxa");
  Tree tree(ntaxa);

  std::vector<int> order(static_cast<std::size_t>(ntaxa));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  tree.connect(tree.tip(order[0]), tree.inner_slot(0, 0), kDefaultBranchLength);
  tree.connect(tree.tip(order[1]), tree.inner_slot(0, 1), kDefaultBranchLength);
  tree.connect(tree.tip(order[2]), tree.inner_slot(0, 2), kDefaultBranchLength);

  // The Fitch length of an unrooted tree does not depend on where it is
  // rooted, so scoring each candidate at its own new node gives the integer
  // a full re-score from the anchor would.
  FitchRows rows(patterns, tree.slot_count());
  std::vector<const Slot*> edges;
  std::vector<std::uint64_t> scores;
  for (int i = 3; i < ntaxa; ++i) {
    Slot* tip = tree.tip(order[static_cast<std::size_t>(i)]);
    edges.clear();
    collect_component_edges(tree.tip(order[0]), edges);
    scores.assign(edges.size(), 0);
    for (std::size_t block = 0; block < rows.block_count(); ++block) {
      rows.select_block(block);
      compute_component(rows, edges, true);
      for (std::size_t k = 0; k < edges.size(); ++k) {
        scores[k] += rows.insertion_score(edges[k], tip);
      }
    }

    const Slot* best_edge = nullptr;
    std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t k = 0; k < edges.size(); ++k) {
      if (scores[k] < best_score) {
        best_score = scores[k];
        best_edge = edges[k];
      }
    }
    MINIPHI_ASSERT(best_edge != nullptr);

    Slot* edge = tree.slot(best_edge->slot_index);
    Slot* other = edge->back;
    const double length = edge->length;
    tree.disconnect(edge);
    tree.connect(edge, tree.inner_slot(i - 2, 0), length * 0.5);
    tree.connect(other, tree.inner_slot(i - 2, 1), length * 0.5);
    tree.connect(tip, tree.inner_slot(i - 2, 2), kDefaultBranchLength);
  }
  tree.validate();
  return tree;
}

}  // namespace miniphi::tree
