// Tests for src/tree: structure invariants, Newick round trips, traversal,
// SPR/NNI moves with undo, splits/RF, parsimony.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <set>

#include "src/bio/protein_alignment.hpp"
#include "src/tree/moves.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/splits.hpp"
#include "src/tree/tree.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi::tree {
namespace {

TEST(Tree, CountsAreConsistent) {
  Tree tree(7);
  EXPECT_EQ(tree.taxon_count(), 7);
  EXPECT_EQ(tree.inner_count(), 5);
  EXPECT_EQ(tree.edge_count(), 11);
  EXPECT_EQ(tree.slot_count(), 22);
  EXPECT_THROW(Tree(2), Error);
}

class RandomTree : public ::testing::TestWithParam<int> {};

TEST_P(RandomTree, IsValidBinaryUnrooted) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Tree tree = Tree::random(GetParam() + 3, rng);
  EXPECT_NO_THROW(tree.validate());
  EXPECT_EQ(static_cast<int>(tree.edges().size()), tree.edge_count());
  // Every tip connects to an inner node.
  for (int i = 0; i < tree.taxon_count(); ++i) {
    EXPECT_FALSE(tree.tip(i)->back->is_tip());
  }
}

TEST_P(RandomTree, CopyIsDeepAndEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  Tree tree = Tree::random(GetParam() + 4, rng);
  Tree copy(tree);
  copy.validate();
  EXPECT_EQ(robinson_foulds(tree, copy), 0);
  // Mutating the copy must not affect the original.
  Tree::set_length(copy.tip(0), 9.9);
  EXPECT_NE(tree.tip(0)->length, 9.9);
}

TEST_P(RandomTree, NewickRoundTripPreservesTopology) {
  const int ntaxa = GetParam() + 4;
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 7);
  Tree tree = Tree::random(ntaxa, rng);
  const auto names = testutil::taxon_names(ntaxa);
  const std::string newick = tree.to_newick(names);
  const auto ast = io::parse_newick(newick);
  Tree parsed = Tree::from_newick(*ast, names);
  EXPECT_EQ(robinson_foulds(tree, parsed), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomTree, ::testing::Values(0, 1, 2, 5, 10, 20, 47));

TEST(Tree, FromNewickTrifurcatingRoot) {
  const auto ast = io::parse_newick("((t0:0.1,t1:0.2):0.3,t2:0.4,t3:0.5);");
  Tree tree = Tree::from_newick(*ast, testutil::taxon_names(4));
  tree.validate();
  EXPECT_EQ(tree.taxon_count(), 4);
}

TEST(Tree, FromNewickCollapsesRootedTrees) {
  // Rooted (binary root) input: root branch lengths are fused.
  const auto ast = io::parse_newick("((t0:0.1,t1:0.2):0.3,t2:0.4);");
  Tree tree = Tree::from_newick(*ast, testutil::taxon_names(3));
  tree.validate();
  // Fused branch t2<->inner should be 0.3 + 0.4.
  EXPECT_NEAR(tree.tip(2)->length, 0.7, 1e-12);
}

TEST(Tree, FromNewickRejectsBadInput) {
  const auto names3 = testutil::taxon_names(3);
  EXPECT_THROW(Tree::from_newick(*io::parse_newick("(t0:1,t1:1,zzz:1);"), names3), Error);
  EXPECT_THROW(Tree::from_newick(*io::parse_newick("(t0:1,t1:1,t2:1,t3:1);"), names3), Error);
  // Multifurcation below the root.
  const auto names5 = testutil::taxon_names(5);
  EXPECT_THROW(Tree::from_newick(*io::parse_newick("((t0,t1,t2),t3,t4);"), names5), Error);
}

TEST(Tree, TraversalIsPostOrderAndComplete) {
  Rng rng(3);
  Tree tree = Tree::random(10, rng);
  const auto order = tree.full_traversal(tree.tip(0)->back);
  // All 8 inner nodes appear exactly once...
  std::set<int> nodes;
  for (const Slot* s : order) nodes.insert(s->node_id);
  EXPECT_EQ(order.size(), 8u);
  EXPECT_EQ(nodes.size(), 8u);
  // ...and children always precede parents.
  std::set<const Slot*> done;
  for (const Slot* s : order) {
    for (const Slot* child : {s->child1(), s->child2()}) {
      if (!child->is_tip()) {
        EXPECT_TRUE(done.count(child)) << "child after parent";
      }
    }
    done.insert(s);
  }
}

TEST(Tree, PartialTraversalRespectsValidity) {
  Rng rng(4);
  Tree tree = Tree::random(8, rng);
  Slot* goal = tree.tip(0)->back;
  // Nothing valid: full list.  Everything valid: empty list.
  EXPECT_EQ(tree.traversal(goal, [](const Slot*) { return true; }).size(), 6u);
  EXPECT_TRUE(tree.traversal(goal, [](const Slot*) { return false; }).empty());
}

TEST(Moves, PruneRegraftChangesTopologyAndUndoRestoresIt) {
  Rng rng(11);
  Tree tree = Tree::random(12, rng);
  const Tree original(tree);

  // Prune some inner node with a tip subtree behind it.
  Slot* p = tree.tip(5)->back;
  ASSERT_FALSE(p->is_tip());
  const auto record = prune(tree, p);

  // Regraft into a distant edge.
  const auto candidates = insertion_candidates(record, 3);
  ASSERT_FALSE(candidates.empty());
  regraft(tree, record, candidates.back());
  tree.validate();
  EXPECT_GT(robinson_foulds(original, tree), 0);

  // Remove the graft and restore the original position.
  ungraft(tree, record);
  undo_prune(tree, record);
  tree.validate();
  EXPECT_EQ(robinson_foulds(original, tree), 0);

  // Branch lengths restored too.
  for (int i = 0; i < tree.slot_count(); ++i) {
    EXPECT_DOUBLE_EQ(tree.slot(i)->length, original.slot(i)->length);
  }
}

TEST(Moves, PrunePreservesTotalPathLength) {
  Rng rng(12);
  Tree tree = Tree::random(9, rng);
  Slot* p = tree.tip(2)->back;
  const double joined = p->next->length + p->next->next->length;
  const auto record = prune(tree, p);
  EXPECT_DOUBLE_EQ(record.left->length, joined);
  undo_prune(tree, record);
  tree.validate();
}

TEST(Moves, NniTwiceIsIdentity) {
  Rng rng(13);
  Tree tree = Tree::random(10, rng);
  const Tree original(tree);
  Slot* internal = nullptr;
  for (Slot* e : tree.edges()) {
    if (!e->is_tip() && !e->back->is_tip()) {
      internal = e;
      break;
    }
  }
  ASSERT_NE(internal, nullptr);
  for (const int variant : {0, 1}) {
    ASSERT_TRUE(nni(tree, internal, variant));
    tree.validate();
    EXPECT_GT(robinson_foulds(original, tree), 0);
    ASSERT_TRUE(nni(tree, internal, variant));
    tree.validate();
    EXPECT_EQ(robinson_foulds(original, tree), 0);
  }
}

TEST(Moves, NniOnTerminalEdgeIsRejected) {
  Rng rng(14);
  Tree tree = Tree::random(6, rng);
  EXPECT_FALSE(nni(tree, tree.tip(0), 0));
}

TEST(Moves, InsertionCandidatesGrowWithRadius) {
  Rng rng(15);
  Tree tree = Tree::random(20, rng);
  Slot* p = tree.tip(7)->back;
  const auto record = prune(tree, p);
  const auto near = insertion_candidates(record, 1);
  const auto far = insertion_candidates(record, 5);
  EXPECT_GT(far.size(), near.size());
  // All candidates are live edges.
  for (const Slot* e : far) EXPECT_NE(e->back, nullptr);
  undo_prune(tree, record);
}

TEST(Splits, IdenticalTreesHaveZeroDistance) {
  Rng rng(21);
  Tree a = Tree::random(15, rng);
  Tree b(a);
  EXPECT_EQ(robinson_foulds(a, b), 0);
  EXPECT_DOUBLE_EQ(robinson_foulds_normalized(a, b), 0.0);
}

TEST(Splits, DifferentRandomTreesAreFar) {
  Rng rng1(31), rng2(32);
  Tree a = Tree::random(30, rng1);
  Tree b = Tree::random(30, rng2);
  const int rf = robinson_foulds(a, b);
  EXPECT_GT(rf, 0);
  EXPECT_LE(rf, 2 * (30 - 3));
  EXPECT_EQ(robinson_foulds(a, b), robinson_foulds(b, a));
}

TEST(Splits, CountsNonTrivialSplits) {
  Rng rng(41);
  Tree tree = Tree::random(10, rng);
  EXPECT_EQ(tree_splits(tree).size(), 7u);  // n - 3 internal edges
}

TEST(Parsimony, PerfectDataScoresMinimal) {
  // One column, all taxa identical: zero mutations.
  io::SequenceSet records = {{"t0", "A"}, {"t1", "A"}, {"t2", "A"}, {"t3", "A"}};
  bio::Alignment alignment(records);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(1);
  Tree tree = Tree::random(4, rng);
  EXPECT_EQ(fitch_score(tree, patterns), 0u);
}

TEST(Parsimony, SingleVariantColumnCostsOne) {
  io::SequenceSet records = {{"t0", "A"}, {"t1", "A"}, {"t2", "A"}, {"t3", "C"}};
  bio::Alignment alignment(records);
  const auto patterns = bio::compress_patterns(alignment);
  Rng rng(2);
  Tree tree = Tree::random(4, rng);
  EXPECT_EQ(fitch_score(tree, patterns), 1u);
}

TEST(Parsimony, WeightsMultiplyCosts) {
  io::SequenceSet records = {{"t0", "AAAC"}, {"t1", "AAAC"}, {"t2", "AAAA"}, {"t3", "CCCA"}};
  bio::Alignment alignment(records);
  const auto compressed = bio::compress_patterns(alignment);
  const auto uncompressed = bio::uncompressed_patterns(alignment);
  Rng rng(3);
  Tree tree = Tree::random(4, rng);
  EXPECT_EQ(fitch_score(tree, compressed), fitch_score(tree, uncompressed));
}

TEST(Parsimony, StartingTreeBeatsRandomTree) {
  Rng rng(51);
  const auto alignment = testutil::random_alignment(12, 200, rng);
  const auto patterns = bio::compress_patterns(alignment);

  Rng rng_tree(52);
  Tree start = parsimony_starting_tree(patterns, rng_tree);
  start.validate();

  // Compare against the average of a few random topologies.
  std::uint64_t random_total = 0;
  const int trials = 5;
  for (int i = 0; i < trials; ++i) {
    Tree random_tree = Tree::random(12, rng_tree);
    random_total += fitch_score(random_tree, patterns);
  }
  EXPECT_LE(fitch_score(start, patterns), random_total / trials);
}

TEST(Parsimony, StartingTreeIsDeterministicGivenSeed) {
  Rng rng(61);
  const auto alignment = testutil::random_alignment(10, 100, rng);
  const auto patterns = bio::compress_patterns(alignment);
  Rng a(99), b(99);
  Tree ta = parsimony_starting_tree(patterns, a);
  Tree tb = parsimony_starting_tree(patterns, b);
  EXPECT_EQ(robinson_foulds(ta, tb), 0);
}

// Reference for the bit-sliced parsimony: the recursive byte-per-pattern
// Fitch pass, re-run over the whole tree for every candidate insertion.
namespace naive {

std::vector<bio::DnaCode> fitch_down(const Slot* slot, const bio::PatternSet& patterns,
                                     std::uint64_t& cost) {
  if (slot->is_tip()) return patterns.tip_rows[static_cast<std::size_t>(slot->node_id)];
  const auto s1 = fitch_down(slot->child1(), patterns, cost);
  const auto s2 = fitch_down(slot->child2(), patterns, cost);
  std::vector<bio::DnaCode> out(patterns.pattern_count());
  for (std::size_t p = 0; p < out.size(); ++p) {
    const auto inter = static_cast<bio::DnaCode>(s1[p] & s2[p]);
    if (inter != 0) {
      out[p] = inter;
    } else {
      out[p] = static_cast<bio::DnaCode>(s1[p] | s2[p]);
      cost += patterns.weights[p];
    }
  }
  return out;
}

std::uint64_t score_from(const Slot* anchor_tip, const bio::PatternSet& patterns) {
  std::uint64_t cost = 0;
  const auto states = fitch_down(anchor_tip->back, patterns, cost);
  const auto& anchor_row = patterns.tip_rows[static_cast<std::size_t>(anchor_tip->node_id)];
  for (std::size_t p = 0; p < patterns.pattern_count(); ++p) {
    if ((states[p] & anchor_row[p]) == 0) cost += patterns.weights[p];
  }
  return cost;
}

void collect_edges(Slot* slot, std::vector<Slot*>& out) {
  out.push_back(slot);
  if (slot->back->is_tip()) return;
  collect_edges(slot->back->next, out);
  collect_edges(slot->back->next->next, out);
}

Tree starting_tree(const bio::PatternSet& patterns, Rng& rng) {
  const int ntaxa = static_cast<int>(patterns.taxon_count());
  Tree tree(ntaxa);
  std::vector<int> order(static_cast<std::size_t>(ntaxa));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  tree.connect(tree.tip(order[0]), tree.inner_slot(0, 0), kDefaultBranchLength);
  tree.connect(tree.tip(order[1]), tree.inner_slot(0, 1), kDefaultBranchLength);
  tree.connect(tree.tip(order[2]), tree.inner_slot(0, 2), kDefaultBranchLength);
  for (int i = 3; i < ntaxa; ++i) {
    Slot* tip = tree.tip(order[static_cast<std::size_t>(i)]);
    Slot* anchor = tree.tip(order[0]);
    std::vector<Slot*> edges;
    collect_edges(anchor, edges);
    Slot* hub0 = tree.inner_slot(i - 2, 0);
    Slot* hub1 = tree.inner_slot(i - 2, 1);
    Slot* hub2 = tree.inner_slot(i - 2, 2);
    Slot* best_edge = nullptr;
    std::uint64_t best_score = std::numeric_limits<std::uint64_t>::max();
    for (Slot* edge : edges) {
      Slot* other = edge->back;
      const double length = edge->length;
      tree.disconnect(edge);
      tree.connect(edge, hub0, length * 0.5);
      tree.connect(other, hub1, length * 0.5);
      tree.connect(tip, hub2, kDefaultBranchLength);
      const std::uint64_t score = score_from(anchor, patterns);
      if (score < best_score) {
        best_score = score;
        best_edge = edge;
      }
      tree.disconnect(edge);
      tree.disconnect(other);
      tree.disconnect(tip);
      tree.connect(edge, other, length);
    }
    Slot* other = best_edge->back;
    const double length = best_edge->length;
    tree.disconnect(best_edge);
    tree.connect(best_edge, hub0, length * 0.5);
    tree.connect(other, hub1, length * 0.5);
    tree.connect(tip, hub2, kDefaultBranchLength);
  }
  return tree;
}

}  // namespace naive

/// Slot-for-slot, bit-for-bit tree equality.
void expect_identical_trees(const Tree& a, const Tree& b) {
  ASSERT_EQ(a.slot_count(), b.slot_count());
  for (int s = 0; s < a.slot_count(); ++s) {
    ASSERT_EQ(a.slot(s)->back->slot_index, b.slot(s)->back->slot_index) << "slot " << s;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.slot(s)->length),
              std::bit_cast<std::uint64_t>(b.slot(s)->length))
        << "slot " << s;
  }
}

enum class Codes { kDna, kProtein };

/// Pattern rows drawn directly, so pattern counts and weights are exact:
/// DNA mixes unambiguous bases, IUPAC ambiguity sets and gaps; protein uses
/// the index codes 0..22 (Ala = 0 included).  Weights are mostly 1..3, one
/// in eight 0 (bootstrap resamples) and, with `heavy`, one in eight > 2^16.
bio::PatternSet random_pattern_set(int ntaxa, std::size_t npatterns, Codes codes, bool heavy,
                                   Rng& rng) {
  bio::PatternSet patterns;
  patterns.tip_rows.assign(static_cast<std::size_t>(ntaxa), {});
  for (auto& row : patterns.tip_rows) {
    for (std::size_t p = 0; p < npatterns; ++p) {
      std::uint64_t code = 0;
      if (codes == Codes::kProtein) {
        code = rng.below(bio::kAaCodeCount);
      } else {
        const std::uint64_t kind = rng.below(10);
        code = kind < 7 ? std::uint64_t{1} << rng.below(4)
                        : (kind < 9 ? 1 + rng.below(14) : bio::kGapCode);
      }
      row.push_back(static_cast<bio::DnaCode>(code));
    }
  }
  for (std::size_t p = 0; p < npatterns; ++p) {
    const std::uint64_t kind = rng.below(8);
    const std::uint64_t weight = kind == 0             ? 0
                                 : (kind == 1 && heavy) ? 70000 + rng.below(3)
                                                        : 1 + rng.below(3);
    patterns.weights.push_back(static_cast<std::uint32_t>(weight));
  }
  return patterns;
}

void expect_matches_naive(const bio::PatternSet& patterns, std::uint64_t seed) {
  Rng rng_fast(seed), rng_naive(seed);
  const Tree fast = parsimony_starting_tree(patterns, rng_fast);
  const Tree reference = naive::starting_tree(patterns, rng_naive);
  expect_identical_trees(fast, reference);
  EXPECT_EQ(rng_fast(), rng_naive());  // same number of draws
  EXPECT_EQ(fitch_score(fast, patterns), naive::score_from(reference.tip(0), patterns));
}

TEST(ParsimonyOracle, StartingTreeIsIdenticalToNaiveStepwiseAddition) {
  Rng rng(71);
  std::uint64_t seed = 1000;
  for (const Codes codes : {Codes::kDna, Codes::kProtein}) {
    for (const int ntaxa : {3, 4, 5, 9, 17, 40}) {
      // 1,100 patterns span more than one 1,024-pattern block.
      for (const std::size_t npatterns : {0u, 1u, 63u, 64u, 65u, 200u, 1100u}) {
        for (const bool heavy : {false, true}) {
          SCOPED_TRACE(testing::Message() << "protein=" << (codes == Codes::kProtein)
                                          << " ntaxa=" << ntaxa << " patterns=" << npatterns
                                          << " heavy=" << heavy);
          const auto patterns = random_pattern_set(ntaxa, npatterns, codes, heavy, rng);
          expect_matches_naive(patterns, ++seed);
        }
      }
    }
  }
}

TEST(ParsimonyOracle, StartingTreeIsIdenticalOnCompressedAlignments) {
  Rng rng(72);
  for (int trial = 0; trial < 6; ++trial) {
    const int ntaxa = 6 + 6 * trial;
    // DNA through the real compressor: IUPAC ambiguity codes and gaps.
    const auto dna = testutil::random_alignment(ntaxa, 150, rng, 0.15);
    expect_matches_naive(bio::compress_patterns(dna), 500 + static_cast<std::uint64_t>(trial));

    std::vector<std::vector<bio::AaCode>> rows(static_cast<std::size_t>(ntaxa));
    for (auto& row : rows) {
      for (int s = 0; s < 120; ++s) {
        row.push_back(static_cast<bio::AaCode>(rng.below(bio::kAaCodeCount)));
      }
    }
    const bio::ProteinAlignment protein(testutil::taxon_names(ntaxa), std::move(rows));
    expect_matches_naive(bio::compress_protein_patterns(protein),
                         600 + static_cast<std::uint64_t>(trial));
  }
}

TEST(ParsimonyOracle, FitchScoreMatchesNaiveFromEveryAnchor) {
  Rng rng(73);
  for (const Codes codes : {Codes::kDna, Codes::kProtein}) {
    for (const int ntaxa : {3, 6, 13, 30}) {
      for (const std::size_t npatterns : {0u, 1u, 64u, 130u, 1100u}) {
        SCOPED_TRACE(testing::Message() << "protein=" << (codes == Codes::kProtein)
                                        << " ntaxa=" << ntaxa << " patterns=" << npatterns);
        const auto patterns = random_pattern_set(ntaxa, npatterns, codes, true, rng);
        const Tree tree = Tree::random(ntaxa, rng);
        const std::uint64_t score = fitch_score(tree, patterns);
        // Root independence: the naive score anchored at any tip agrees.
        for (int anchor = 0; anchor < ntaxa; ++anchor) {
          EXPECT_EQ(naive::score_from(tree.tip(anchor), patterns), score) << "anchor " << anchor;
        }
      }
    }
  }
}

}  // namespace
}  // namespace miniphi::tree
