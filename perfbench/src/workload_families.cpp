// families-serial: serial searches on the two engine families the DNA
// workloads never reach — the general engine (20-state protein,
// Poisson+Γ) and the CAT engine (DNA, one rate per site, model fixed).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/bio/aa.hpp"
#include "src/bio/patterns.hpp"
#include "src/bio/protein_alignment.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/io/phylip.hpp"
#include "src/model/general.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"

namespace perfbench {

namespace {

namespace bio = miniphi::bio;
namespace model = miniphi::model;
namespace search = miniphi::search;
using miniphi::Rng;

constexpr int kTaxa = 24;
constexpr std::uint64_t kTreeSeed = 3;
constexpr std::int64_t kProteinSites = 400;
constexpr std::int64_t kCatSites = 60'000;
constexpr int kCatCategories = 25;
constexpr int kRounds = 2;
constexpr int kDatasets = 2;  // per end-to-end run

search::SearchOptions fixed_rounds(bool optimize_model) {
  search::SearchOptions options;
  options.max_rounds = kRounds;
  options.epsilon = -std::numeric_limits<double>::infinity();
  options.optimize_model = optimize_model;
  return options;
}

struct Family {
  std::unique_ptr<bio::PatternSet> patterns;
  std::optional<tree::Tree> tree;
  std::unique_ptr<core::Evaluator> evaluator;
};

const model::GeneralModel& protein_model() {
  static const model::GeneralModel poisson = model::GeneralModel::poisson(bio::kAaStates, 1.0);
  return poisson;
}

std::unique_ptr<core::Evaluator> build_protein(const bio::PatternSet& patterns, tree::Tree& tree,
                                               double alpha, miniphi::simd::Isa isa) {
  core::EngineConfig config;
  config.isa = isa;
  return core::make_evaluator(patterns, protein_model().with_alpha(alpha), tree,
                              bio::aa_code_masks(), config);
}

std::unique_ptr<core::Evaluator> build_cat(const bio::PatternSet& patterns, tree::Tree& tree,
                                           const model::GtrModel& gtr, miniphi::simd::Isa isa) {
  core::EngineConfig config;
  config.isa = isa;
  return core::make_evaluator(patterns, gtr, tree, kCatCategories, config);
}

/// Reads one family's PHYLIP file, compresses it, builds the parsimony start tree
/// and the evaluator.  `protein` selects the family.
void setup_family(const std::string& path, bool protein, std::uint64_t seed, Family& family,
                  SetupTimes& times) {
  family.evaluator.reset();
  double t0 = now_s();
  miniphi::io::SequenceSet records;
  {
    const ScopedSpan span("setup.io.parse");
    records = miniphi::io::read_phylip_file(path);
  }
  double t1 = now_s();
  times.parse_s += t1 - t0;
  std::optional<model::GtrModel> gtr;
  {
    const ScopedSpan span("setup.bio.compress");
    if (protein) {
      family.patterns = std::make_unique<bio::PatternSet>(
          bio::compress_protein_patterns(bio::ProteinAlignment(records)));
    } else {
      const bio::Alignment alignment(records);
      family.patterns = std::make_unique<bio::PatternSet>(bio::compress_patterns(alignment));
      gtr.emplace(empirical_model(alignment));
    }
  }
  t0 = now_s();
  times.compress_s += t0 - t1;
  {
    const ScopedSpan span("setup.tree.parsimony");
    Rng rng(seed);
    family.tree.emplace(miniphi::tree::parsimony_starting_tree(*family.patterns, rng));
  }
  t1 = now_s();
  times.parsimony_s += t1 - t0;
  {
    const ScopedSpan span("setup.core.build");
    const miniphi::simd::Isa isa = miniphi::simd::best_supported_isa();
    family.evaluator = protein ? build_protein(*family.patterns, *family.tree, 1.0, isa)
                               : build_cat(*family.patterns, *family.tree, *gtr, isa);
  }
  times.build_s += now_s() - t1;
}

/// Independent oracle: the final tree re-scored by a fresh scalar engine of
/// the same family.
bool matches_oracle(Family& family, bool protein, const std::string& cat_path, double lnl) {
  const miniphi::simd::Isa scalar = miniphi::simd::Isa::kScalar;
  std::unique_ptr<core::Evaluator> oracle;
  if (protein) {
    oracle = build_protein(*family.patterns, *family.tree, family.evaluator->alpha(), scalar);
  } else {
    const bio::Alignment alignment(miniphi::io::read_phylip_file(cat_path));
    oracle = build_cat(*family.patterns, *family.tree, empirical_model(alignment), scalar);
  }
  const double reference = oracle->log_likelihood(family.tree->tip(0));
  if (!close(lnl, reference)) {
    std::fprintf(stderr, "perfbench: %s lnL %.10f vs scalar oracle %.10f\n",
                 protein ? "protein" : "cat", lnl, reference);
    return false;
  }
  return true;
}

}  // namespace

void run_families_serial(const RunConfig& config, Report& report) {
  // Each dataset: a protein and a DNA alignment simulated on one pinned
  // tree from the dataset's seed.
  const int datasets = config.trace ? 1 : kDatasets;
  auto protein_path = [&](int k) {
    return config.workdir + "/families-protein-" + std::to_string(k) + ".phy";
  };
  auto cat_path = [&](int k) {
    return config.workdir + "/families-cat-" + std::to_string(k) + ".phy";
  };
  for (int k = 0; k < datasets; ++k) {
    Rng tree_rng(kTreeSeed);
    const tree::Tree truth = miniphi::simulate::yule_tree(kTaxa, tree_rng, 0.7);
    const std::uint64_t seed = dataset_seed(config.seed, k);
    Rng rng(seed);
    miniphi::io::write_phylip_file(
        protein_path(k), miniphi::simulate::simulate_protein_alignment(
                             truth, protein_model().with_alpha(0.8), kProteinSites, rng)
                             .to_records());
    miniphi::io::write_phylip_file(
        cat_path(k), simulate_dna(kTaxa, kCatSites, kTreeSeed, seed).to_records());
  }

  Family protein;
  Family cat;
  std::vector<SetupTimes> setups;
  std::vector<double> protein_s, cat_s;
  std::vector<std::vector<double>> work_s(static_cast<std::size_t>(datasets));
  std::vector<std::optional<std::pair<double, double>>> first(static_cast<std::size_t>(datasets));
  double measured = 0.0;
  std::uint64_t protein_trace = 0;
  std::uint64_t cat_trace = 0;
  double untraced_protein = 0.0;
  double untraced_cat = 0.0;
  std::vector<search::SearchResult> traced_results;
  PeakRss rss;
  // End to end: passes alternate between the datasets (as in the DNA
  // workloads) until the budget is spent and each dataset has three;
  // work_s is the mean over datasets of each dataset's best pass.  Traced:
  // one untraced pass for reference, then one traced pass.
  for (int pass = 0;; ++pass) {
    const int k = pass % datasets;
    const std::uint64_t seed = dataset_seed(config.seed, k);
    const bool traced = config.trace && pass == 1;
    if (config.trace) Spans::set_enabled(traced);
    rss.begin();
    SetupTimes& times = setups.emplace_back();
    setup_family(protein_path(k), true, seed, protein, times);
    setup_family(cat_path(k), false, seed, cat, times);
    double lnl[2] = {0.0, 0.0};
    double seconds[2] = {0.0, 0.0};
    for (int f = 0; f < 2; ++f) {
      Family& family = f == 0 ? protein : cat;
      std::uint64_t trace_id = 0;
      if (traced) {
        trace_id = Spans::new_trace();
        Spans::set_trace(trace_id);
        (f == 0 ? protein_trace : cat_trace) = trace_id;
      }
      TracedEvaluator wrapped(*family.evaluator);
      core::Evaluator& evaluator = traced ? static_cast<core::Evaluator&>(wrapped)
                                          : *family.evaluator;
      family.evaluator->reset_stats();
      const double t0 = now_s();
      search::SearchResult result;
      {
        const ScopedSpan span("search");
        result = search::run_tree_search(evaluator, *family.tree, fixed_rounds(f == 0));
      }
      seconds[f] = now_s() - t0;
      lnl[f] = result.log_likelihood;
      if (traced) {
        traced_results.push_back(result);
        Spans::set_trace(0);
      }
      report.op(std::isfinite(result.log_likelihood) && result.rounds == kRounds,
                "families search completes its rounds");
    }
    std::optional<std::pair<double, double>>& reference = first[static_cast<std::size_t>(k)];
    if (!reference) {
      reference = {lnl[0], lnl[1]};
      report.op(matches_oracle(protein, true, cat_path(k), lnl[0]),
                "protein final lnL matches the scalar oracle");
      report.op(matches_oracle(cat, false, cat_path(k), lnl[1]),
                "CAT final lnL matches the scalar oracle");
    } else {
      report.op(lnl[0] == reference->first && lnl[1] == reference->second,
                "families searches are bit-identical");
    }
    protein_s.push_back(seconds[0]);
    cat_s.push_back(seconds[1]);
    work_s[static_cast<std::size_t>(k)].push_back(seconds[0] + seconds[1]);
    measured += seconds[0] + seconds[1];
    if (config.trace) {
      if (pass == 1) break;
      untraced_protein = seconds[0];
      untraced_cat = seconds[1];
      continue;
    }
    protein.evaluator.reset();
    cat.evaluator.reset();
    rss.end();
    if (measured >= config.seconds && pass + 1 >= 3 * datasets) break;
  }

  report_setup(report, setups);
  std::vector<double> best_s;
  for (const std::vector<double>& passes : work_s) {
    best_s.push_back(*std::min_element(passes.begin(), passes.end()));
  }
  report.set("work_s", mean(best_s));
  if (!config.trace) {
    report.set("peak_rss_mb", rss.best_mb());
    return;
  }

  report.set("search.protein_s", protein_s.back());
  report.set("search.cat_s", cat_s.back());
  SearchAccounting total;
  const double untraced_total = untraced_protein + untraced_cat;
  for (int f = 0; f < 2; ++f) {
    Family& family = f == 0 ? protein : cat;
    const core::EvalStats& stats = family.evaluator->stats();
    report_kernels(report, stats, f == 0 ? "core.general." : "core.cat.");
    const auto totals = Spans::totals(f == 0 ? protein_trace : cat_trace);
    const Spans::Totals& span = totals.at("search");
    total.search_s += span.total_s;
    total.self_s += span.self_s;
    total.engine_s += span.total_s - span.self_s;
    total.kernel_s += kernel_seconds(stats);
  }
  report.set("search.self_s", total.self_s);
  report.set("engine.overhead_s", total.overhead_s());
  report.set("core.kernel_share", total.kernel_s / total.search_s);
  report.set("trace.accounted_frac", (total.self_s + total.engine_s) / untraced_total);
  report.set("trace.overhead_frac", total.search_s / untraced_total - 1.0);
  report_engine_methods(report, Spans::totals());
  double rounds = 0.0, insertions = 0.0, accepted = 0.0;
  for (const search::SearchResult& r : traced_results) {
    rounds += r.rounds;
    insertions += static_cast<double>(r.evaluated_insertions);
    accepted += r.accepted_moves;
  }
  report.set("search.rounds", rounds);
  report.set("search.insertions", insertions);
  report.set("search.accepted_moves", accepted);
  report_plan(report, *protein.tree);
}

}  // namespace perfbench
