// DNA search workloads.
//
//  dna-long       the paper's shape: 15 taxa x 1 M sites read from PHYLIP,
//                 full ML search on the fork-join evaluator with 4 workers.
//  dna-short-mpi  the ExaML configuration: run_distributed_search on 4
//                 in-process minimpi ranks over 48 taxa x 5 K sites.
//
// Both searches run a fixed number of SPR rounds (the convergence test is
// disabled), and the datasets' trees are pinned, so seeds vary the data but
// barely the amount of search work.  An end-to-end run searches two
// datasets derived from the seed, each several times, and reports the mean
// of each dataset's best time: how much work one dataset happens to need
// averages out, and the best of several runs filters the seconds-long
// slowdowns that other processes cause on a shared multi-core host.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/core/traversal_plan.hpp"
#include "src/examl/distributed_evaluator.hpp"
#include "src/examl/driver.hpp"
#include "src/io/phylip.hpp"
#include "src/minimpi/minimpi.hpp"
#include "src/parallel/evaluator_factory.hpp"
#include "src/parallel/worker_pool.hpp"
#include "src/search/checkpoint.hpp"
#include "src/search/model_optimizer.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"

namespace perfbench {

namespace bio = miniphi::bio;
namespace model = miniphi::model;
namespace search = miniphi::search;
namespace mpi = miniphi::mpi;
namespace examl = miniphi::examl;
using miniphi::Rng;

// --- Shared helpers -------------------------------------------------------------

bio::Alignment simulate_dna(int taxa, std::int64_t sites, std::uint64_t tree_seed,
                            std::uint64_t seed) {
  // Parameters of simulate::paper_dataset.
  model::GtrParams params;
  params.exchangeabilities = {1.2, 3.5, 0.8, 0.9, 3.1, 1.0};
  params.frequencies = {0.30, 0.21, 0.24, 0.25};
  params.alpha = 0.8;
  Rng tree_rng(tree_seed);
  const tree::Tree truth = miniphi::simulate::yule_tree(taxa, tree_rng, 0.6);
  Rng rng(seed);
  miniphi::simulate::SimulationOptions options;
  options.sites = sites;
  return miniphi::simulate::simulate_alignment(truth, model::GtrModel(params), options, rng)
      .alignment;
}

model::GtrModel empirical_model(const bio::Alignment& alignment) {
  model::GtrParams params;
  const auto freqs = alignment.empirical_base_frequencies();
  for (std::size_t i = 0; i < 4; ++i) params.frequencies[i] = freqs[i];
  params.alpha = 1.0;
  return model::GtrModel(params);
}

void invalidate_all(core::Evaluator& evaluator, const tree::Tree& tree) {
  for (int id = tree.taxon_count(); id < tree.node_count(); ++id) evaluator.invalidate_node(id);
}

void report_setup(Report& report, const std::vector<SetupTimes>& setups) {
  std::vector<double> total, parse, compress, parsimony, build;
  for (const SetupTimes& s : setups) {
    total.push_back(s.total());
    parse.push_back(s.parse_s);
    compress.push_back(s.compress_s);
    parsimony.push_back(s.parsimony_s);
    build.push_back(s.build_s);
  }
  report.set("setup_s", median(total));
  report.set("io.parse_s", median(parse));
  report.set("bio.compress_s", median(compress));
  report.set("tree.parsimony_s", median(parsimony));
  report.set("core.build_s", median(build));
}

void report_kernels(Report& report, const core::EvalStats& stats, const std::string& prefix) {
  const char* names[] = {"newview", "evaluate", "derivsum", "derivcore"};
  for (int k = 0; k < core::kKernelCount; ++k) {
    const core::KernelStat& stat = stats.kernels[static_cast<std::size_t>(k)];
    report.set(prefix + names[k] + ".calls", static_cast<double>(stat.calls));
    report.set(prefix + names[k] + ".ns_per_site",
               stat.sites > 0 ? stat.seconds * 1e9 / static_cast<double>(stat.sites) : 0.0);
  }
}

void report_plan(Report& report, tree::Tree& tree) {
  core::TraversalPlanner planner;
  core::TraversalPlan plan;
  tree::Slot* root = tree.tip(0);
  tree::Slot* const goals[] = {root, root->back};
  std::vector<double> build_us;
  for (int rep = 0; rep < 200; ++rep) {
    const double t0 = now_s();
    planner.build(goals, [](const tree::Slot*) { return false; }, plan);
    build_us.push_back((now_s() - t0) * 1e6);
  }
  report.set("plan.ops", static_cast<double>(plan.op_count()));
  report.set("plan.levels", plan.levels());
  report.set("plan.build_us", median(build_us));
}

namespace {

constexpr double kNoConvergenceTest = -std::numeric_limits<double>::infinity();

search::SearchOptions fixed_round_search(int rounds) {
  search::SearchOptions options;
  options.max_rounds = rounds;
  options.epsilon = kNoConvergenceTest;
  return options;
}

/// Inputs every set-up pass derives from the PHYLIP file.
struct DnaInputs {
  std::unique_ptr<bio::Alignment> alignment;
  std::unique_ptr<bio::PatternSet> patterns;
  std::optional<tree::Tree> start;
};

DnaInputs load_dna(const std::string& path, std::uint64_t seed, SetupTimes& times) {
  DnaInputs in;
  double t0 = now_s();
  {
    const ScopedSpan span("setup.io.parse");
    in.alignment = std::make_unique<bio::Alignment>(miniphi::io::read_phylip_file(path));
  }
  double t1 = now_s();
  times.parse_s = t1 - t0;
  {
    const ScopedSpan span("setup.bio.compress");
    in.patterns = std::make_unique<bio::PatternSet>(bio::compress_patterns(*in.alignment));
  }
  t0 = now_s();
  times.compress_s = t0 - t1;
  {
    const ScopedSpan span("setup.tree.parsimony");
    Rng rng(seed);
    in.start.emplace(miniphi::tree::parsimony_starting_tree(*in.patterns, rng));
  }
  times.parsimony_s = now_s() - t0;
  return in;
}

/// One untraced/traced pair of a traced run.
struct TracedRep {
  SearchAccounting acc;      ///< the traced search's layers
  double reference_s = 0.0;  ///< the untraced end-to-end call
  double same_path_s = 0.0;  ///< untraced run of exactly the code the traced run wraps
  std::uint64_t trace_id = 0;
  core::EvalStats stats;     ///< kernel stats of the traced search (all workers/ranks)
  search::SearchResult result;
};

/// Sets the accounting metrics from the fastest traced search and checks
/// that its layers add up: search self time plus engine spans must match
/// the search's stopwatch time within 10 %, and the kernel and wait time
/// the library reports must fit inside the engine spans.
/// trace.accounted_frac compares the layers (plus any set-up the timed
/// call runs before its search) with the fastest untraced end-to-end call; those
/// are separate runs, which a shared host can slow by 20 % for seconds, so
/// it is reported, not checked.  `replicas` divides span totals of a search
/// replicated on every rank.
void report_accounting(Report& report, const std::vector<TracedRep>& reps, int replicas) {
  const TracedRep& rep = *std::min_element(
      reps.begin(), reps.end(),
      [](const TracedRep& a, const TracedRep& b) { return a.acc.search_s < b.acc.search_s; });
  double reference_s = 1e300, same_path_s = 1e300;
  for (const TracedRep& r : reps) {
    reference_s = std::min(reference_s, r.reference_s);
    same_path_s = std::min(same_path_s, r.same_path_s);
  }
  const SearchAccounting& acc = rep.acc;
  const double accounted = (acc.inner_setup_s + acc.self_s + acc.engine_s) / reference_s;
  report.set("search.self_s", acc.self_s);
  report.set("engine.overhead_s", acc.overhead_s());
  report.set("core.kernel_share", acc.kernel_s / acc.search_s);
  report.set("trace.accounted_frac", accounted);
  report.set("trace.overhead_frac", acc.search_s / same_path_s - 1.0);
  std::fprintf(stderr,
               "perfbench: accounting: untraced %.4f s vs inner set-up %.4f + search self "
               "%.4f + engine %.4f (kernel %.4f + wait %.4f + overhead %.4f); traced search "
               "%.4f s vs untraced %.4f s\n",
               reference_s, acc.inner_setup_s, acc.self_s, acc.engine_s, acc.kernel_s,
               acc.wait_s, acc.overhead_s(), acc.search_s, same_path_s);
  report.op(std::fabs((acc.self_s + acc.engine_s) / acc.search_s - 1.0) <= 0.10,
            "traced layer times account for the traced search time within 10 %");
  report.op(acc.kernel_s + acc.wait_s <= acc.engine_s * 1.02,
            "kernel + wait time fits inside the engine spans");
  const auto totals = Spans::totals(rep.trace_id);
  report_engine_methods(report, totals, replicas);
  report_kernels(report, rep.stats, "core.");
  report.set("search.rounds", rep.result.rounds);
  report.set("search.insertions", static_cast<double>(rep.result.evaluated_insertions));
  report.set("search.accepted_moves", rep.result.accepted_moves);
}

// --- dna-long -------------------------------------------------------------------

constexpr int kLongTaxa = 15;
constexpr std::int64_t kLongSites = 1'000'000;
constexpr std::uint64_t kLongTreeSeed = 2;  // ~170 K patterns
constexpr int kLongWorkers = 4;
constexpr int kLongRounds = 1;
constexpr int kDatasets = 2;  // per end-to-end run
constexpr int kTracedReps = 3;  // untraced/traced search pairs per traced run

struct LongRun {
  DnaInputs in;
  std::unique_ptr<miniphi::parallel::WorkerPool> pool;
  std::unique_ptr<core::Evaluator> evaluator;
  std::optional<tree::Tree> tree;
};

void setup_long(const std::string& path, std::uint64_t seed, LongRun& run, SetupTimes& times) {
  run.evaluator.reset();
  run.pool.reset();
  run.in = load_dna(path, seed, times);
  run.tree.emplace(*run.in.start);
  const double t0 = now_s();
  {
    const ScopedSpan span("setup.core.build");
    run.pool = std::make_unique<miniphi::parallel::WorkerPool>(kLongWorkers);
    run.evaluator = miniphi::parallel::make_fork_join_evaluator(
        *run.pool, *run.in.patterns, empirical_model(*run.in.alignment), *run.tree);
  }
  times.build_s = now_s() - t0;
}

search::SearchResult search_long(core::Evaluator& evaluator, tree::Tree& tree) {
  search::SearchOptions options = fixed_round_search(kLongRounds);
  options.model_hook = [](core::Evaluator& e, tree::Slot* root) {
    return search::optimize_model(e, root).log_likelihood;
  };
  return search::run_tree_search(evaluator, tree, options);
}

/// Independent oracle: the final tree and model re-scored by a fresh serial
/// scalar engine.
bool matches_scalar_oracle(const bio::PatternSet& patterns, const model::GtrModel& model,
                           tree::Tree& tree, double lnl) {
  core::EngineConfig config;
  config.isa = miniphi::simd::Isa::kScalar;
  const auto oracle = core::make_evaluator(patterns, model, tree, config);
  const double reference = oracle->log_likelihood(tree.tip(0));
  if (!close(lnl, reference)) {
    std::fprintf(stderr, "perfbench: lnL %.10f vs scalar oracle %.10f\n", lnl, reference);
    return false;
  }
  return true;
}

}  // namespace

void run_dna_long(const RunConfig& config, Report& report) {
  auto path = [&](int k) { return config.workdir + "/dna-long-" + std::to_string(k) + ".phy"; };
  auto write_dataset = [&](int k) {
    miniphi::io::write_phylip_file(
        path(k), simulate_dna(kLongTaxa, kLongSites, kLongTreeSeed, dataset_seed(config.seed, k))
                     .to_records());
  };
  LongRun run;
  std::vector<SetupTimes> setups;

  if (!config.trace) {
    // Trials alternate between the datasets until the budget is spent and
    // each dataset has three searches; work_s is the mean over datasets of
    // each dataset's best search.  Alternating spreads every dataset's
    // samples over the whole run, so a few seconds of memory-bandwidth
    // contention from other processes cannot slow all of them.  Each
    // trial's evaluator is released before the next set-up, so only one is
    // ever resident.
    std::vector<std::vector<double>> search_s(kDatasets);
    std::vector<std::optional<double>> first_lnl(kDatasets);
    PeakRss rss;
    double measured = 0.0;
    for (int k = 0; k < kDatasets; ++k) write_dataset(k);
    for (int trial = 0; trial < 3 * kDatasets || measured < config.seconds; ++trial) {
      const int k = trial % kDatasets;
      rss.begin();
      setup_long(path(k), dataset_seed(config.seed, k), run, setups.emplace_back());
      const double t0 = now_s();
      const search::SearchResult result = search_long(*run.evaluator, *run.tree);
      const double seconds = now_s() - t0;
      search_s[static_cast<std::size_t>(k)].push_back(seconds);
      measured += seconds;
      report.op(std::isfinite(result.log_likelihood) && result.rounds == kLongRounds,
                "dna-long search completes its rounds");
      const model::GtrModel final_model = *run.evaluator->gtr_model();
      run.evaluator.reset();
      run.pool.reset();
      rss.end();
      std::optional<double>& first = first_lnl[static_cast<std::size_t>(k)];
      if (first) {
        report.op(result.log_likelihood == *first, "dna-long searches are bit-identical");
        continue;
      }
      first = result.log_likelihood;
      report.op(matches_scalar_oracle(*run.in.patterns, final_model, *run.tree, *first),
                "dna-long final lnL matches the scalar oracle");
    }
    std::vector<double> best_s;
    for (const std::vector<double>& samples : search_s) {
      best_s.push_back(*std::min_element(samples.begin(), samples.end()));
    }
    report_setup(report, setups);
    report.set("work_s", mean(best_s));
    report.set("peak_rss_mb", rss.best_mb());
    return;
  }

  write_dataset(0);
  const std::string trace_path = path(0);
  // Traced run: untraced and traced searches alternate, each on a fresh
  // set-up.
  std::vector<TracedRep> reps;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    TracedRep& pair = reps.emplace_back();
    Spans::set_enabled(false);
    setup_long(trace_path, config.seed, run, setups.emplace_back());
    double t0 = now_s();
    const double reference = search_long(*run.evaluator, *run.tree).log_likelihood;
    pair.reference_s = pair.same_path_s = now_s() - t0;
    Spans::set_enabled(true);

    pair.trace_id = Spans::new_trace();
    Spans::set_trace(pair.trace_id);
    setup_long(trace_path, config.seed, run, setups.emplace_back());
    TracedEvaluator traced(*run.evaluator);
    run.evaluator->reset_stats();
    t0 = now_s();
    {
      const ScopedSpan span("search");
      pair.result = search_long(traced, *run.tree);
    }
    pair.acc.search_s = now_s() - t0;
    Spans::set_trace(0);
    report.op(pair.result.log_likelihood == reference,
              "traced dna-long search is bit-identical to the untraced one");
    pair.stats = run.evaluator->stats();
    const Spans::Totals search_span = Spans::totals(pair.trace_id).at("search");
    pair.acc.self_s = search_span.self_s;
    pair.acc.engine_s = search_span.total_s - search_span.self_s;
    pair.acc.kernel_s = kernel_seconds(pair.stats) / kLongWorkers;
    pair.acc.wait_s = pair.stats.wait_seconds / kLongWorkers;
  }
  report.op(matches_scalar_oracle(*run.in.patterns, *run.evaluator->gtr_model(), *run.tree,
                                  reps.back().result.log_likelihood),
            "dna-long final lnL matches the scalar oracle");
  report_setup(report, setups);
  report_accounting(report, reps, 1);
  report_plan(report, *run.tree);

  // Parallel layer: one full traversal on 1 worker against 4.
  constexpr int kTraversals = 5;
  auto time_traversal = [&](core::Evaluator& evaluator) {
    std::vector<double> seconds;
    for (int rep = 0; rep < kTraversals; ++rep) {
      invalidate_all(evaluator, *run.tree);
      const double start = now_s();
      evaluator.log_likelihood(run.tree->tip(0));
      seconds.push_back(now_s() - start);
    }
    return median(seconds);
  };
  run.evaluator->reset_stats();
  const double t4 = time_traversal(*run.evaluator);
  const core::EvalStats four = run.evaluator->stats();
  const double compute = four.compute_seconds / (kTraversals * kLongWorkers);
  const double wait = four.wait_seconds / (kTraversals * kLongWorkers);
  const model::GtrModel final_model = *run.evaluator->gtr_model();
  run.evaluator.reset();
  run.pool.reset();
  double t1 = 0.0;
  {
    miniphi::parallel::WorkerPool single(1);
    const auto serial = miniphi::parallel::make_fork_join_evaluator(single, *run.in.patterns,
                                                                    final_model, *run.tree);
    t1 = time_traversal(*serial);
  }
  report.set("parallel.compute_s", compute);
  report.set("parallel.barrier_wait_s", wait);
  report.set("parallel.wait_frac", wait / (compute + wait));
  report.set("parallel.efficiency", t1 / (kLongWorkers * t4));
}

// --- dna-short-mpi ----------------------------------------------------------------

namespace {

constexpr int kShortTaxa = 48;
constexpr std::int64_t kShortSites = 5'000;
constexpr std::uint64_t kShortTreeSeed = 2;  // ~3.7 K patterns
constexpr int kRanks = 4;
constexpr int kShortRounds = 3;
constexpr int kShortDatasets = 2;  // per end-to-end run

/// The distributed search's options.  The model hook does what the default
/// one does (full GTR optimization through the evaluator) and also hands the
/// optimized model out for the oracle; every replica computes the same one.
examl::ExperimentOptions short_options(std::uint64_t seed, model::GtrParams& optimized) {
  examl::ExperimentOptions options;
  options.seed = seed;
  options.search = fixed_round_search(kShortRounds);
  options.search.model_hook = [&optimized](core::Evaluator& e, tree::Slot* root) {
    const double lnl = search::optimize_model(e, root).log_likelihood;
    static std::mutex mutex;
    const std::lock_guard<std::mutex> lock(mutex);
    optimized = e.gtr_model()->params();
    return lnl;
  };
  return options;
}

/// Builds one DistributedEvaluator per rank (the world + evaluator part of
/// the distributed set-up); returns the wall time.
double build_world(const bio::PatternSet& patterns, const model::GtrModel& start_model,
                   const tree::Tree& start) {
  const double t0 = now_s();
  mpi::World world(kRanks);
  world.run([&](mpi::Communicator& comm) {
    tree::Tree tree(start);
    examl::DistributedEvaluator evaluator(comm, patterns, start_model, tree);
  });
  return now_s() - t0;
}

}  // namespace

void run_dna_short_mpi(const RunConfig& config, Report& report) {
  struct Dataset {
    std::string path;
    std::uint64_t seed = 0;
    DnaInputs in;
    std::vector<double> search_s;
    std::optional<examl::DistributedRunResult> first;
    std::optional<tree::Tree> final_tree;
    std::optional<model::GtrModel> final_model;
  };
  std::vector<Dataset> datasets(config.trace ? 1 : kShortDatasets);
  std::vector<SetupTimes> setups;
  PeakRss rss;

  // Writes a dataset's input and times two set-ups of it.
  auto prepare = [&](int k) {
    Dataset& d = datasets[static_cast<std::size_t>(k)];
    d.path = config.workdir + "/dna-short-" + std::to_string(k) + ".phy";
    d.seed = dataset_seed(config.seed, k);
    miniphi::io::write_phylip_file(
        d.path, simulate_dna(kShortTaxa, kShortSites, kShortTreeSeed, d.seed).to_records());
    for (int rep = 0; rep < 2; ++rep) {
      SetupTimes& times = setups.emplace_back();
      d.in = load_dna(d.path, d.seed, times);
      const ScopedSpan span("setup.core.build");
      times.build_s = build_world(*d.in.patterns, empirical_model(*d.in.alignment), *d.in.start);
    }
  };
  // One untraced end-to-end distributed search on a dataset, with checks.
  auto trial = [&](Dataset& d) {
    rss.begin();
    const bool tracing = Spans::enabled();
    Spans::set_enabled(false);
    model::GtrParams optimized;
    const examl::ExperimentOptions options = short_options(d.seed, optimized);
    const double t0 = now_s();
    examl::DistributedRunResult result =
        examl::run_distributed_search(*d.in.alignment, kRanks, options);
    d.search_s.push_back(now_s() - t0);
    Spans::set_enabled(tracing);
    rss.end();
    report.op(result.replicas_consistent && result.recoveries == 0,
              "dna-short-mpi replicas agree without recovery");
    if (d.first) {
      report.op(result.log_likelihood == d.first->log_likelihood &&
                    result.final_tree_newick == d.first->final_tree_newick,
                "dna-short-mpi searches are bit-identical");
      return;
    }
    d.first = result;
    // Oracle: a serial scalar engine re-scores the final tree under the
    // optimized model.
    search::Checkpoint final_state;
    final_state.taxon_names = d.in.alignment->taxon_names();
    final_state.tree_newick = result.final_tree_newick;
    d.final_tree.emplace(final_state.restore_tree());
    d.final_model.emplace(optimized);
    report.op(matches_scalar_oracle(*d.in.patterns, *d.final_model, *d.final_tree,
                                    result.log_likelihood),
              "dna-short-mpi final lnL matches the scalar oracle");
  };

  if (!config.trace) {
    // Trials alternate between the datasets (as in dna-long) until the
    // budget is spent and each dataset has three searches; work_s is the
    // mean over datasets of each dataset's best search.
    for (int k = 0; k < kShortDatasets; ++k) prepare(k);
    double measured = 0.0;
    for (int t = 0; t < 3 * kShortDatasets || measured < config.seconds; ++t) {
      Dataset& d = datasets[static_cast<std::size_t>(t % kShortDatasets)];
      trial(d);
      measured += d.search_s.back();
    }
    std::vector<double> best_s;
    for (const Dataset& d : datasets) {
      best_s.push_back(*std::min_element(d.search_s.begin(), d.search_s.end()));
    }
    report_setup(report, setups);
    report.set("work_s", mean(best_s));
    report.set("peak_rss_mb", rss.best_mb());
    return;
  }
  prepare(0);
  Dataset& d = datasets.front();
  const DnaInputs& in = d.in;
  report_setup(report, setups);

  // Traced run: the search phase of run_distributed_search as one replica
  // per rank, first untraced, then with the evaluator wrapped so every
  // rank's engine calls become spans of one trace.
  const model::GtrModel start_model = empirical_model(*in.alignment);
  // run_distributed_search starts every replica from a checkpoint of the
  // parsimony tree; the Newick round trip renumbers nodes, which changes
  // the SPR visiting order, so the replicas here start the same way.
  const search::Checkpoint start = search::make_checkpoint(
      *in.start, in.alignment->taxon_names(), start_model.params(), 0, 0.0,
      dataset_seed(config.seed, 0));
  std::vector<search::SearchResult> results(kRanks);
  std::vector<core::EvalStats> stats(kRanks);
  std::vector<double> replica_s(kRanks, 0.0);
  auto run_replicas = [&](bool traced, std::uint64_t trace_id) {
    mpi::World world(kRanks);
    world.run([&](mpi::Communicator& comm) {
      Spans::set_trace(trace_id);
      const auto rank = static_cast<std::size_t>(comm.rank());
      tree::Tree tree = start.restore_tree();
      examl::DistributedEvaluator evaluator(comm, *in.patterns, start_model, tree);
      TracedEvaluator wrapped(evaluator);
      search::SearchOptions options = fixed_round_search(kShortRounds);
      options.model_hook = [](core::Evaluator& e, tree::Slot* root) {
        return search::optimize_model(e, root).log_likelihood;
      };
      const double t0 = now_s();
      {
        const ScopedSpan span("search");
        results[rank] = search::run_tree_search(
            traced ? static_cast<core::Evaluator&>(wrapped) : evaluator, tree, options);
      }
      replica_s[rank] = now_s() - t0;
      stats[rank] = evaluator.stats();
      Spans::set_trace(0);
    });
    return median(replica_s);
  };
  // End-to-end searches, untraced replicas and traced replicas alternate.
  // Before its search phase run_distributed_search compresses patterns and
  // builds the parsimony start tree; those layers were timed in the set-up passes.
  const double inner_setup_s = report.get("bio.compress_s") + report.get("tree.parsimony_s");
  std::vector<TracedRep> reps;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    TracedRep& pair = reps.emplace_back();
    trial(d);
    pair.reference_s = d.search_s.back();
    Spans::set_enabled(false);
    pair.same_path_s = run_replicas(false, 0);
    Spans::set_enabled(true);
    pair.trace_id = Spans::new_trace();
    run_replicas(true, pair.trace_id);
    bool identical = true;
    for (const search::SearchResult& r : results) {
      identical = identical && r.log_likelihood == d.first->log_likelihood;
    }
    report.op(identical,
              "traced dna-short-mpi replicas are bit-identical to the distributed search");
    pair.result = results[0];
    const Spans::Totals search_span = Spans::totals(pair.trace_id).at("search");
    pair.acc.inner_setup_s = inner_setup_s;
    pair.acc.self_s = search_span.self_s / kRanks;
    pair.acc.engine_s = search_span.total_s / kRanks - pair.acc.self_s;
    for (int r = 0; r < kRanks; ++r) {
      const auto rank = static_cast<std::size_t>(r);
      pair.acc.search_s += replica_s[rank] / kRanks;
      pair.acc.kernel_s += kernel_seconds(stats[rank]) / kRanks;
      pair.acc.wait_s += stats[rank].comm_seconds / kRanks;
      pair.stats += stats[rank];
    }
  }
  report_accounting(report, reps, kRanks);
  report_plan(report, *d.final_tree);

  const double untraced_s = *std::min_element(d.search_s.begin(), d.search_s.end());
  const mpi::CommStats& comm = d.first->comm_stats;
  report.set("mpi.allreduces", static_cast<double>(comm.allreduces));
  report.set("mpi.bytes", static_cast<double>(comm.bytes));
  report.set("mpi.wait_s", comm.wait_seconds / kRanks);
  report.set("mpi.wait_frac", comm.wait_seconds / kRanks / untraced_s);

  // Small-payload allreduce latency on the same world size.
  std::vector<double> per_call_us(kRanks, 0.0);
  constexpr int kProbeCalls = 2000;
  mpi::World probe(kRanks);
  probe.run([&](mpi::Communicator& c) {
    double sink = 0.0;
    c.allreduce_sum(1.0);  // warm-up rendezvous
    const double t0 = now_s();
    for (int i = 0; i < kProbeCalls; ++i) sink += c.allreduce_sum(static_cast<double>(i));
    per_call_us[static_cast<std::size_t>(c.rank())] = (now_s() - t0) * 1e6 / kProbeCalls;
    if (sink < 0.0) std::fprintf(stderr, "allreduce sink\n");
  });
  report.set("mpi.allreduce_us", median(per_call_us));
}

}  // namespace perfbench
