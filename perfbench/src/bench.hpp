// Shared declarations of the layered benchmark: run configuration, the
// metric report, timing helpers, the span recorder and the forwarding
// evaluator the traced run wraps around every likelihood evaluator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bio/alignment.hpp"
#include "src/core/eval_stats.hpp"
#include "src/core/evaluator.hpp"
#include "src/model/gtr.hpp"

namespace perfbench {

namespace core = miniphi::core;
namespace tree = miniphi::tree;

// --- Run configuration and report ------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the workload's main loop
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string workdir;    ///< directory for inputs and trace output
  std::string commit = "unknown";  ///< source identity for the host block
};

enum class Better { kLower, kHigher };

struct MetricDef {
  const char* name;
  const char* unit;
  Better better;
  double bound;  ///< end-to-end only; 0 for per-layer metrics
};

/// The end-to-end and per-layer catalogues (BENCHMARK.json mirrors them).
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Collects one run's metrics and the operation/failure counts behind the
/// `attempted` / `failed` fields of the result line.
class Report {
 public:
  explicit Report(bool trace);

  /// Sets a metric of either catalogue; values of the catalogue this run
  /// does not print are dropped.  Unknown names throw.
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;

  /// One operation (search, request, job, check); failures also log `what`.
  void op(bool ok, const std::string& what);
  void ops(std::int64_t attempted, std::int64_t failed, const std::string& what);

  [[nodiscard]] std::string result_json() const;

 private:
  bool trace_;
  std::map<std::string, double> values_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- Timing and statistics helpers ------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Quantile by linear interpolation between order statistics (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double mean(const std::vector<double>& values);

/// Highest quantile with at least ten samples beyond it (the tail a sample
/// of this size supports); 0.99 from 1000 samples up.
double supported_tail_quantile(std::size_t samples);

/// Relative agreement |a - b| <= rel·|b| + abs.
bool close(double a, double b, double rel = 1e-9, double abs = 1e-6);

/// Peak resident memory over trials.  Each trial opens a fresh window:
/// free heap memory goes back to the OS and the kernel's high-water mark
/// is reset (Linux clear_refs), so memory that malloc arenas of an earlier
/// trial's threads still hold does not count.  The leanest trial is the
/// figure — which arena a new thread lands in moves one trial's peak by up
/// to 30 % on small workloads.
class PeakRss {
 public:
  void begin();
  void end();
  [[nodiscard]] double best_mb() const { return best_mb_; }

 private:
  double best_mb_ = 0.0;
};

/// Derived input seed of dataset `k` of a run (several datasets per run
/// average out how much search work one dataset happens to need).
inline std::uint64_t dataset_seed(std::uint64_t seed, int k) {
  return seed + 1'000'003ull * static_cast<std::uint64_t>(k);
}

// --- Host block, kernel probe, workloads ------------------------------------

struct HostInfo {
  std::string isa_flags;
  int nproc = 0;
  std::string commit;
  std::int64_t l3_bytes = 0;
  std::int64_t triad_array_bytes = 0;
  double triad_gbps = 0.0;  ///< single-thread STREAM triad, best of several
};

/// Measures the host block (the triad allocates three arrays of >= 4x L3).
HostInfo measure_host(const std::string& commit);
std::string host_json(const HostInfo& host);

/// Direct kernel probe over every compiled ISA at an in-cache and a
/// DRAM-sized pattern count; roofline fractions use `triad_gbps`.  Returns
/// the probe block (sizes and the computed bytes and flops per site).
std::string run_kernel_probe(Report& report, double triad_gbps);

// --- Helpers shared by the workloads (workload_dna.cpp) -----------------------

/// The paper's dataset recipe (GTR+Γ over a Yule tree) with the tree drawn
/// from `tree_seed` and the sequences from `seed`: the tree fixes the
/// pattern count (the working set), the run seed varies the content.
miniphi::bio::Alignment simulate_dna(int taxa, std::int64_t sites, std::uint64_t tree_seed,
                                     std::uint64_t seed);

/// Starting model of every DNA search: empirical frequencies, α = 1.
miniphi::model::GtrModel empirical_model(const miniphi::bio::Alignment& alignment);

/// Marks every inner CLA stale, so the next evaluation is a full traversal.
void invalidate_all(core::Evaluator& evaluator, const tree::Tree& tree);

/// Set-up layer times of one set-up pass (a workload with several inputs
/// adds theirs up).
struct SetupTimes {
  double parse_s = 0.0;
  double compress_s = 0.0;
  double parsimony_s = 0.0;
  double build_s = 0.0;
  [[nodiscard]] double total() const { return parse_s + compress_s + parsimony_s + build_s; }
};

/// Sets setup_s and the set-up layer metrics, each the median over passes.
void report_setup(Report& report, const std::vector<SetupTimes>& setups);

/// In-situ kernel metrics <prefix><kernel>.{calls,ns_per_site} from an
/// evaluator's stats (calls summed over workers or ranks; ns per site over
/// all sites computed).
void report_kernels(Report& report, const core::EvalStats& stats, const std::string& prefix);

/// Sets plan.ops / plan.levels / plan.build_us for a full traversal of `tree`.
void report_plan(Report& report, tree::Tree& tree);

void run_dna_long(const RunConfig& config, Report& report);
void run_dna_short_mpi(const RunConfig& config, Report& report);
void run_families_serial(const RunConfig& config, Report& report);
void run_svc_tenants(const RunConfig& config, Report& report);

// --- Span recorder ------------------------------------------------------------

/// In-memory span recorder for the traced run.  Spans carry a name, start,
/// end, their parent span and a trace id shared by every span of one search
/// or job; they are buffered per thread and written out at exit.
class Spans {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t trace = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct children
  };

  struct Totals {
    std::int64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Trace id inherited by spans this thread opens from now on.
  static void set_trace(std::uint64_t trace);
  static std::uint64_t new_trace();

  static void begin(const char* name);
  static void end();

  /// Per-name totals over all recorded spans, optionally one trace only.
  static std::map<std::string, Totals> totals(std::uint64_t trace = 0);
  /// Writes all spans as JSON lines, preceded by `header` (one JSON object).
  static void write(const std::string& path, const std::string& header);
};

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : on_(Spans::enabled()) {
    if (on_) Spans::begin(name);
  }
  ~ScopedSpan() {
    if (on_) Spans::end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// Forwarding evaluator used only in the traced run: every call into the
/// engine layer becomes an "engine.<method>" span.
class TracedEvaluator final : public core::Evaluator {
 public:
  explicit TracedEvaluator(core::Evaluator& inner) : inner_(inner) {}

  double log_likelihood(tree::Slot* edge) override;
  void prepare_derivatives(tree::Slot* edge) override;
  std::pair<double, double> derivatives(double z) override;
  double optimize_branch(tree::Slot* edge, int max_iterations) override;
  using Evaluator::optimize_branch;
  double optimize_all_branches(tree::Slot* root_edge, int passes) override;
  bool gradient_all_branches(tree::Slot* root_edge,
                             std::vector<core::BranchGradient>& out) override;
  void invalidate_node(int node_id) override { inner_.invalidate_node(node_id); }
  void invalidate_branch(int node_id) override { inner_.invalidate_branch(node_id); }
  void set_alpha(double alpha) override;
  [[nodiscard]] double alpha() const override { return inner_.alpha(); }
  [[nodiscard]] miniphi::simd::Isa isa() const override { return inner_.isa(); }
  [[nodiscard]] std::int64_t cla_bytes_granted() const override {
    return inner_.cla_bytes_granted();
  }
  [[nodiscard]] const miniphi::model::GtrModel* gtr_model() const override {
    return inner_.gtr_model();
  }
  bool set_gtr_model(const miniphi::model::GtrModel& model) override;
  [[nodiscard]] const core::EvalStats& stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  core::Evaluator& inner_;
};

/// Engine methods whose calls and time the traced run reports (span names
/// "engine.<method>").
const std::vector<std::string>& engine_methods();

/// Layer accounting of one traced search: the search span's self time plus
/// the engine spans under it, split into kernel, wait and overhead time.
struct SearchAccounting {
  double inner_setup_s = 0.0;  ///< set-up the timed call runs before its search
  double search_s = 0.0;        ///< traced search wall time
  double self_s = 0.0;    ///< search span self time
  double engine_s = 0.0;  ///< engine spans under the search
  double kernel_s = 0.0;  ///< kernel time, wall-equivalent
  double wait_s = 0.0;    ///< barrier or communication wait, wall-equivalent
  [[nodiscard]] double overhead_s() const { return engine_s - kernel_s - wait_s; }
};

/// Sums the kernel seconds of an evaluator's stats.
double kernel_seconds(const core::EvalStats& stats);

/// Sets engine.<method>.{calls,s} from span totals, per replica (an MPI
/// search has one replica per rank).
void report_engine_methods(Report& report, const std::map<std::string, Spans::Totals>& totals,
                           int replicas = 1);

}  // namespace perfbench
