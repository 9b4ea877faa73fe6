// svc-tenants: the multi-tenant EvaluationService under an open-loop load.
//
// Eight tenants, each with its own alignment (16-32 taxa, 1-8 K sites) and
// a pool of four topologies, share one service (2 executors x 1 pool
// thread).  Arrivals are Poisson (independent tenants); the job mix is
// 60 % evaluate, 25 % gradient, 15 % branch-smooth; a quarter of the jobs
// request their full CLA footprint from a global budget sized below the
// largest request, so large budgeted jobs run degraded.
//
// Latency is timed from each job's due time.  Completions are collected by
// one waiter per possible in-flight job, so a slow job never delays the
// recorded completion of a faster one behind it.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "src/bio/patterns.hpp"
#include "src/core/make_evaluator.hpp"
#include "src/io/fasta.hpp"
#include "src/service/service.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"

namespace perfbench {

namespace {

namespace bio = miniphi::bio;
namespace model = miniphi::model;
namespace svc = miniphi::service;
using miniphi::Rng;

constexpr int kTenants = 8;
constexpr int kTopologies = 4;
constexpr int kExecutors = 2;
constexpr int kQueueLimit = 64;
constexpr int kTenantQuota = 16;
constexpr double kFixedRate = 250.0;  // jobs/s, about half the capacity
constexpr int kFixedPhases = 3;
constexpr int kFixedJobs = 1000;  // per phase: p99 has ten samples beyond it
constexpr int kRungJobs = 1200;
constexpr double kRungFactors[] = {1.4, 1.8, 2.2, 2.6, 3.0};
constexpr double kP99LimitMs = 100.0;
constexpr int kBurstJobs = 800;
constexpr int kBurstClients = 2 * 8;  // two per tenant
constexpr auto kDeadline = std::chrono::seconds(2);

struct Tenant {
  std::string name;
  int taxa = 0;
  std::unique_ptr<bio::PatternSet> patterns;
  model::GtrParams params;
  std::vector<tree::Tree> topologies;
  std::int64_t full_bytes = 0;  ///< CLA footprint of one full evaluation
};

/// Pinned tenant shapes: sizes do not depend on the seed, contents do.
/// Wider trees get shorter alignments, so no single tenant's jobs dominate
/// the latency tail (CLA work scales with taxa x patterns: 32 K-128 K).
int tenant_taxa(int i) { return 16 + (16 * i) / (kTenants - 1); }
std::int64_t tenant_sites(int i) { return 8000 - 1000 * static_cast<std::int64_t>(i); }

struct JobSpec {
  int tenant = 0;
  int topology = 0;
  svc::JobKind kind = svc::JobKind::kEvaluate;
  bool budgeted = false;
  double due_s = 0.0;  ///< offset from the phase start
};

struct JobOutcome {
  JobSpec spec;
  std::int64_t id = svc::kOverloadedJobId;
  double latency_ms = 0.0;
  double late_ms = 0.0;
  svc::JobResult result;
};

struct Phase {
  std::vector<JobOutcome> jobs;
  double wall_s = 0.0;
  double queued_mean = 0.0;
  double running_mean = 0.0;
  bool backlog_grows = false;
  std::int64_t ok = 0, shed = 0, expired = 0, failed = 0;
  [[nodiscard]] std::vector<double> ok_latencies() const {
    std::vector<double> out;
    for (const JobOutcome& job : jobs) {
      if (job.result.status == svc::JobStatus::kOk) out.push_back(job.latency_ms);
    }
    return out;
  }
};

/// Stops and joins a phase's helper threads when the phase ends, on the
/// exception path too.
class JoinOnExit {
 public:
  JoinOnExit(std::vector<std::thread>& threads, std::function<void()> stop)
      : threads_(threads), stop_(std::move(stop)) {}
  ~JoinOnExit() {
    stop_();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }
  JoinOnExit(const JoinOnExit&) = delete;
  JoinOnExit& operator=(const JoinOnExit&) = delete;

 private:
  std::vector<std::thread>& threads_;
  std::function<void()> stop_;
};

std::vector<JobSpec> make_jobs(std::uint64_t seed, int count, double rate) {
  Rng rng(seed);
  std::vector<JobSpec> jobs;
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    JobSpec job;
    t += rate > 0.0 ? rng.exponential(rate) : 0.0;
    job.due_s = t;
    job.tenant = static_cast<int>(rng.below(kTenants));
    job.topology = static_cast<int>(rng.below(kTopologies));
    const double u = rng.uniform();
    job.kind = u < 0.60 ? svc::JobKind::kEvaluate
                        : (u < 0.85 ? svc::JobKind::kGradient : svc::JobKind::kBranchSmooth);
    job.budgeted = rng.uniform() < 0.25;
    jobs.push_back(job);
  }
  return jobs;
}

svc::JobRequest make_request(const std::vector<Tenant>& tenants, const JobSpec& spec) {
  const Tenant& tenant = tenants[static_cast<std::size_t>(spec.tenant)];
  svc::JobRequest request;
  request.tenant = tenant.name;
  request.patterns = tenant.patterns.get();
  request.tree = &tenant.topologies[static_cast<std::size_t>(spec.topology)];
  request.params = tenant.params;
  request.options.kind = spec.kind;
  request.options.deadline = kDeadline;
  request.options.cla_budget_bytes = spec.budgeted ? tenant.full_bytes : 0;
  return request;
}

/// Open-loop phase: a generator submits each job at its due time, one
/// waiter per possible in-flight job collects completions, a poller samples
/// the queue.
Phase run_open_loop(svc::EvaluationService& service, const std::vector<Tenant>& tenants,
                    const std::vector<JobSpec>& specs) {
  Phase phase;
  phase.jobs.resize(specs.size());
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::size_t> pending;  // guarded by mutex
  bool generator_done = false;      // guarded by mutex

  const std::int64_t start_ns = now_ns() + 2'000'000;  // 2 ms head start for the threads
  auto waiter = [&] {
    for (;;) {
      std::size_t index = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !pending.empty() || generator_done; });
        if (pending.empty()) return;
        index = pending.front();
        pending.pop_front();
      }
      JobOutcome& job = phase.jobs[index];
      try {
        job.result = service.wait(job.id);
      } catch (const std::exception& e) {
        job.result.status = svc::JobStatus::kFailed;
        job.result.error = e.what();
      }
      const double due_ns = static_cast<double>(start_ns) + job.spec.due_s * 1e9;
      job.latency_ms = (static_cast<double>(now_ns()) - due_ns) * 1e-6;
    }
  };
  std::atomic<bool> polling{true};
  std::vector<std::pair<double, double>> samples;  // (queued, running), poller-owned
  std::vector<std::thread> threads;
  {
    const JoinOnExit join(threads, [&] {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        generator_done = true;
      }
      cv.notify_all();
      polling.store(false);
    });
    threads.emplace_back([&] {
      while (polling.load()) {
        const svc::ServiceStats stats = service.stats();
        samples.emplace_back(static_cast<double>(stats.queued),
                             static_cast<double>(stats.running));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (int i = 0; i < kQueueLimit + kExecutors; ++i) threads.emplace_back(waiter);

    for (std::size_t i = 0; i < specs.size(); ++i) {
      JobOutcome& job = phase.jobs[i];
      job.spec = specs[i];
      const auto due = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
          start_ns + static_cast<std::int64_t>(job.spec.due_s * 1e9)));
      std::this_thread::sleep_until(due);
      job.late_ms = static_cast<double>(
                        (std::chrono::steady_clock::now() - due) / std::chrono::nanoseconds(1)) *
                    1e-6;
      job.id = service.submit(make_request(tenants, job.spec));
      if (job.id == svc::kOverloadedJobId) {
        job.result.status = svc::JobStatus::kFailed;
        ++phase.shed;
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(mutex);
        pending.push_back(i);
      }
      cv.notify_one();
    }
  }
  phase.wall_s = static_cast<double>(now_ns() - start_ns) * 1e-9;

  for (const JobOutcome& job : phase.jobs) {
    if (job.id == svc::kOverloadedJobId) continue;
    switch (job.result.status) {
      case svc::JobStatus::kOk: ++phase.ok; break;
      case svc::JobStatus::kDeadlineExceeded: ++phase.expired; break;
      default: ++phase.failed; break;
    }
  }
  if (!samples.empty()) {
    const std::size_t third = samples.size() / 3;
    double first = 0.0, last = 0.0, queued = 0.0, running = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      queued += samples[i].first;
      running += samples[i].second;
      if (i < third) first += samples[i].first;
      if (i >= samples.size() - third) last += samples[i].first;
    }
    phase.queued_mean = queued / static_cast<double>(samples.size());
    phase.running_mean = running / static_cast<double>(samples.size());
    // A backlog that grows over the phase: the last third of the queue
    // samples averages more than eight jobs above the first third (smaller
    // rises are the queue fluctuating, which the p99 limit already judges).
    if (third > 0) phase.backlog_grows = (last - first) / static_cast<double>(third) > 8.0;
  }
  return phase;
}

/// The closed-loop job list: every tenant gets the same number of jobs in
/// exactly the 60/25/15 % mix, a quarter of each kind budgeted, over its
/// topologies; the seed only shuffles the order.  With the mix fixed, the
/// total work is the same for every seed.
std::vector<JobSpec> make_burst_jobs(std::uint64_t seed) {
  constexpr int kPerTenant = kBurstJobs / kTenants;
  std::vector<JobSpec> jobs;
  for (int t = 0; t < kTenants; ++t) {
    for (int j = 0; j < kPerTenant; ++j) {
      JobSpec job;
      job.tenant = t;
      const int slot = j % 20;  // 12 evaluate, 5 gradient, 3 smooth per 20
      job.kind = slot < 12 ? svc::JobKind::kEvaluate
                           : (slot < 17 ? svc::JobKind::kGradient : svc::JobKind::kBranchSmooth);
      job.topology = (j / 20) % kTopologies;
      job.budgeted = (j / 20) % 4 == 0;
      jobs.push_back(job);
    }
  }
  Rng rng(seed);
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  return jobs;
}

/// Closed loop: `kBurstClients` clients, two per tenant (so no tenant
/// exceeds its quota), each submitting its next job of that tenant when the
/// previous one completes; returns the wall time to finish them all.
double run_closed_burst(svc::EvaluationService& service, const std::vector<Tenant>& tenants,
                        const std::vector<JobSpec>& specs, std::int64_t& failed) {
  std::atomic<std::int64_t> bad{0};
  const double t0 = now_s();
  {
    std::vector<std::thread> clients;
    const JoinOnExit join(clients, [] {});
    for (int c = 0; c < kBurstClients; ++c) {
      clients.emplace_back([&, c] {
        int seen = 0;
        for (const JobSpec& spec : specs) {
          if (spec.tenant != c % kTenants || seen++ % 2 != c / kTenants) continue;
          try {
            const std::int64_t id = service.submit(make_request(tenants, spec));
            if (id == svc::kOverloadedJobId || service.wait(id).status != svc::JobStatus::kOk) {
              bad.fetch_add(1);
            }
          } catch (const std::exception&) {
            bad.fetch_add(1);
          }
        }
      });
    }
  }
  failed = bad.load();
  return now_s() - t0;
}

struct Replay {
  double lnl = 0.0;
  double build_ms = 0.0;
  double compute_ms = 0.0;
};

/// Runs one job alone through the evaluator factory, exactly as a serial
/// service executor does (fresh tree copy, root at the first edge).
Replay replay_solo(const std::vector<Tenant>& tenants, const JobSpec& spec,
                   std::int64_t budget_bytes) {
  const Tenant& tenant = tenants[static_cast<std::size_t>(spec.tenant)];
  const ScopedSpan job_span("svc.job");
  Replay replay;
  tree::Tree tree(tenant.topologies[static_cast<std::size_t>(spec.topology)]);
  core::EngineConfig config;
  config.cla_budget_bytes = budget_bytes;
  double t0 = now_s();
  std::unique_ptr<core::Evaluator> evaluator;
  {
    const ScopedSpan span("svc.build");
    evaluator =
        core::make_evaluator(*tenant.patterns, model::GtrModel(tenant.params), tree, config);
  }
  double t1 = now_s();
  replay.build_ms = (t1 - t0) * 1e3;
  {
    const ScopedSpan span("svc.compute");
    tree::Slot* root = tree.edges().front();
    switch (spec.kind) {
      case svc::JobKind::kEvaluate:
        replay.lnl = evaluator->log_likelihood(root);
        break;
      case svc::JobKind::kGradient: {
        replay.lnl = evaluator->log_likelihood(root);
        std::vector<core::BranchGradient> gradients;
        evaluator->gradient_all_branches(root, gradients);
        break;
      }
      case svc::JobKind::kBranchSmooth:
        replay.lnl = evaluator->optimize_all_branches(root, 1);
        break;
    }
  }
  replay.compute_ms = (now_s() - t1) * 1e3;
  return replay;
}

const char* kind_name(svc::JobKind kind) {
  switch (kind) {
    case svc::JobKind::kEvaluate: return "evaluate";
    case svc::JobKind::kGradient: return "gradient";
    case svc::JobKind::kBranchSmooth: return "smooth";
  }
  return "?";
}

/// p99 latency of a phase with every shed, expired or failed job counted
/// as missing the limit (capped at ten times the limit).
double phase_p99(const Phase& phase) {
  std::vector<double> all;
  for (const JobOutcome& job : phase.jobs) {
    all.push_back(job.result.status == svc::JobStatus::kOk ? job.latency_ms
                                                           : 10.0 * kP99LimitMs);
  }
  return std::min(quantile(all, 0.99), 10.0 * kP99LimitMs);
}

/// Highest sustainable rate: climbs a fixed ladder of offered rates above
/// the fixed rate until a rung misses the p99 limit, sheds a job or grows a
/// backlog, then interpolates on log p99 between the last passing and the
/// first failing rung, so the figure moves continuously with the service's
/// speed.  0 when the fixed rate itself fails.
double max_sustainable_rate(svc::EvaluationService& service, const std::vector<Tenant>& tenants,
                            const Phase& fixed, std::uint64_t seed) {
  double last_rate = kFixedRate;
  double last_p99 = phase_p99(fixed);
  if (last_p99 > kP99LimitMs || fixed.backlog_grows || fixed.shed > 0) return 0.0;
  for (std::size_t r = 0; r < std::size(kRungFactors); ++r) {
    const double rate = kFixedRate * kRungFactors[r];
    const Phase rung = run_open_loop(service, tenants, make_jobs(seed + r, kRungJobs, rate));
    const double p99 = phase_p99(rung);
    std::fprintf(stderr,
                 "perfbench: rung %.0f jobs/s: p99 %.2f ms, shed %lld, expired %lld, "
                 "backlog %s\n",
                 rate, p99, static_cast<long long>(rung.shed),
                 static_cast<long long>(rung.expired), rung.backlog_grows ? "grows" : "flat");
    if (p99 <= kP99LimitMs && rung.shed == 0 && !rung.backlog_grows) {
      last_rate = rate;
      last_p99 = p99;
      continue;
    }
    if (p99 <= kP99LimitMs) return last_rate;
    const double f =
        (std::log(kP99LimitMs) - std::log(last_p99)) / (std::log(p99) - std::log(last_p99));
    return last_rate + (rate - last_rate) * std::clamp(f, 0.0, 1.0);
  }
  return last_rate;
}

}  // namespace

void run_svc_tenants(const RunConfig& config, Report& report) {
  // Inputs: one FASTA per tenant, written before any timing starts.
  std::vector<std::string> paths;
  for (int i = 0; i < kTenants; ++i) {
    paths.push_back(config.workdir + "/svc-tenant" + std::to_string(i) + ".fasta");
    miniphi::io::write_fasta_file(
        paths.back(), simulate_dna(tenant_taxa(i), tenant_sites(i),
                                   100 + static_cast<std::uint64_t>(i),
                                   config.seed * 1000 + static_cast<std::uint64_t>(i))
                          .to_records());
  }

  std::vector<Tenant> tenants;
  std::unique_ptr<svc::EvaluationService> service;
  std::vector<SetupTimes> setups;
  const int passes = config.trace ? 1 : 3;
  for (int rep = 0; rep < passes; ++rep) {
    service.reset();
    tenants.clear();
    SetupTimes& times = setups.emplace_back();
    for (int i = 0; i < kTenants; ++i) {
      Tenant& tenant = tenants.emplace_back();
      tenant.name = "tenant" + std::to_string(i);
      tenant.taxa = tenant_taxa(i);
      double t0 = now_s();
      std::optional<bio::Alignment> alignment;
      {
        const ScopedSpan span("setup.io.parse");
        alignment.emplace(miniphi::io::read_fasta_file(paths[static_cast<std::size_t>(i)]));
      }
      double t1 = now_s();
      times.parse_s += t1 - t0;
      {
        const ScopedSpan span("setup.bio.compress");
        tenant.patterns = std::make_unique<bio::PatternSet>(bio::compress_patterns(*alignment));
      }
      t0 = now_s();
      times.compress_s += t0 - t1;
      tenant.params = empirical_model(*alignment).params();
      {
        const ScopedSpan span("setup.tree.parsimony");
        Rng rng(config.seed + static_cast<std::uint64_t>(i));
        tenant.topologies.push_back(miniphi::tree::parsimony_starting_tree(*tenant.patterns, rng));
        for (int t = 1; t < kTopologies; ++t) {
          tenant.topologies.push_back(miniphi::simulate::yule_tree(tenant.taxa, rng, 0.5));
        }
      }
      times.parsimony_s += now_s() - t0;
      tenant.full_bytes = static_cast<std::int64_t>(tenant.taxa - 2) *
                          static_cast<std::int64_t>(tenant.patterns->pattern_count()) *
                          static_cast<std::int64_t>(16 * sizeof(double) + sizeof(std::int32_t));
    }
    std::int64_t largest = 0;
    for (const Tenant& tenant : tenants) largest = std::max(largest, tenant.full_bytes);
    const double t0 = now_s();
    {
      const ScopedSpan span("setup.core.build");
      svc::ServiceConfig service_config;
      service_config.executors = kExecutors;
      service_config.pool_threads = 1;
      service_config.queue_limit = kQueueLimit;
      // A budget below the largest request degrades large budgeted jobs; the
      // floor keeps every degraded grant above the engines' minimum working
      // set (the tenants' smallest trees need about half their CLAs).
      service_config.cla_budget_bytes = largest * 6 / 10;
      service_config.degrade_floor_bytes = largest / 2;
      service = std::make_unique<svc::EvaluationService>(service_config);
      for (const Tenant& tenant : tenants) service->register_tenant(tenant.name, {kTenantQuota});
    }
    times.build_s = now_s() - t0;
  }
  report_setup(report, setups);

  // Fixed offered rate: outcome counts, latency and queueing.  Every job
  // must complete.  The traced run measures three phases, each with its own
  // arrivals.
  Phase fixed;
  double queued = 0.0, running = 0.0, throughput = 0.0;
  const int phases = config.trace ? kFixedPhases : 1;
  for (int phase = 0; phase < phases; ++phase) {
    const Phase current = run_open_loop(
        *service, tenants,
        make_jobs(config.seed * kFixedPhases + static_cast<std::uint64_t>(phase), kFixedJobs,
                  kFixedRate));
    fixed.jobs.insert(fixed.jobs.end(), current.jobs.begin(), current.jobs.end());
    fixed.ok += current.ok;
    fixed.shed += current.shed;
    fixed.expired += current.expired;
    fixed.failed += current.failed;
    fixed.backlog_grows = fixed.backlog_grows || current.backlog_grows;
    queued += current.queued_mean / phases;
    running += current.running_mean / phases;
    throughput += static_cast<double>(current.ok) / current.wall_s / phases;
  }
  report.ops(static_cast<std::int64_t>(fixed.jobs.size()),
             fixed.shed + fixed.expired + fixed.failed,
             "svc-tenants jobs at the fixed rate complete (shed, expired or failed count)");
  const std::vector<double> latencies = fixed.ok_latencies();
  report.set("svc.p50_ms", median(latencies));
  report.set("svc.p99_ms", quantile(latencies, 0.99));
  report.set("svc.ok", static_cast<double>(fixed.ok));
  report.set("svc.shed", static_cast<double>(fixed.shed));
  report.set("svc.expired", static_cast<double>(fixed.expired));
  report.set("svc.failed", static_cast<double>(fixed.failed));
  report.set("svc.queue_wait_ms", queued / throughput * 1e3);  // Little's law
  report.set("svc.running_mean", running);
  std::vector<double> late;
  std::int64_t degraded = 0;
  std::vector<double> granted;
  for (const JobOutcome& job : fixed.jobs) {
    late.push_back(job.late_ms);
    if (job.result.degraded) ++degraded;
    if (job.spec.budgeted && job.result.status == svc::JobStatus::kOk) {
      granted.push_back(static_cast<double>(job.result.cla_bytes_granted));
    }
  }
  report.set("svc.generator_late_ms", quantile(late, supported_tail_quantile(late.size())));
  report.set("memory.degraded_jobs", static_cast<double>(degraded));
  report.set("memory.cla_bytes_granted", median(granted));

  // Solo replay of sampled jobs: lnL must be bit-identical to the service's;
  // the replay also splits job time into evaluator build and compute.
  std::map<std::string, std::vector<double>> build_ms, compute_ms;
  std::vector<double> slowdown;
  std::int64_t replayed = 0, mismatched = 0;
  int degraded_replays = 0;
  for (std::size_t i = 0; i < fixed.jobs.size(); ++i) {
    const JobOutcome& job = fixed.jobs[i];
    if (job.result.status != svc::JobStatus::kOk) continue;
    const bool sample_degraded = job.result.degraded && degraded_replays < 16;
    if (i % 30 != 0 && !sample_degraded) continue;
    Spans::set_trace(Spans::new_trace());
    const Replay solo = replay_solo(tenants, job.spec, job.result.cla_bytes_granted);
    ++replayed;
    if (solo.lnl != job.result.log_likelihood) ++mismatched;
    build_ms[kind_name(job.spec.kind)].push_back(solo.build_ms);
    compute_ms[kind_name(job.spec.kind)].push_back(solo.compute_ms);
    if (sample_degraded) {
      ++degraded_replays;
      const Replay full = replay_solo(
          tenants, job.spec, tenants[static_cast<std::size_t>(job.spec.tenant)].full_bytes);
      slowdown.push_back(solo.compute_ms / full.compute_ms);
    }
    Spans::set_trace(0);
  }
  report.ops(replayed, mismatched, "sampled service jobs are bit-identical to a solo run");
  for (const auto& [kind, values] : build_ms) report.set("svc.build_ms." + kind, median(values));
  for (const auto& [kind, values] : compute_ms) {
    report.set("svc.compute_ms." + kind, median(values));
  }
  if (!slowdown.empty()) report.set("memory.budget_slowdown", median(slowdown));
  if (config.trace) {
    report.set("svc.max_rate_jobs_per_s",
               max_sustainable_rate(*service, tenants, fixed, config.seed * 100 + 1));
    return;
  }

  // End to end: one job list drained by closed-loop clients again and again
  // until the budget is spent (at least three drains); work_s is the best
  // drain time.
  std::vector<double> burst_s;
  PeakRss rss;
  double measured = 0.0;
  const std::vector<JobSpec> burst = make_burst_jobs(config.seed);
  while (burst_s.size() < 3 || measured < config.seconds) {
    std::int64_t burst_failed = 0;
    rss.begin();
    burst_s.push_back(run_closed_burst(*service, tenants, burst, burst_failed));
    rss.end();
    measured += burst_s.back();
    report.ops(kBurstJobs, burst_failed, "svc-tenants burst jobs complete");
  }
  report.set("work_s", *std::min_element(burst_s.begin(), burst_s.end()));
  report.set("peak_rss_mb", rss.best_mb());
}

}  // namespace perfbench
