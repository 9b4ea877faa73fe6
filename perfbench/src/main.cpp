// Layered benchmark entry point: one seeded run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--commit <source identity>]
//   perfbench --list-metrics
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 it holds the
// end-to-end metrics, with --trace 1 the per-layer metrics.  The line
// before it is the host block.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

std::vector<MetricDef> build_per_layer() {
  std::vector<MetricDef> defs;
  // Metric names are stored for the process lifetime.
  static std::vector<std::string> names;
  names.reserve(256);
  auto add = [&](std::string name, const char* unit) {
    names.push_back(std::move(name));
    defs.push_back({names.back().c_str(), unit, Better::kLower, 0.0});
  };
  const char* kernels[] = {"newview", "evaluate", "derivsum", "derivcore"};
  for (const char* k : kernels) {
    add(std::string("core.") + k + ".calls", "count");
    add(std::string("core.") + k + ".ns_per_site", "ns");
  }
  add("core.kernel_share", "ratio");
  for (const char* family : {"general", "cat"}) {
    for (const char* k : kernels) {
      add(std::string("core.") + family + "." + k + ".calls", "count");
      add(std::string("core.") + family + "." + k + ".ns_per_site", "ns");
    }
  }
  for (const char* k : kernels) {
    for (const char* isa : {"scalar", "avx2", "avx512"}) {
      const std::string base = std::string("core.") + k + "." + isa;
      add(base + ".ns_per_site", "ns");
      add(base + ".incache_ns_per_site", "ns");
      add(base + ".gbps_computed", "GB/s");
      add(base + ".roofline_frac", "ratio");
    }
  }
  add("core.build_s", "s");
  for (const std::string& method : engine_methods()) {
    add("engine." + method + ".calls", "count");
    add("engine." + method + ".s", "s");
  }
  add("engine.overhead_s", "s");
  add("plan.ops", "count");
  add("plan.levels", "count");
  add("plan.build_us", "us");
  add("parallel.compute_s", "s");
  add("parallel.barrier_wait_s", "s");
  add("parallel.wait_frac", "ratio");
  add("parallel.efficiency", "ratio");
  add("mpi.allreduces", "count");
  add("mpi.bytes", "bytes");
  add("mpi.wait_s", "s");
  add("mpi.wait_frac", "ratio");
  add("mpi.allreduce_us", "us");
  add("search.rounds", "count");
  add("search.insertions", "count");
  add("search.accepted_moves", "count");
  add("search.self_s", "s");
  add("search.protein_s", "s");
  add("search.cat_s", "s");
  add("io.parse_s", "s");
  add("bio.compress_s", "s");
  add("tree.parsimony_s", "s");
  add("memory.cla_bytes_granted", "bytes");
  add("memory.degraded_jobs", "count");
  add("memory.budget_slowdown", "ratio");
  add("svc.ok", "count");
  add("svc.shed", "count");
  add("svc.expired", "count");
  add("svc.failed", "count");
  add("svc.queue_wait_ms", "ms");
  add("svc.running_mean", "jobs");
  for (const char* kind : {"evaluate", "gradient", "smooth"}) {
    add(std::string("svc.build_ms.") + kind, "ms");
    add(std::string("svc.compute_ms.") + kind, "ms");
  }
  add("svc.generator_late_ms", "ms");
  add("svc.p50_ms", "ms");
  add("svc.p99_ms", "ms");
  add("svc.max_rate_jobs_per_s", "jobs/s");
  add("trace.overhead_frac", "ratio");
  add("trace.accounted_frac", "ratio");
  for (MetricDef& def : defs) {
    const std::string name = def.name;
    if (name.find("parallel.efficiency") == 0 || name.find("roofline_frac") != std::string::npos ||
        name.find("gbps") != std::string::npos || name == "core.kernel_share" ||
        name == "svc.ok" || name == "svc.max_rate_jobs_per_s" || name == "trace.accounted_frac") {
      def.better = Better::kHigher;
    }
  }
  return defs;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", Better::kLower, 0.25},
      {"work_s", "s", Better::kLower, 0.25},
      {"peak_rss_mb", "MB", Better::kLower, 0.20},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

Report::Report(bool trace) : trace_(trace) {
  for (const MetricDef& def : trace ? per_layer_metrics() : end_to_end_metrics()) {
    values_[def.name] = 0.0;
  }
}

void Report::set(const std::string& name, double value) {
  if (values_.count(name) != 0) {
    values_[name] = value;
    return;
  }
  for (const MetricDef& def : trace_ ? end_to_end_metrics() : per_layer_metrics()) {
    if (name == def.name) return;
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }

void Report::ops(std::int64_t attempted, std::int64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: FAILED %lld/%lld: %s\n", static_cast<long long>(failed),
                 static_cast<long long>(attempted), what.c_str());
  }
}

std::string Report::result_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : trace_ ? per_layer_metrics() : end_to_end_metrics()) {
    const double value = values_.at(def.name);
    out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
        << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double supported_tail_quantile(std::size_t samples) {
  if (samples <= 10) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

bool close(double a, double b, double rel, double abs) {
  return std::isfinite(a) && std::isfinite(b) && std::fabs(a - b) <= rel * std::fabs(b) + abs;
}

void PeakRss::begin() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

void PeakRss::end() {
  // VmHWM: peak resident set since the last reset, in kB.
  std::ifstream status("/proc/self/status");
  std::string line;
  double mb = 0.0;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) mb = std::stod(line.substr(6)) / 1024.0;
  }
  if (mb <= 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  }
  best_mb_ = best_mb_ > 0.0 ? std::min(best_mb_, mb) : mb;
}

}  // namespace perfbench

namespace {

void print_catalogue() {
  using namespace perfbench;
  auto emit = [](const std::vector<MetricDef>& defs, bool bounds) {
    std::printf("[");
    for (std::size_t i = 0; i < defs.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"", i ? ", " : "",
                  defs[i].name, defs[i].unit,
                  defs[i].better == Better::kLower ? "lower" : "higher");
      if (bounds) std::printf(", \"bound\": %g", defs[i].bound);
      std::printf("}");
    }
    std::printf("]");
  };
  std::printf("{\"end_to_end\": ");
  emit(end_to_end_metrics(), true);
  std::printf(", \"per_layer\": ");
  emit(per_layer_metrics(), false);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      print_catalogue();
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      config.seconds = std::stod(value);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--commit") {
      config.commit = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || config.workdir.empty() || !(config.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: need --workload, --workdir and --seconds > 0\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(config.workdir);
    Report report(config.trace);
    Spans::set_enabled(config.trace);
    if (config.workload == "dna-long") {
      run_dna_long(config, report);
    } else if (config.workload == "dna-short-mpi") {
      run_dna_short_mpi(config, report);
    } else if (config.workload == "families-serial") {
      run_families_serial(config, report);
    } else if (config.workload == "svc-tenants") {
      run_svc_tenants(config, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", config.workload.c_str());
      return 2;
    }
    // The host block runs after the workload so its triad arrays stay out
    // of the workload's figures.
    const HostInfo host = measure_host(config.commit);
    if (config.trace) {
      std::printf("%s\n", run_kernel_probe(report, host.triad_gbps).c_str());
      Spans::write(config.workdir + "/trace-" + config.workload + ".jsonl",
                   "{\"workload\": \"" + config.workload + "\", \"seed\": " +
                       std::to_string(config.seed) + ", \"host\": " + host_json(host) + "}");
    }
    std::printf("%s\n", host_json(host).c_str());
    std::printf("%s\n", report.result_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
