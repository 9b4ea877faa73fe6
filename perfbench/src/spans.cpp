// Span recorder and forwarding evaluator of the traced run.
#include <atomic>
#include <fstream>
#include <mutex>

#include "bench.hpp"

namespace perfbench {

namespace {

struct ThreadBuffer {
  std::vector<Spans::Span> spans;
  std::vector<std::size_t> open;  ///< indices of open spans, innermost last
  std::uint64_t trace = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // guarded by mutex
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_trace{1};

ThreadBuffer& local() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

void Spans::set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Spans::set_trace(std::uint64_t trace) { local().trace = trace; }
std::uint64_t Spans::new_trace() { return g_next_trace.fetch_add(1); }

void Spans::begin(const char* name) {
  ThreadBuffer& buffer = local();
  Span span;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
  span.trace = buffer.trace;
  span.name = name;
  span.start_ns = now_ns();
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back(span);
}

void Spans::end() {
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = local();
  if (buffer.open.empty()) return;
  Span& span = buffer.spans[buffer.open.back()];
  buffer.open.pop_back();
  span.end_ns = end;
  if (!buffer.open.empty()) buffer.spans[buffer.open.back()].child_ns += end - span.start_ns;
}

std::map<std::string, Spans::Totals> Spans::totals(std::uint64_t trace) {
  std::map<std::string, Totals> out;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    for (const Span& span : buffer->spans) {
      if (span.end_ns == 0 || (trace != 0 && span.trace != trace)) continue;
      Totals& totals = out[span.name];
      const double duration = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      totals.calls += 1;
      totals.total_s += duration;
      totals.self_s += duration - static_cast<double>(span.child_ns) * 1e-9;
    }
  }
  return out;
}

void Spans::write(const std::string& path, const std::string& header) {
  std::ofstream out(path);
  out << header << "\n";
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (std::size_t thread = 0; thread < reg.buffers.size(); ++thread) {
    for (const Span& span : reg.buffers[thread]->spans) {
      out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
          << ", \"trace\": " << span.trace << ", \"name\": \"" << span.name
          << "\", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns
          << ", \"thread\": " << thread << "}\n";
    }
  }
}

// --- Forwarding evaluator -------------------------------------------------------

const std::vector<std::string>& engine_methods() {
  // prepare_derivatives / derivatives are traced too, but no search calls
  // them: the evaluators' own branch optimizers drive that protocol inside.
  static const std::vector<std::string> methods = {
      "log_likelihood", "optimize_branch", "optimize_all_branches", "gradient_all_branches"};
  return methods;
}

double TracedEvaluator::log_likelihood(tree::Slot* edge) {
  const ScopedSpan span("engine.log_likelihood");
  return inner_.log_likelihood(edge);
}

void TracedEvaluator::prepare_derivatives(tree::Slot* edge) {
  const ScopedSpan span("engine.prepare_derivatives");
  inner_.prepare_derivatives(edge);
}

std::pair<double, double> TracedEvaluator::derivatives(double z) {
  const ScopedSpan span("engine.derivatives");
  return inner_.derivatives(z);
}

double TracedEvaluator::optimize_branch(tree::Slot* edge, int max_iterations) {
  const ScopedSpan span("engine.optimize_branch");
  return inner_.optimize_branch(edge, max_iterations);
}

double TracedEvaluator::optimize_all_branches(tree::Slot* root_edge, int passes) {
  const ScopedSpan span("engine.optimize_all_branches");
  return inner_.optimize_all_branches(root_edge, passes);
}

bool TracedEvaluator::gradient_all_branches(tree::Slot* root_edge,
                                            std::vector<core::BranchGradient>& out) {
  const ScopedSpan span("engine.gradient_all_branches");
  return inner_.gradient_all_branches(root_edge, out);
}

void TracedEvaluator::set_alpha(double alpha) {
  const ScopedSpan span("engine.set_model");
  inner_.set_alpha(alpha);
}

bool TracedEvaluator::set_gtr_model(const miniphi::model::GtrModel& model) {
  const ScopedSpan span("engine.set_model");
  return inner_.set_gtr_model(model);
}

double kernel_seconds(const core::EvalStats& stats) {
  double total = 0.0;
  for (const core::KernelStat& stat : stats.kernels) total += stat.seconds;
  return total;
}

void report_engine_methods(Report& report, const std::map<std::string, Spans::Totals>& totals,
                           int replicas) {
  for (const std::string& method : engine_methods()) {
    const auto it = totals.find("engine." + method);
    if (it == totals.end()) continue;
    report.set("engine." + method + ".calls", static_cast<double>(it->second.calls) / replicas);
    report.set("engine." + method + ".s", it->second.total_s / replicas);
  }
}

}  // namespace perfbench
