// Host block: ISA flags, core count, source identity and an in-process
// single-thread STREAM triad — the bandwidth every roofline_frac divides by.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/util/aligned.hpp"

namespace perfbench {

namespace {

std::string isa_flags() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string word;
    std::string kept;
    for (; words >> word;) {
      static const char* wanted[] = {"sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
                                     "avx512vl", "avx512dq"};
      if (std::find_if(std::begin(wanted), std::end(wanted),
                       [&](const char* w) { return word == w; }) != std::end(wanted)) {
        kept += (kept.empty() ? "" : " ") + word;
      }
    }
    return kept;
  }
  return "unknown";
}

std::int64_t l3_bytes() {
  std::ifstream size_file("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (size_file >> text && !text.empty()) {
    std::int64_t value = std::stoll(text);
    const char suffix = text.back();
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    if (value > 0) return value;
  }
  return std::int64_t{32} << 20;  // unknown: assume a 32 MiB L3
}

}  // namespace

HostInfo measure_host(const std::string& commit) {
  HostInfo host;
  host.isa_flags = isa_flags();
  host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  host.commit = commit;
  host.l3_bytes = l3_bytes();
  host.triad_array_bytes = 4 * host.l3_bytes;
  const auto n = static_cast<std::size_t>(host.triad_array_bytes) / sizeof(double);
  miniphi::AlignedDoubles a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0 - static_cast<double>(i % 5) * 0.25;
  }
  const double scalar = 3.0;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    double* __restrict pa = a.data();
    const double* __restrict pb = b.data();
    const double* __restrict pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    best = std::min(best, now_s() - t0);
    // Keep every pass observable so none is folded away.
    if (a[n / 2] < 0.0) std::fprintf(stderr, "triad\n");
  }
  host.triad_gbps = 3.0 * static_cast<double>(n * sizeof(double)) / best * 1e-9;
  return host;
}

std::string host_json(const HostInfo& host) {
  std::ostringstream out;
  out.precision(6);
  out << "{\"host\": {\"isa_flags\": \"" << host.isa_flags << "\", \"nproc\": " << host.nproc
      << ", \"commit\": \"" << host.commit << "\", \"l3_bytes\": " << host.l3_bytes
      << ", \"triad_array_bytes\": " << host.triad_array_bytes
      << ", \"triad_threads\": 1, \"triad_gbps\": " << host.triad_gbps << "}}";
  return out.str();
}

}  // namespace perfbench
