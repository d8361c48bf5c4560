// Small helpers shared by the benchmark binary: clocks, order statistics,
// peak RSS, and the metric table printed as the run's last line.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// CPU time consumed so far by the whole process (CLOCK_PROCESS_CPUTIME_ID)
/// or by the calling thread (CLOCK_THREAD_CPUTIME_ID), in seconds.
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile q ∈ [0,1] of `values` (sorted in place). +inf
/// entries (refused or unanswered requests) sort last, so they count
/// against every percentile they reach. NaN on an empty input.
inline double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Peak resident set size of this process in MiB (VmHWM).
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Ordered name → (value, unit) table; printed as the result's "metrics".
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }

  /// JSON object body; non-finite values become null (a failed run).
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char value[64];
      if (std::isfinite(e.value)) {
        std::snprintf(value, sizeof(value), "%.9g", e.value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      out += (i == 0 ? "" : ", ");
      out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

  bool AllFinite() const {
    return std::all_of(entries_.begin(), entries_.end(),
                       [](const Entry& e) { return std::isfinite(e.value); });
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
