// Timing, percentiles and the benchmark's JSON result line.
#ifndef SVCBENCH_MEASURE_H_
#define SVCBENCH_MEASURE_H_

#include <time.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace svcbench {

/// Seconds on the monotonic clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used, summed over all its threads.
inline double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Samples a percentile must leave above it before it may be reported.
inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile `q` in (0, 1) of `samples`. Returns false, and
/// leaves `out` alone, when fewer than kMinBeyond samples lie above the
/// rank (so a p90 needs at least 100 samples, a p50 at least 20).
bool Percentile(std::vector<double> samples, double q, double* out);

/// Median of `samples` (at least one), without the kMinBeyond rule: for
/// repeated whole-run figures such as set-up time.
double Median(std::vector<double> samples);

/// Arithmetic mean of `samples` (at least one).
double Mean(const std::vector<double>& samples);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Builds the last line of the benchmark's output.
struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;

  /// Records a metric; a non-finite value marks the run incorrect.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on standard error.
  void Fail(const std::string& why);
  /// The JSON object, on one line.
  std::string Json() const;
};

}  // namespace svcbench

#endif  // SVCBENCH_MEASURE_H_
