// Shared plumbing of the fsdep benchmark: the result every workload
// returns, order statistics, the seeded RNG the workloads draw their
// inputs from, and the process-level probes (peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What a workload run reports. `attempted` counts the operations the
/// run checked (passes, requests, cells, replays); `failed` the ones
/// that errored or disagreed with their reference. Metric units live in
/// one place, the catalog in BENCHMARK.json.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value) { metrics.push_back(Metric{std::move(name), value}); }
  /// Records one checked operation; a false `ok` also counts a failure
  /// and explains it on stderr.
  void check(bool ok, std::string_view what);
};

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string goldens_path;  ///< committed reference outputs
  std::string catalog_path;  ///< BENCHMARK.json: every metric's name and unit
  std::string work_dir;      ///< scratch space inside the checkout
  std::string trace_out;     ///< where the traced run writes its spans
};

/// Runs `setup` untimed, repeatedly, for two seconds before the timed
/// set-ups. On the reference host a process started after the machine
/// sat idle ran its first second or so two to three times slower, and the
/// timed set-ups come first in a run.
void warmUp(const std::function<void()>& setup);

/// Median of `values` (0 for an empty list). Takes a copy to sort.
double median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1] (0 for an empty list).
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process (VmHWM), in MiB.
double peakRssMb();

/// 64-bit FNV-1a, the digest the committed goldens are written in.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xCBF29CE484222325ULL);

/// splitmix64 stream: the only source of randomness in a workload, so
/// the same --seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
