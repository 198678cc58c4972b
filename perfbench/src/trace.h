// The benchmark's own span recorder. Spans are placed by the benchmark
// around its calls into each fsdep layer (the program's internal
// obs::Trace stays off), kept in per-thread in-memory buffers, and
// written out once at the end of a traced run.
//
// A span names its layer ("lex.tokenize", "taint.analyze", ...) and its
// parent. Work handed to ThreadPool::parallelFor runs on other threads,
// so a caller passes the dispatching span's id to the worker spans
// explicitly; on one thread the innermost open span is the default
// parent. With tracing off a Span costs one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

void setEnabled(bool on);
bool enabled();

/// Nanoseconds on the steady clock since the first call in the process.
std::int64_t nowNs();

inline constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  bool active_ = false;
};

/// Records an interval the benchmark measured itself (e.g. a request's
/// queueing, derived from timestamps) as a finished span. Returns its id.
std::uint64_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t parent);

/// Removes and returns every finished span of every thread.
std::vector<SpanRecord> drain();

/// Per-layer totals over a set of spans. `self_ms` is busy time minus
/// the part of each span's interval its children cover (children may
/// run on other threads); `max_ms` is the longest single span.
struct LayerStat {
  std::uint64_t count = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  double max_ms = 0.0;
  bool has_children = false;
};
std::map<std::string, LayerStat> aggregate(const std::vector<SpanRecord>& spans);

/// Share of the wall time of every span named `pass` that its direct
/// children cover (1.0 = fully attributed).
double coverage(const std::vector<SpanRecord>& spans, const char* pass);

/// Largest unexplained share: over every layer whose spans have
/// children, self time divided by busy time.
double maxUnexplainedShare(const std::map<std::string, LayerStat>& layers);

/// Prints one row per layer (count, busy, self, max) to stderr.
void printTable(const char* title, const std::map<std::string, LayerStat>& layers);

/// Chrome trace-event JSON (chrome://tracing, Perfetto).
bool writeChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench::trace
