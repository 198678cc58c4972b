// Trace spans — pillar 1 of the observability layer (fsdep-obs).
//
// RAII Span objects record Chrome trace-event "complete" events
// ("ph":"X") into per-thread buffers; Trace::stop() merges the buffers
// and renders a JSON document loadable in Perfetto / chrome://tracing.
// The CLI exposes this as `--trace out.json`.
//
// Cost model: instrumentation is always compiled in. When tracing is
// off (the default), constructing a Span is one relaxed atomic load and
// two pointer-sized stores — no clock read, no allocation, no branch
// beyond the enabled check. Event payloads (names, args) are only
// materialized when tracing is on.
//
// Threads: each thread appends to its own buffer (registered once, on
// first use, under the global mutex). Buffers outlive their threads so
// pool workers that exit before stop() lose nothing. Every event
// carries a small sequential tid assigned at registration; Perfetto
// reconstructs span nesting per tid from (ts, dur).
//
// Buffers are bounded (bufferLimit() events per thread). Overflowing
// events are dropped — and counted, both in droppedEvents() and in the
// "trace.dropped_events" registry counter, so saturation is visible in
// --metrics and --report instead of silently truncating the profile.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fsdep::obs {

/// One recorded trace event (internal, exposed for tests).
struct TraceEvent {
  enum class Phase : std::uint8_t { Complete, Instant };
  Phase phase = Phase::Complete;
  const char* category = "";  ///< static string, never freed
  std::string name;
  std::uint64_t ts_us = 0;   ///< microseconds since Trace::start()
  std::uint64_t dur_us = 0;  ///< Complete events only
  std::uint32_t tid = 0;
  /// A Span's place in its thread's begin order (1, 2, ...), and the
  /// latest place handed out on that thread when it ended: the spans of
  /// the thread with seq in (seq, last_seq] began inside this one. They
  /// order spans that share a microsecond, which (ts, dur) cannot. 0 for
  /// events not recorded by a Span.
  std::uint64_t seq = 0;
  std::uint64_t last_seq = 0;
  /// Pre-escaped JSON object fragment ("" = no args), e.g.
  /// "\"component\":\"mke2fs\",\"scenario\":\"s1\"".
  std::string args_json;
  /// Attribution dimension: the values of well-known string args
  /// (scenario, component, function, op) joined with '/'. The profile
  /// aggregator groups same-name spans by this; the JSON render ignores
  /// it (the values are already in args_json).
  std::string group;
};

class Trace {
 public:
  /// Branch-cheap global switch; relaxed is fine — span timing does not
  /// need to synchronize with the flip.
  [[nodiscard]] static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Clears all buffers and starts collecting. Idempotent.
  static void start();

  /// Stops collecting and renders everything gathered since start() as
  /// a Chrome trace-event JSON document ({"traceEvents":[...]}).
  static std::string stop();

  /// Stops collecting and hands back the raw merged events (sorted by
  /// ts, tid), clearing the buffers. The profile aggregator consumes
  /// this directly — no JSON round trip.
  static std::vector<TraceEvent> stopEvents();

  /// Renders events as a Chrome trace-event JSON document. `events`
  /// usually comes from stopEvents(); exposed so one collection can
  /// feed both --trace and --profile.
  static std::string render(const std::vector<TraceEvent>& events);

  /// stop() + write to `path`. Returns false when the file cannot be
  /// written (the trace text is lost; callers log and carry on).
  static bool stopToFile(const std::string& path);

  /// Microseconds since start() on the steady clock.
  static std::uint64_t nowMicros();

  /// Appends a finished event to the calling thread's buffer. No-ops
  /// when tracing is off (races with stop() simply drop the event).
  static void emit(TraceEvent event);

  /// Convenience: an instant event ("ph":"i") at now.
  static void instant(const char* category, std::string name, std::string args_json = {});

  /// Snapshot of all collected events, merged and sorted by (ts, tid).
  /// Test hook; production code uses stop().
  static std::vector<TraceEvent> snapshot();

  /// Events dropped since start() because a thread's buffer was full.
  static std::uint64_t droppedEvents();

  /// Per-thread buffer bound, in events. The default (1<<18 per thread,
  /// ~32 MB worst case across a pool) comfortably holds a factor-100
  /// amplified run; tests shrink it to exercise the drop path.
  static std::size_t bufferLimit();
  static void setBufferLimit(std::size_t limit);

 private:
  friend class Span;
  static std::atomic<bool> enabled_;
};

/// Escapes and appends one `"key":"value"` pair to an args fragment.
/// Helper for Span::arg and call sites that pre-build instant args.
void appendArg(std::string& args_json, std::string_view key, std::string_view value);
void appendArg(std::string& args_json, std::string_view key, std::uint64_t value);

/// RAII complete-event span. `category` and `name` must be string
/// literals (stored as pointers; only copied if tracing is on).
class Span {
 public:
  Span(const char* category, const char* name) {
    if (Trace::enabled()) begin(category, name);
  }
  ~Span() {
    if (active_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is recording (tracing was on at construction).
  [[nodiscard]] bool active() const { return active_; }

  /// Attaches an argument; no-op when inactive, so call sites can pass
  /// computed values guarded by active() to stay zero-cost when off.
  /// String args under a well-known dimension key (scenario, component,
  /// function, op) also extend the span's attribution group — the key
  /// the profile aggregator buckets same-name spans by.
  void arg(std::string_view key, std::string_view value) {
    if (active_) {
      appendArg(args_json_, key, value);
      noteDim(key, value);
    }
  }
  void arg(std::string_view key, std::uint64_t value) {
    if (active_) appendArg(args_json_, key, value);
  }

 private:
  void begin(const char* category, const char* name);
  void end();
  void noteDim(std::string_view key, std::string_view value);

  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::string args_json_;
  std::string group_;
  std::uint64_t start_us_ = 0;
  std::uint64_t seq_ = 0;
  bool active_ = false;
};

}  // namespace fsdep::obs
