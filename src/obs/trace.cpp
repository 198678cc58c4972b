#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/jsonw.h"
#include "obs/metrics.h"

namespace fsdep::obs {

std::atomic<bool> Trace::enabled_{false};

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::size_t> g_buffer_limit{std::size_t{1} << 18};

/// One thread's event buffer. The owning thread appends under `mu`
/// (uncontended except during stop()); the collector locks the same
/// mutex when draining. Buffers are kept alive in the registry past
/// thread exit so short-lived pool workers lose no events.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
  Clock::time_point epoch = Clock::now();
};

TraceState& state() {
  static TraceState s;
  return s;
}

ThreadBuffer& localBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    b->tid = s.next_tid++;
    s.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

/// The calling thread's latest Span begin sequence number.
std::uint64_t& threadSeq() {
  thread_local std::uint64_t seq = 0;
  return seq;
}

std::vector<TraceEvent> drainEvents(bool clear) {
  std::vector<TraceEvent> all;
  TraceState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (const auto& buffer : s.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    if (clear) buffer->events.clear();
  }
  std::stable_sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.tid < b.tid;
  });
  return all;
}

std::string renderTrace(const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.beginObject();
  w.key("traceEvents");
  w.beginArray();
  for (const TraceEvent& e : events) {
    w.beginObject();
    w.field("name", std::string_view(e.name));
    w.field("cat", std::string_view(e.category));
    w.field("ph", e.phase == TraceEvent::Phase::Complete ? "X" : "i");
    w.field("ts", e.ts_us);
    if (e.phase == TraceEvent::Phase::Complete) w.field("dur", e.dur_us);
    if (e.phase == TraceEvent::Phase::Instant) w.field("s", "t");
    w.field("pid", std::uint64_t{1});
    w.field("tid", std::uint64_t{e.tid});
    if (!e.args_json.empty()) {
      // args_json is a pre-escaped "key":value,... fragment.
      w.key("args");
      w.rawValue("{" + e.args_json + "}");
    }
    w.endObject();
  }
  w.endArray();
  w.field("displayTimeUnit", "ms");
  w.endObject();
  std::string text = w.take();
  text += '\n';
  return text;
}

}  // namespace

void Trace::start() {
  TraceState& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& buffer : s.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      buffer->events.clear();
    }
    s.epoch = Clock::now();
  }
  g_dropped.store(0, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

std::string Trace::stop() {
  enabled_.store(false, std::memory_order_relaxed);
  return renderTrace(drainEvents(/*clear=*/true));
}

std::vector<TraceEvent> Trace::stopEvents() {
  enabled_.store(false, std::memory_order_relaxed);
  return drainEvents(/*clear=*/true);
}

std::string Trace::render(const std::vector<TraceEvent>& events) { return renderTrace(events); }

bool Trace::stopToFile(const std::string& path) {
  const std::string text = stop();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::uint64_t Trace::nowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - state().epoch)
          .count());
}

void Trace::emit(TraceEvent event) {
  if (!enabled()) return;
  ThreadBuffer& buffer = localBuffer();
  event.tid = buffer.tid;
  const std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.events.size() >= g_buffer_limit.load(std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    static Counter& dropped_counter = Registry::global().counter("trace.dropped_events");
    dropped_counter.add();
    return;
  }
  buffer.events.push_back(std::move(event));
}

std::uint64_t Trace::droppedEvents() { return g_dropped.load(std::memory_order_relaxed); }

std::size_t Trace::bufferLimit() { return g_buffer_limit.load(std::memory_order_relaxed); }

void Trace::setBufferLimit(std::size_t limit) {
  g_buffer_limit.store(limit == 0 ? 1 : limit, std::memory_order_relaxed);
}

void Trace::instant(const char* category, std::string name, std::string args_json) {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = TraceEvent::Phase::Instant;
  e.category = category;
  e.name = std::move(name);
  e.ts_us = nowMicros();
  e.args_json = std::move(args_json);
  emit(std::move(e));
}

std::vector<TraceEvent> Trace::snapshot() { return drainEvents(/*clear=*/false); }

void appendArg(std::string& args_json, std::string_view key, std::string_view value) {
  if (!args_json.empty()) args_json += ',';
  appendJsonString(args_json, key);
  args_json += ':';
  appendJsonString(args_json, value);
}

void appendArg(std::string& args_json, std::string_view key, std::uint64_t value) {
  if (!args_json.empty()) args_json += ',';
  appendJsonString(args_json, key);
  args_json += ':';
  args_json += std::to_string(value);
}

void Span::begin(const char* category, const char* name) {
  category_ = category;
  name_ = name;
  start_us_ = Trace::nowMicros();
  seq_ = ++threadSeq();
  active_ = true;
}

void Span::noteDim(std::string_view key, std::string_view value) {
  if (key != "scenario" && key != "component" && key != "function" && key != "op") return;
  if (!group_.empty()) group_ += '/';
  group_ += value;
}

void Span::end() {
  // Tracing may have been stopped mid-span; emit() drops the event then.
  TraceEvent e;
  e.phase = TraceEvent::Phase::Complete;
  e.category = category_;
  e.name = name_;
  e.ts_us = start_us_;
  const std::uint64_t now = Trace::nowMicros();
  e.dur_us = now >= start_us_ ? now - start_us_ : 0;
  e.seq = seq_;
  e.last_seq = threadSeq();
  e.args_json = std::move(args_json_);
  e.group = std::move(group_);
  Trace::emit(std::move(e));
}

}  // namespace fsdep::obs
