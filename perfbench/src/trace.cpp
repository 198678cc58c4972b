#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

struct Buffer {
  std::mutex mu;  // guards spans: the owner appends, drain() takes
  std::vector<SpanRecord> spans;
  std::uint32_t tid = 0;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<Buffer>> g_buffers;

struct ThreadState {
  std::shared_ptr<Buffer> buffer;
  std::vector<std::uint64_t> open;  // stack of open span ids
};

ThreadState& threadState() {
  thread_local ThreadState state = [] {
    ThreadState s;
    s.buffer = std::make_shared<Buffer>();
    s.buffer->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(s.buffer);
    return s;
  }();
  return state;
}

void push(ThreadState& state, const SpanRecord& record) {
  const std::lock_guard<std::mutex> lock(state.buffer->mu);
  state.buffer->spans.push_back(record);
}

/// Length of the union of [begin, end) intervals clipped to [lo, hi).
double unionNs(std::vector<std::pair<std::int64_t, std::int64_t>>& intervals, std::int64_t lo,
               std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  std::int64_t cursor = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, cursor);
    end = std::min(end, hi);
    if (end <= begin) continue;
    covered += static_cast<double>(end - begin);
    cursor = end;
  }
  return covered;
}

using ChildMap = std::unordered_map<std::uint64_t, std::vector<std::size_t>>;

ChildMap childrenOf(const std::vector<SpanRecord>& spans) {
  ChildMap children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  return children;
}

double coveredNs(const std::vector<SpanRecord>& spans, const ChildMap& children,
                 const SpanRecord& span) {
  const auto it = children.find(span.id);
  if (it == children.end()) return 0.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(it->second.size());
  for (const std::size_t c : it->second) intervals.emplace_back(spans[c].start_ns, spans[c].end_ns);
  return unionNs(intervals, span.start_ns, span.end_ns);
}

}  // namespace

void setEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t nowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              epoch)
      .count();
}

Span::Span(const char* name, std::uint64_t parent) {
  if (!enabled()) return;
  ThreadState& state = threadState();
  active_ = true;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent =
      parent != kInheritParent ? parent : (state.open.empty() ? 0 : state.open.back());
  record_.tid = state.buffer->tid;
  state.open.push_back(record_.id);
  record_.start_ns = nowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = nowNs();
  ThreadState& state = threadState();
  state.open.pop_back();
  push(state, record_);
}

std::uint64_t record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::uint64_t parent) {
  if (!enabled()) return 0;
  ThreadState& state = threadState();
  SpanRecord r;
  r.name = name;
  r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  r.parent = parent;
  r.start_ns = start_ns;
  r.end_ns = std::max(start_ns, end_ns);
  r.tid = state.buffer->tid;
  push(state, r);
  return r.id;
}

std::vector<SpanRecord> drain() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const std::shared_ptr<Buffer>& buffer : g_buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.start_ns < b.start_ns; });
  return all;
}

std::map<std::string, LayerStat> aggregate(const std::vector<SpanRecord>& spans) {
  const ChildMap children = childrenOf(spans);
  std::map<std::string, LayerStat> layers;
  for (const SpanRecord& span : spans) {
    LayerStat& stat = layers[span.name];
    const double dur = static_cast<double>(span.end_ns - span.start_ns);
    const double covered = coveredNs(spans, children, span);
    ++stat.count;
    stat.busy_ms += dur / 1e6;
    stat.self_ms += (dur - covered) / 1e6;
    stat.max_ms = std::max(stat.max_ms, dur / 1e6);
    stat.has_children = stat.has_children || children.count(span.id) != 0;
  }
  return layers;
}

double coverage(const std::vector<SpanRecord>& spans, const char* pass) {
  const ChildMap children = childrenOf(spans);
  double wall = 0.0;
  double covered = 0.0;
  for (const SpanRecord& span : spans) {
    if (std::string_view(span.name) != pass) continue;
    wall += static_cast<double>(span.end_ns - span.start_ns);
    covered += coveredNs(spans, children, span);
  }
  return wall > 0.0 ? covered / wall : 0.0;
}

double maxUnexplainedShare(const std::map<std::string, LayerStat>& layers) {
  double worst = 0.0;
  for (const auto& [name, stat] : layers) {
    if (stat.has_children && stat.busy_ms > 0.0) worst = std::max(worst, stat.self_ms / stat.busy_ms);
  }
  return worst;
}

void printTable(const char* title, const std::map<std::string, LayerStat>& layers) {
  std::fprintf(stderr, "%s\n  %-32s %8s %12s %12s %10s\n", title, "layer", "count", "busy_ms",
               "self_ms", "max_ms");
  for (const auto& [name, stat] : layers) {
    std::fprintf(stderr, "  %-32s %8llu %12.3f %12.3f %10.3f\n", name.c_str(),
                 static_cast<unsigned long long>(stat.count), stat.busy_ms, stat.self_ms,
                 stat.max_ms);
  }
}

bool writeChromeTrace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const SpanRecord& span : spans) {
    std::fprintf(out,
                 "%s\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 first ? "" : ",", span.name, span.tid, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent));
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
