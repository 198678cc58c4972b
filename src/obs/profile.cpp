#include "obs/profile.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "obs/jsonw.h"

namespace fsdep::obs {

namespace {

/// Mutable per-node state used only while building; folded into the
/// public ProfileNode at finalize.
struct BuildState {
  std::vector<std::vector<std::uint64_t>> samples;  ///< per-node durations
  std::vector<std::uint64_t> child_us;              ///< time attributed to children
  /// Per-node lookup of existing children by identity key.
  std::vector<std::unordered_map<std::string, std::size_t>> child_index;
};

std::string identityKey(const TraceEvent& e) {
  std::string key(e.category);
  key += '\0';
  key += e.name;
  key += '\0';
  key += e.group;
  return key;
}

std::size_t childNode(Profile& p, BuildState& b, std::size_t parent, const TraceEvent& e) {
  auto [it, inserted] = b.child_index[parent].try_emplace(identityKey(e), p.nodes.size());
  if (!inserted) return it->second;
  ProfileNode node;
  node.category = e.category;
  node.name = e.name;
  node.group = e.group;
  p.nodes.push_back(std::move(node));
  p.nodes[parent].children.push_back(it->second);
  b.samples.emplace_back();
  b.child_us.push_back(0);
  b.child_index.emplace_back();
  return it->second;
}

std::uint64_t quantileExact(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  auto idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

double usToMs(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }

void appendLine(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
  out += '\n';
}

/// Folded-stack frames must not contain ';' (the stack separator) or
/// whitespace (the count separator).
std::string foldedFrame(const ProfileNode& node) {
  std::string frame = node.name;
  if (!node.group.empty()) {
    frame += ':';
    frame += node.group;
  }
  for (char& c : frame) {
    if (c == ';' || c == ' ' || c == '\t' || c == '\n') c = '_';
  }
  if (frame.empty()) frame = "_";
  return frame;
}

void renderJsonNode(JsonWriter& w, const Profile& p, std::size_t index) {
  const ProfileNode& node = p.nodes[index];
  w.beginObject();
  w.field("category", std::string_view(node.category));
  w.field("name", std::string_view(node.name));
  w.field("group", std::string_view(node.group));
  w.field("count", node.count);
  w.field("total_us", node.total_us);
  w.field("self_us", node.self_us);
  w.field("min_us", node.min_us);
  w.field("max_us", node.max_us);
  w.field("p50_us", node.p50_us);
  w.field("p95_us", node.p95_us);
  w.key("children");
  w.beginArray();
  for (const std::size_t child : node.children) renderJsonNode(w, p, child);
  w.endArray();
  w.endObject();
}

void renderFoldedNode(std::string& out, const Profile& p, std::size_t index,
                      std::string& stack) {
  const ProfileNode& node = p.nodes[index];
  const std::size_t stack_len = stack.size();
  if (index != 0) {
    if (!stack.empty()) stack += ';';
    stack += foldedFrame(node);
    if (node.self_us > 0) {
      out += stack;
      out += ' ';
      out += std::to_string(node.self_us);
      out += '\n';
    }
  }
  for (const std::size_t child : node.children) renderFoldedNode(out, p, child, stack);
  stack.resize(stack_len);
}

}  // namespace

Profile buildProfile(const std::vector<TraceEvent>& events, double wall_ms,
                     std::string command) {
  Profile p;
  p.command = std::move(command);
  p.wall_ms = wall_ms;
  p.dropped_events = Trace::droppedEvents();

  ProfileNode root;
  root.name = "root";
  p.nodes.push_back(std::move(root));
  BuildState b;
  b.samples.emplace_back();
  b.child_us.push_back(0);
  b.child_index.emplace_back();

  // Partition Complete events by tid; spans only nest within a thread.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase == TraceEvent::Phase::Complete) by_tid[events[i].tid].push_back(i);
  }
  std::vector<std::uint32_t> tids;
  tids.reserve(by_tid.size());
  for (const auto& [tid, _] : by_tid) tids.push_back(tid);
  std::sort(tids.begin(), tids.end());

  struct Open {
    std::uint64_t end_us;
    std::uint64_t last_seq;
    std::size_t node;
  };
  for (const std::uint32_t tid : tids) {
    std::vector<std::size_t>& order = by_tid[tid];
    // Parents must come before their children. Spans carry their
    // thread's begin order (seq), which is exactly that, ties in the same
    // microsecond included. Events without one keep (ts asc, dur desc),
    // with the later buffer position winning ties: RAII spans are
    // buffered in END order, so a zero-duration parent follows its
    // zero-duration child.
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const TraceEvent& ea = events[a];
      const TraceEvent& eb = events[b];
      if (ea.ts_us != eb.ts_us) return ea.ts_us < eb.ts_us;
      if ((ea.seq != 0) != (eb.seq != 0)) return ea.seq == 0;
      if (ea.seq != eb.seq) return ea.seq < eb.seq;
      if (ea.dur_us != eb.dur_us) return ea.dur_us > eb.dur_us;
      return a > b;
    });
    std::vector<Open> stack;
    for (const std::size_t i : order) {
      const TraceEvent& e = events[i];
      const std::uint64_t end_us = e.ts_us + e.dur_us;
      // Pop what ended before e: by time, or — for two spans — because e
      // began after the open one ended (sequential siblings sharing a
      // microsecond stay siblings).
      while (!stack.empty() &&
             (end_us > stack.back().end_us ||
              (e.seq != 0 && stack.back().last_seq != 0 && e.seq > stack.back().last_seq))) {
        stack.pop_back();
      }
      const std::size_t parent = stack.empty() ? 0 : stack.back().node;
      const std::size_t node = childNode(p, b, parent, e);
      ProfileNode& n = p.nodes[node];
      if (n.count == 0 || e.dur_us < n.min_us) n.min_us = e.dur_us;
      if (e.dur_us > n.max_us) n.max_us = e.dur_us;
      n.count += 1;
      n.total_us += e.dur_us;
      b.samples[node].push_back(e.dur_us);
      b.child_us[parent] += e.dur_us;
      p.event_count += 1;
      if (parent == 0) p.attributed_us += e.dur_us;
      stack.push_back({end_us, e.last_seq, node});
    }
  }

  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    ProfileNode& n = p.nodes[i];
    n.self_us = n.total_us > b.child_us[i] ? n.total_us - b.child_us[i] : 0;
    std::sort(b.samples[i].begin(), b.samples[i].end());
    n.p50_us = quantileExact(b.samples[i], 0.50);
    n.p95_us = quantileExact(b.samples[i], 0.95);
  }
  p.nodes[0].total_us = p.attributed_us;
  p.nodes[0].self_us = 0;
  return p;
}

bool parseProfileFormat(std::string_view text, ProfileFormat& out) {
  if (text == "text") {
    out = ProfileFormat::Text;
  } else if (text == "json") {
    out = ProfileFormat::Json;
  } else if (text == "folded") {
    out = ProfileFormat::Folded;
  } else {
    return false;
  }
  return true;
}

std::string renderProfileText(const Profile& p) {
  std::string out;
  appendLine(out, "fsdep profile — %s", p.command.c_str());
  appendLine(out, "wall %.2f ms, attributed %.2f ms (%.1f%%), %llu spans, %llu dropped",
             p.wall_ms, usToMs(p.attributed_us), p.coverage() * 100.0,
             static_cast<unsigned long long>(p.event_count),
             static_cast<unsigned long long>(p.dropped_events));
  out += '\n';

  // Aggregate by (category, name) across tree positions: the classic
  // "where does the time go" table.
  struct Agg {
    std::string label;
    std::uint64_t self_us = 0;
    std::uint64_t total_us = 0;
    std::uint64_t count = 0;
  };
  std::unordered_map<std::string, Agg> by_name;
  for (std::size_t i = 1; i < p.nodes.size(); ++i) {
    const ProfileNode& n = p.nodes[i];
    std::string label = n.category;
    if (!label.empty()) label += '/';
    label += n.name;
    Agg& a = by_name[label];
    a.label = label;
    a.self_us += n.self_us;
    a.total_us += n.total_us;
    a.count += n.count;
  }
  std::vector<const Agg*> rows;
  rows.reserve(by_name.size());
  for (const auto& [_, a] : by_name) rows.push_back(&a);
  std::sort(rows.begin(), rows.end(), [](const Agg* a, const Agg* b) {
    return a->self_us != b->self_us ? a->self_us > b->self_us : a->label < b->label;
  });
  appendLine(out, "by span (sorted by self time):");
  appendLine(out, "  %10s %10s %8s  %s", "self_ms", "total_ms", "count", "span");
  for (const Agg* a : rows) {
    appendLine(out, "  %10.3f %10.3f %8llu  %s", usToMs(a->self_us), usToMs(a->total_us),
               static_cast<unsigned long long>(a->count), a->label.c_str());
  }
  out += '\n';

  // Hottest individual tree nodes — same spans, split by attribution
  // group (scenario/component/function).
  std::vector<std::size_t> hot;
  for (std::size_t i = 1; i < p.nodes.size(); ++i) {
    if (p.nodes[i].self_us > 0) hot.push_back(i);
  }
  std::sort(hot.begin(), hot.end(), [&](std::size_t a, std::size_t b) {
    return p.nodes[a].self_us > p.nodes[b].self_us;
  });
  constexpr std::size_t kTopNodes = 30;
  if (hot.size() > kTopNodes) hot.resize(kTopNodes);
  appendLine(out, "top nodes by self time (full tree: --profile-format json):");
  appendLine(out, "  %10s %10s %8s %9s %9s  %s", "self_ms", "total_ms", "count", "p50_ms",
             "p95_ms", "node");
  for (const std::size_t i : hot) {
    const ProfileNode& n = p.nodes[i];
    std::string label = n.category;
    if (!label.empty()) label += '/';
    label += n.name;
    if (!n.group.empty()) {
      label += " [";
      label += n.group;
      label += ']';
    }
    appendLine(out, "  %10.3f %10.3f %8llu %9.3f %9.3f  %s", usToMs(n.self_us),
               usToMs(n.total_us), static_cast<unsigned long long>(n.count),
               usToMs(n.p50_us), usToMs(n.p95_us), label.c_str());
  }
  return out;
}

std::string renderProfileJson(const Profile& p) {
  JsonWriter w;
  w.beginObject();
  w.field("schema_version", std::uint64_t{1});
  w.field("command", std::string_view(p.command));
  w.field("wall_ms", p.wall_ms);
  w.field("attributed_us", p.attributed_us);
  w.field("coverage", p.coverage());
  w.field("event_count", p.event_count);
  w.field("dropped_events", p.dropped_events);
  w.key("root");
  renderJsonNode(w, p, 0);
  w.endObject();
  std::string text = w.take();
  text += '\n';
  return text;
}

std::string renderProfileFolded(const Profile& p) {
  std::string out;
  std::string stack;
  renderFoldedNode(out, p, 0, stack);
  return out;
}

std::string renderProfile(const Profile& p, ProfileFormat format) {
  switch (format) {
    case ProfileFormat::Json:
      return renderProfileJson(p);
    case ProfileFormat::Folded:
      return renderProfileFolded(p);
    case ProfileFormat::Text:
      break;
  }
  return renderProfileText(p);
}

}  // namespace fsdep::obs
