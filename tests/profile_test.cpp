// The span-aggregation engine behind `fsdep profile`: containment-based
// nesting reconstruction, group splitting, per-node statistics, and the
// three renderers (text / JSON tree / collapsed stacks).
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json/json.h"
#include "obs/trace.h"

namespace fsdep::obs {
namespace {

TraceEvent span(const char* category, std::string name, std::uint64_t ts_us,
                std::uint64_t dur_us, std::uint32_t tid = 1, std::string group = {}) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::Complete;
  e.category = category;
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = tid;
  e.group = std::move(group);
  return e;
}

const ProfileNode* findChild(const Profile& p, const ProfileNode& parent,
                             const std::string& name, const std::string& group = {}) {
  for (const std::size_t i : parent.children) {
    if (p.nodes[i].name == name && p.nodes[i].group == group) return &p.nodes[i];
  }
  return nullptr;
}

TEST(Profile, NestsByTimeContainment) {
  std::vector<TraceEvent> events;
  events.push_back(span("cli", "table5", 0, 100));
  events.push_back(span("pipeline", "analyze", 10, 20));
  events.push_back(span("pipeline", "extract", 40, 30));
  const Profile p = buildProfile(events, /*wall_ms=*/0.2, "table5");

  ASSERT_EQ(p.nodes[0].children.size(), 1u);
  const ProfileNode* root_cmd = findChild(p, p.nodes[0], "table5");
  ASSERT_NE(root_cmd, nullptr);
  EXPECT_EQ(root_cmd->total_us, 100u);
  EXPECT_EQ(root_cmd->self_us, 50u);  // 100 - (20 + 30)
  ASSERT_EQ(root_cmd->children.size(), 2u);
  const ProfileNode* analyze = findChild(p, *root_cmd, "analyze");
  ASSERT_NE(analyze, nullptr);
  EXPECT_EQ(analyze->total_us, 20u);
  EXPECT_EQ(analyze->self_us, 20u);
  EXPECT_EQ(p.attributed_us, 100u);
  EXPECT_EQ(p.event_count, 3u);
  EXPECT_NEAR(p.coverage(), 0.5, 1e-9);
}

TEST(Profile, EndOrderedBuffersStillNestParentFirst) {
  // RAII spans land in END order: the child precedes its parent in the
  // buffer even at identical timestamps and durations.
  std::vector<TraceEvent> events;
  events.push_back(span("t", "child", 5, 0));
  events.push_back(span("t", "parent", 5, 0));
  const Profile p = buildProfile(events, 1.0, "x");
  const ProfileNode* parent = findChild(p, p.nodes[0], "parent");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(findChild(p, *parent, "child"), nullptr);
}

TEST(Profile, ZeroLengthSiblingsStaySiblings) {
  // cell [seq 1] runs setup [seq 2] and then op [seq 3], all three in one
  // microsecond; buffered in end order. Time alone would nest op under
  // setup; the begin order says setup had ended before op began.
  const auto seqSpan = [](std::string name, std::uint64_t seq, std::uint64_t last_seq) {
    TraceEvent e = span("campaign", std::move(name), 7, 0);
    e.seq = seq;
    e.last_seq = last_seq;
    return e;
  };
  std::vector<TraceEvent> events;
  events.push_back(seqSpan("setup", 2, 2));
  events.push_back(seqSpan("op", 3, 3));
  events.push_back(seqSpan("cell", 1, 3));
  const Profile p = buildProfile(events, 1.0, "x");
  ASSERT_EQ(p.nodes[0].children.size(), 1u);
  const ProfileNode* cell = findChild(p, p.nodes[0], "cell");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->children.size(), 2u);
  const ProfileNode* setup = findChild(p, *cell, "setup");
  ASSERT_NE(setup, nullptr);
  EXPECT_TRUE(setup->children.empty()) << "op is setup's sibling, not its child";
  EXPECT_NE(findChild(p, *cell, "op"), nullptr);
}

TEST(Profile, RealSequentialSpansStaySiblings) {
  Trace::start();
  {
    Span cell("campaign", "cell");
    { Span setup("campaign", "setup"); }
    { Span op("campaign", "op"); }
  }
  const Profile p = buildProfile(Trace::stopEvents(), 1.0, "test");
  const ProfileNode* cell = findChild(p, p.nodes[0], "cell");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->children.size(), 2u);
  const ProfileNode* setup = findChild(p, *cell, "setup");
  ASSERT_NE(setup, nullptr);
  EXPECT_TRUE(setup->children.empty());
}

TEST(Profile, GroupSplitsSameNameSpans) {
  std::vector<TraceEvent> events;
  events.push_back(span("pipeline", "analyze", 0, 10, 1, "s1/mke2fs"));
  events.push_back(span("pipeline", "analyze", 20, 30, 1, "s1/mount"));
  events.push_back(span("pipeline", "analyze", 60, 5, 1, "s1/mke2fs"));
  const Profile p = buildProfile(events, 1.0, "x");
  ASSERT_EQ(p.nodes[0].children.size(), 2u);
  const ProfileNode* mke2fs = findChild(p, p.nodes[0], "analyze", "s1/mke2fs");
  ASSERT_NE(mke2fs, nullptr);
  EXPECT_EQ(mke2fs->count, 2u);
  EXPECT_EQ(mke2fs->total_us, 15u);
  EXPECT_EQ(mke2fs->min_us, 5u);
  EXPECT_EQ(mke2fs->max_us, 10u);
  const ProfileNode* mount = findChild(p, p.nodes[0], "analyze", "s1/mount");
  ASSERT_NE(mount, nullptr);
  EXPECT_EQ(mount->count, 1u);
}

TEST(Profile, PercentilesComeFromExactSamples) {
  std::vector<TraceEvent> events;
  for (std::uint64_t i = 0; i < 100; ++i) {
    events.push_back(span("t", "work", i * 1000, i + 1));
  }
  const Profile p = buildProfile(events, 1000.0, "x");
  const ProfileNode* work = findChild(p, p.nodes[0], "work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->count, 100u);
  EXPECT_EQ(work->min_us, 1u);
  EXPECT_EQ(work->max_us, 100u);
  EXPECT_EQ(work->p50_us, 51u);  // index floor(0.50 * 100) of sorted 1..100
  EXPECT_EQ(work->p95_us, 96u);
}

TEST(Profile, ThreadsAttributeIndependently) {
  std::vector<TraceEvent> events;
  events.push_back(span("t", "outer", 0, 100, 1));
  // Same window on another thread: NOT a child of tid 1's outer span.
  events.push_back(span("t", "task", 10, 50, 2));
  const Profile p = buildProfile(events, 0.2, "x");
  EXPECT_EQ(p.nodes[0].children.size(), 2u);
  EXPECT_EQ(p.attributed_us, 150u);
}

TEST(Profile, InstantEventsCarryNoTime) {
  std::vector<TraceEvent> events;
  events.push_back(span("t", "outer", 0, 100));
  TraceEvent instant;
  instant.phase = TraceEvent::Phase::Instant;
  instant.category = "cache";
  instant.name = "cache-hit";
  instant.ts_us = 10;
  instant.tid = 1;
  events.push_back(instant);
  const Profile p = buildProfile(events, 0.2, "x");
  EXPECT_EQ(p.event_count, 1u);
  EXPECT_EQ(p.attributed_us, 100u);
}

TEST(Profile, JsonRendersTheFullTree) {
  std::vector<TraceEvent> events;
  events.push_back(span("cli", "table5", 0, 100));
  events.push_back(span("pipeline", "analyze", 10, 20, 1, "s1/mke2fs"));
  const Profile p = buildProfile(events, 0.2, "table5");
  const std::string text = renderProfileJson(p);

  Result<json::Value> parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << text;
  const json::Object& doc = parsed.value().asObject();
  EXPECT_EQ(doc.find("schema_version")->asInt(), 1);
  EXPECT_EQ(doc.find("command")->asString(), "table5");
  EXPECT_EQ(doc.find("event_count")->asInt(), 2);
  EXPECT_NEAR(doc.find("coverage")->asDouble(), 0.5, 1e-9);
  const json::Object& root = doc.find("root")->asObject();
  EXPECT_EQ(root.find("name")->asString(), "root");
  const json::Array& children = root.find("children")->asArray();
  ASSERT_EQ(children.size(), 1u);
  const json::Object& cmd = children[0].asObject();
  EXPECT_EQ(cmd.find("name")->asString(), "table5");
  EXPECT_EQ(cmd.find("total_us")->asInt(), 100);
  EXPECT_EQ(cmd.find("self_us")->asInt(), 80);
  const json::Object& analyze = cmd.find("children")->asArray()[0].asObject();
  EXPECT_EQ(analyze.find("group")->asString(), "s1/mke2fs");
}

TEST(Profile, FoldedStacksAreFlamegraphReady) {
  std::vector<TraceEvent> events;
  events.push_back(span("cli", "table5", 0, 100));
  events.push_back(span("pipeline", "analyze", 10, 20, 1, "s1/mke2fs"));
  events.push_back(span("taint", "bad name;here", 12, 5));
  const Profile p = buildProfile(events, 0.2, "table5");
  const std::string folded = renderProfileFolded(p);

  EXPECT_NE(folded.find("table5 80\n"), std::string::npos) << folded;
  EXPECT_NE(folded.find("table5;analyze:s1/mke2fs 15\n"), std::string::npos) << folded;
  // Separator characters inside frame names are sanitized away.
  EXPECT_NE(folded.find("table5;analyze:s1/mke2fs;bad_name_here 5\n"), std::string::npos)
      << folded;
  // Every line is "frame(;frame)* count" with no empty frames.
  std::size_t start = 0;
  int lines = 0;
  while (start < folded.size()) {
    const std::size_t end = folded.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = folded.substr(start, end - start);
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u) << line;
    const std::string stack = line.substr(0, sp);
    EXPECT_FALSE(stack.empty()) << line;
    EXPECT_EQ(stack.find(";;"), std::string::npos) << line;
    EXPECT_NE(stack.front(), ';') << line;
    EXPECT_NE(stack.back(), ';') << line;
    start = end + 1;
    ++lines;
  }
  EXPECT_GE(lines, 3);
}

TEST(Profile, TextTableSortsBySelfTime) {
  std::vector<TraceEvent> events;
  events.push_back(span("cli", "table5", 0, 100));
  events.push_back(span("pipeline", "analyze", 10, 60, 1, "s1/mke2fs"));
  const Profile p = buildProfile(events, 0.2, "table5");
  const std::string text = renderProfileText(p);
  EXPECT_NE(text.find("fsdep profile — table5"), std::string::npos) << text;
  // analyze (60us self) must be listed before table5 (40us self).
  const std::size_t analyze_pos = text.find("pipeline/analyze");
  const std::size_t cmd_pos = text.find("cli/table5");
  ASSERT_NE(analyze_pos, std::string::npos);
  ASSERT_NE(cmd_pos, std::string::npos);
  EXPECT_LT(analyze_pos, cmd_pos);
  EXPECT_NE(text.find("[s1/mke2fs]"), std::string::npos) << text;
}

TEST(Profile, FormatParsing) {
  ProfileFormat format = ProfileFormat::Text;
  EXPECT_TRUE(parseProfileFormat("json", format));
  EXPECT_EQ(format, ProfileFormat::Json);
  EXPECT_TRUE(parseProfileFormat("folded", format));
  EXPECT_EQ(format, ProfileFormat::Folded);
  EXPECT_TRUE(parseProfileFormat("text", format));
  EXPECT_EQ(format, ProfileFormat::Text);
  EXPECT_FALSE(parseProfileFormat("svg", format));
}

TEST(Profile, RealSpansCarryTheirArgGroups) {
  Trace::start();
  {
    Span outer("pipeline", "scenario");
    outer.arg("scenario", "s1");
    {
      Span inner("pipeline", "analyze");
      inner.arg("scenario", "s1");
      inner.arg("component", "mke2fs");
      inner.arg("bytes", std::uint64_t{42});  // numeric args never group
    }
  }
  const std::vector<TraceEvent> events = Trace::stopEvents();
  const Profile p = buildProfile(events, 1.0, "test");
  const ProfileNode* scenario = findChild(p, p.nodes[0], "scenario", "s1");
  ASSERT_NE(scenario, nullptr);
  ASSERT_NE(findChild(p, *scenario, "analyze", "s1/mke2fs"), nullptr);
}

}  // namespace
}  // namespace fsdep::obs
