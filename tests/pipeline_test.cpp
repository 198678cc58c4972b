// Error-path and robustness tests for the corpus pipeline wrapper, and
// the scenario-result memo the serve daemon shares across commands.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "corpus/pipeline.h"
#include "json/json.h"
#include "model/serialization.h"

namespace fsdep::corpus {
namespace {

TEST(Pipeline, UnknownComponentThrows) {
  EXPECT_THROW(AnalyzedComponent("reiserfs", taint::AnalysisOptions{}), std::runtime_error);
}

TEST(Pipeline, UnknownFunctionThrows) {
  AnalyzedComponent component("mke2fs", taint::AnalysisOptions{});
  EXPECT_THROW(component.analyze({"not_a_function"}), std::runtime_error);
}

TEST(Pipeline, EmptySelectionAnalyzesEverything) {
  AnalyzedComponent component("resize2fs", taint::AnalysisOptions{});
  component.analyze({});
  // Every function definition of the TU must have a result.
  for (const ast::FunctionDecl* fn : component.tu().functions()) {
    EXPECT_NE(component.analyzer().resultFor(fn), nullptr) << fn->name;
  }
}

TEST(Pipeline, ReanalysisIsIdempotent) {
  AnalyzedComponent component("mke2fs", taint::AnalysisOptions{});
  component.analyze({"mke2fs_main"});
  const std::size_t first = component.analyzer().writeEvents().size();
  component.analyze({"mke2fs_main"});
  EXPECT_EQ(component.analyzer().writeEvents().size(), first);
}

TEST(Pipeline, ComponentRunPointsBackAtTheComponent) {
  AnalyzedComponent component("ext4", taint::AnalysisOptions{});
  component.analyze({"ext4_fill_super"});
  const extract::ComponentRun run = component.asRun();
  EXPECT_EQ(run.component, "ext4");
  EXPECT_TRUE(run.is_kernel);
  EXPECT_EQ(run.analyzer, &component.analyzer());
}

TEST(Pipeline, SourceManagerKeepsTheSources) {
  AnalyzedComponent component("e2fsck", taint::AnalysisOptions{});
  EXPECT_GE(component.sourceManager().fileCount(), 3u);  // main + 2 headers
  EXPECT_TRUE(component.sourceManager().findByName("e2fsck.c").valid());
  EXPECT_TRUE(component.sourceManager().findByName("ext4_fs.h").valid());
}

TEST(Pipeline, FormatTable5ContainsScenarioTitles) {
  const std::string table = formatTable5(runTable5());
  for (const Scenario& s : scenarios()) {
    EXPECT_NE(table.find(s.title), std::string::npos) << s.title;
  }
}

std::string render(const std::vector<model::Dependency>& deps) {
  return json::writeCompact(model::toJson(deps));
}

std::uint64_t componentsAnalyzed() { return pipelineStatsSnapshot().components_analyzed; }

const Scenario& scenarioById(const std::vector<Scenario>& list, const std::string& id) {
  for (const Scenario& s : list) {
    if (s.id == id) return s;
  }
  throw std::runtime_error("no scenario " + id);
}

TEST(ScenarioMemo, SecondRunIsServedFromTheMemoAndEqualsTheFullPipeline) {
  const PipelineOptions plain{.use_disk_cache = false};
  ScenarioMemo memo;
  const PipelineOptions memoized{.use_disk_cache = false, .memo = &memo};

  const std::string expected = formatTable5(runTable5({}, nullptr, plain));
  EXPECT_EQ(formatTable5(runTable5({}, nullptr, memoized)), expected);
  EXPECT_EQ(memo.misses(), 4u);
  EXPECT_EQ(memo.hits(), 0u);

  const std::uint64_t before = componentsAnalyzed();
  EXPECT_EQ(formatTable5(runTable5({}, nullptr, memoized)), expected);
  const std::vector<Scenario> list = scenarios();
  EXPECT_EQ(render(runScenario(scenarioById(list, "s1"), {}, nullptr, memoized)),
            render(runScenario(scenarioById(list, "s1"), {}, nullptr, plain)));
  EXPECT_EQ(memo.hits(), 5u) << "four Table 5 scenarios and one runScenario";
  EXPECT_EQ(componentsAnalyzed() - before, scenarioById(list, "s1").selection.size())
      << "only the memo-less reference run analyzes";

  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
  (void)runTable5({}, nullptr, memoized);
  EXPECT_EQ(memo.misses(), 8u) << "a cleared memo rebuilds";
}

// Singleflight: concurrent claims of one key get one builder; the rest
// wait on its result.
TEST(ScenarioMemo, ConcurrentClaimsBuildOnce) {
  ScenarioMemo memo;
  CacheKey key;
  key.mix("singleflight");
  ScenarioMemo::Claim builder = memo.claim(key);
  ASSERT_TRUE(builder.builder());

  constexpr int kWaiters = 3;
  std::vector<std::future<ScenarioMemo::Deps>> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(std::async(std::launch::async, [&memo, &key] {
      ScenarioMemo::Claim claim = memo.claim(key);
      EXPECT_FALSE(claim.builder());
      return claim.get();
    }));
  }
  while (memo.hits() < kWaiters) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  model::Dependency dep;
  dep.param = "mke2fs.blocksize";
  builder.publish({dep});
  for (auto& waiter : waiters) {
    const ScenarioMemo::Deps deps = waiter.get();
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps.front().param, "mke2fs.blocksize");
  }
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), static_cast<std::uint64_t>(kWaiters));
}

// A builder's exception reaches the waiters it already has, but is never
// cached: the next claim builds again.
TEST(ScenarioMemo, ThrowingBuildIsNotMemoized) {
  const Scenario bogus{"sx", "no such scenario", {{"reiserfs", {"main"}}}};
  ScenarioMemo memo;
  const PipelineOptions memoized{.use_disk_cache = false, .memo = &memo};
  EXPECT_THROW(runScenario(bogus, {}, nullptr, memoized), std::runtime_error);
  EXPECT_EQ(memo.size(), 0u) << "the failed slot is evicted";
  EXPECT_THROW(runScenario(bogus, {}, nullptr, memoized), std::runtime_error);
  EXPECT_EQ(memo.misses(), 2u) << "the second request rebuilds instead of rethrowing a cached error";
  EXPECT_EQ(memo.hits(), 0u);

  CacheKey key;
  key.mix("waiter-sees-failure");
  ScenarioMemo::Claim builder = memo.claim(key);
  ScenarioMemo::Claim waiter = memo.claim(key);
  builder.fail(std::make_exception_ptr(std::runtime_error("transient")));
  EXPECT_THROW((void)waiter.get(), std::runtime_error);
  {
    ScenarioMemo::Claim abandoned = memo.claim(key);
    EXPECT_TRUE(abandoned.builder());
  }  // destroyed unpublished: evicted too
  ScenarioMemo::Claim retry = memo.claim(key);
  EXPECT_TRUE(retry.builder());
  retry.publish({});
  EXPECT_TRUE(memo.claim(key).get().empty());
}

// runTable5 claims every scenario first and publishes the ones it builds
// before it waits on one another caller holds, so two partial builders
// never wait on each other.
TEST(ScenarioMemo, Table5PublishesItsOwnScenariosBeforeWaiting) {
  ScenarioMemo memo;
  const PipelineOptions memoized{.use_disk_cache = false, .memo = &memo};
  const std::vector<Scenario> list = scenarios();
  const extract::ExtractOptions options = extractOptions();
  const auto keyOf = [&](const std::string& id) {
    return scenarioCacheKey(scenarioById(list, id), {}, options);
  };

  ScenarioMemo::Claim held = memo.claim(keyOf("s2"));  // another caller's build
  ASSERT_TRUE(held.builder());
  auto table = std::async(std::launch::async, [&] { return runTable5({}, nullptr, memoized); });
  while (memo.misses() + memo.hits() < 4) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // s1, s3 and s4 are published while s2 is still being built.
  for (const char* id : {"s1", "s3", "s4"}) {
    ScenarioMemo::Claim probe = memo.claim(keyOf(id));
    ASSERT_FALSE(probe.builder()) << id;
    EXPECT_NO_THROW((void)probe.get()) << id;
  }
  EXPECT_EQ(table.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);
  held.publish(runScenario(scenarioById(list, "s2"), {}, nullptr, {.use_disk_cache = false}));

  EXPECT_EQ(formatTable5(table.get()),
            formatTable5(runTable5({}, nullptr, {.use_disk_cache = false})));
}

}  // namespace
}  // namespace fsdep::corpus
