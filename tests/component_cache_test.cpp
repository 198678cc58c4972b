// ComponentCache behavior: parse-once semantics, concurrent first
// access, one entry shared by every option set, error propagation —
// including the failure-poisoning regression (a failed build must be
// retried, not cached forever) and clear()-during-build safety.
#include "corpus/component_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "corpus/pipeline.h"
#include "json/json.h"
#include "model/serialization.h"

namespace fsdep::corpus {
namespace {

TEST(ComponentCache, ColdMissThenWarmHitsShareOneEntry) {
  ComponentCache cache;

  const auto first = cache.get("mke2fs");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name, "mke2fs");
  ASSERT_NE(first->tu, nullptr);
  ASSERT_NE(first->sema, nullptr);
  EXPECT_FALSE(first->seeds.empty());

  const auto second = cache.get("mke2fs");
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.get(), second.get()) << "warm hit must reuse the parsed entry";
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ComponentCache, ConcurrentFirstAccessParsesExactlyOnce) {
  ComponentCache cache;
  constexpr int kThreads = 8;

  std::vector<std::shared_ptr<const ComponentEntry>> entries(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &entries, t] {
        entries[static_cast<std::size_t>(t)] = cache.get("resize2fs");
      });
    }
    for (std::thread& t : threads) t.join();
  }

  EXPECT_EQ(cache.misses(), 1u) << "only the first requester may parse";
  EXPECT_EQ(cache.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (const auto& entry : entries) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), entries.front().get());
  }
}

// Nothing in an entry depends on AnalysisOptions, so intra, inter and
// no-bridging runs share one parse per component — and each option
// set's Table 5 and `extract --json` stay byte-equal to a run that
// parses every component fresh (the CLI's --no-cache).
TEST(ComponentCache, IntraInterAndNoBridgingShareOneEntry) {
  struct OptionSet {
    const char* name;
    taint::AnalysisOptions taint;
    extract::ExtractOptions extract;
  };
  std::vector<OptionSet> sets(3, OptionSet{"", {}, extractOptions()});
  sets[0].name = "intra";
  sets[1].name = "inter";
  sets[1].taint.inter_procedural = true;
  sets[2].name = "no-bridging";
  sets[2].taint.field_bridging = false;
  sets[2].extract.enable_bridging = false;

  const auto render = [](const OptionSet& set, const PipelineOptions& pipeline) {
    std::string out = formatTable5(runTable5(set.taint, &set.extract, pipeline));
    std::vector<std::vector<model::Dependency>> per_scenario;
    for (const Scenario& scenario : scenarios()) {
      per_scenario.push_back(runScenario(scenario, set.taint, &set.extract, pipeline));
    }
    return out + json::writePretty(model::toJson(extract::dedupeAcrossScenarios(per_scenario)));
  };

  ComponentCache& cache = ComponentCache::global();
  cache.clear();
  const std::uint64_t misses_before = cache.misses();
  std::vector<std::string> cached_runs;
  for (const OptionSet& set : sets) {
    cached_runs.push_back(render(set, {.use_disk_cache = false}));
  }
  EXPECT_EQ(cache.misses() - misses_before, cache.size())
      << "every component is parsed once across all three option sets";
  EXPECT_EQ(cache.size(), 6u);
  const auto entry = cache.get("mount");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.get("mount").get(), entry.get()) << "one slot, one entry";
  }

  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(cached_runs[i], render(sets[i], {.use_cache = false, .use_disk_cache = false}))
        << sets[i].name;
  }
}

TEST(ComponentCache, UnknownComponentFailureIsNeverCached) {
  ComponentCache cache;
  EXPECT_THROW(cache.get("no-such-component"), std::runtime_error);
  EXPECT_EQ(cache.buildFailures(), 1u);
  EXPECT_EQ(cache.size(), 0u) << "the failed slot must be evicted";
  // The next request must retry the build (another miss + failure), not
  // rethrow a poisoned future as a hit.
  EXPECT_THROW(cache.get("no-such-component"), std::runtime_error);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.buildFailures(), 2u);
}

// The headline regression: a transient builder failure (fault-injected
// source, OOM, ...) used to poison the slot — every later get() for the
// same component rethrew the first exception forever. This test
// fails on the old ComponentCache and passes with failure eviction.
TEST(ComponentCache, TransientBuilderFailureRetriesAndSucceeds) {
  ComponentCache cache;
  std::atomic<int> calls{0};
  cache.setBuilderForTesting(
      [&calls](const std::string& name) {
        if (calls.fetch_add(1) == 0) throw std::runtime_error("transient source failure");
        return ComponentCache::build(name);
      });

  EXPECT_THROW(cache.get("mke2fs"), std::runtime_error);
  EXPECT_EQ(cache.buildFailures(), 1u);

  const auto entry = cache.get("mke2fs");
  ASSERT_NE(entry, nullptr) << "second request must retry, not rethrow the cached failure";
  EXPECT_EQ(entry->name, "mke2fs");
  EXPECT_EQ(calls.load(), 2);

  const auto again = cache.get("mke2fs");
  EXPECT_EQ(entry.get(), again.get()) << "the successful retry is cached normally";
  EXPECT_EQ(cache.hits(), 1u);
}

// N threads pile onto a build that fails: everyone already waiting sees
// the exception exactly once, latecomers retry, and a final request
// succeeds. Run under TSan via check_sanitize.sh.
TEST(ComponentCache, WaitersDuringFailedBuildSeeErrorThenRetrySucceeds) {
  ComponentCache cache;
  std::atomic<int> calls{0};
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  cache.setBuilderForTesting(
      [&](const std::string& name) {
        if (calls.fetch_add(1) == 0) {
          release.wait();  // hold the waiters on the shared_future
          throw std::runtime_error("transient source failure");
        }
        return ComponentCache::build(name);
      });

  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        if (cache.get("mount") != nullptr) successes.fetch_add(1);
      } catch (const std::runtime_error&) {
        errors.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_promise.set_value();
  for (std::thread& t : threads) t.join();

  EXPECT_GE(errors.load(), 1) << "at least the failing builder's own request errors";
  EXPECT_EQ(errors.load() + successes.load(), kThreads);
  EXPECT_EQ(cache.buildFailures(), 1u);

  const auto entry = cache.get("mount");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "mount");
}

TEST(ComponentCache, ClearDuringInFlightBuildIsSafe) {
  ComponentCache cache;
  std::promise<void> started_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  cache.setBuilderForTesting(
      [&](const std::string& name) {
        started_promise.set_value();
        release.wait();
        return ComponentCache::build(name);
      });

  std::thread builder([&] {
    const auto entry = cache.get("ext4");
    EXPECT_NE(entry, nullptr) << "the in-flight build still completes for its waiters";
  });
  started_promise.get_future().wait();
  cache.clear();  // drops the slot while the builder is running
  release_promise.set_value();
  builder.join();

  // The finished builder's ticket no longer matches any slot, so it
  // must not resurrect or corrupt the cleared map.
  EXPECT_EQ(cache.size(), 0u);
  cache.setBuilderForTesting(nullptr);
  const auto entry = cache.get("ext4");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ComponentCache, DisabledCacheBuildsFreshAndPreservesEntries) {
  ComponentCache cache;
  const auto cached_entry = cache.get("mke2fs");

  cache.setEnabled(false);
  const auto fresh = cache.get("mke2fs");
  EXPECT_NE(cached_entry.get(), fresh.get()) << "disabled cache must parse fresh";
  EXPECT_EQ(cache.size(), 1u) << "existing entries are kept, not clobbered";
  EXPECT_EQ(cache.misses(), 2u);

  cache.setEnabled(true);
  const auto warm = cache.get("mke2fs");
  EXPECT_EQ(cached_entry.get(), warm.get()) << "re-enabling serves the original entry";
}

TEST(ComponentCache, ClearDropsEntriesButKeepsOutstandingPointersValid) {
  ComponentCache cache;
  const auto entry = cache.get("e2fsck");
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(entry->name, "e2fsck");  // shared_ptr still owns the entry
  const auto again = cache.get("e2fsck");
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(entry.get(), again.get());
}

TEST(ComponentCache, BuildBypassesCaching) {
  const auto a = ComponentCache::build("mke2fs");
  const auto b = ComponentCache::build("mke2fs");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get()) << "build() must parse fresh every time";
}

TEST(ComponentCache, AnalyzedComponentsShareTheGlobalEntry) {
  taint::AnalysisOptions inter;
  inter.inter_procedural = true;
  AnalyzedComponent first("mke2fs", taint::AnalysisOptions{});
  AnalyzedComponent second("mke2fs", inter);
  EXPECT_EQ(&first.tu(), &second.tu()) << "same shared TU from the global cache";
  EXPECT_NE(&first.analyzer(), &second.analyzer()) << "analyzers stay per-instance";
}

}  // namespace
}  // namespace fsdep::corpus
