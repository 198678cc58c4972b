#include "corpus/pipeline.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "json/json.h"
#include "model/serialization.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace fsdep::corpus {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

// All pipeline perf counters live in the obs metrics registry under the
// "pipeline." prefix — every mutation is a relaxed atomic add on a
// registered instrument, so concurrent pipeline runs and snapshots
// never race or tear (the seed's plain-uint64 aggregates did).
// Per-dimension series are labeled; --stats aggregates with counterSum.
obs::Registry& reg() { return obs::Registry::global(); }

std::size_t resolveJobs(const PipelineOptions& pipeline) {
  return pipeline.jobs == 0 ? ThreadPool::globalJobs() : pipeline.jobs;
}

// Disk-cache payloads are the scenario's dependency vector in the same
// JSON the CLI's --format=json emits (model::toJson), so the cache
// round-trips exactly the observable result. Dependency::evidence (a
// SourceRange) is not serialized — it is write-only downstream (never
// printed, scored, or exported), so a decoded vector is observationally
// identical to a freshly extracted one.
std::string encodeScenarioPayload(const std::vector<model::Dependency>& deps) {
  return json::writeCompact(model::toJson(deps));
}

std::optional<std::vector<model::Dependency>> decodeScenarioPayload(
    const std::string& payload) {
  Result<json::Value> parsed = json::parse(payload);
  if (!parsed.ok()) return std::nullopt;
  Result<std::vector<model::Dependency>> deps = model::dependenciesFromJson(parsed.value());
  if (!deps.ok()) return std::nullopt;
  return std::move(deps).take();
}

}  // namespace

CacheKey scenarioCacheKey(const Scenario& scenario,
                          const taint::AnalysisOptions& taint_options,
                          const extract::ExtractOptions& extract_options) {
  CacheKey key;
  key.mix("scenario-result");
  key.mix(scenario.id);
  key.mix(static_cast<std::uint64_t>(scenario.selection.size()));
  for (const auto& [component, functions] : scenario.selection) {
    key.mix(component);
    key.mix(contentDigest(componentSource(component)));
    key.mix(static_cast<std::uint64_t>(functions.size()));
    for (const std::string& fn : functions) key.mix(fn);
  }
  mixOptions(key, taint_options);
  mixOptions(key, extract_options);
  return key;
}

ScenarioMemo::Claim::Claim(Claim&& other) noexcept
    : memo_(std::exchange(other.memo_, nullptr)),
      key_(std::move(other.key_)),
      ticket_(other.ticket_),
      promise_(std::move(other.promise_)),
      future_(std::move(other.future_)) {}

ScenarioMemo::Claim::~Claim() {
  if (memo_ == nullptr) return;
  fail(std::make_exception_ptr(
      std::runtime_error("scenario analysis abandoned before its result was published")));
}

void ScenarioMemo::Claim::publish(Deps deps) {
  if (memo_ == nullptr) return;
  memo_ = nullptr;
  promise_.set_value(std::make_shared<const Deps>(std::move(deps)));
}

void ScenarioMemo::Claim::fail(std::exception_ptr error) {
  if (memo_ == nullptr) return;
  // Evict before publishing the failure, so no claim that arrives after
  // a waiter has seen the error can find the failed slot.
  std::exchange(memo_, nullptr)->evict(key_, ticket_);
  promise_.set_exception(std::move(error));
}

ScenarioMemo::Claim ScenarioMemo::claim(const CacheKey& key) {
  Claim claim;
  claim.key_ = key.hex();
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = slots_.find(claim.key_); it != slots_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    claim.future_ = it->second.future;
    return claim;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  claim.memo_ = this;
  claim.ticket_ = next_ticket_++;
  claim.future_ = claim.promise_.get_future().share();
  slots_.emplace(claim.key_, Slot{claim.future_, claim.ticket_});
  return claim;
}

void ScenarioMemo::evict(const std::string& key, std::uint64_t ticket) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(key);
  if (it != slots_.end() && it->second.ticket == ticket) slots_.erase(it);
}

void ScenarioMemo::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
}

std::size_t ScenarioMemo::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

AnalyzedComponent::AnalyzedComponent(std::string name,
                                     const taint::AnalysisOptions& taint_options,
                                     bool use_cache) {
  if (use_cache) {
    bool built = false;
    entry_ = ComponentCache::global().get(name, &built);
    if (built) {
      reg().counter("pipeline.parse_ns", {{"component", name}, {"mode", "cached"}})
          .add(entry_->parse_ns);
    }
  } else {
    entry_ = ComponentCache::build(name);
    reg().counter("pipeline.parse_ns", {{"component", name}, {"mode", "fresh"}})
        .add(entry_->parse_ns);
  }
  analyzer_ = std::make_unique<taint::Analyzer>(*entry_->tu, *entry_->sema, taint_options);
  // Share the entry's Taint-IR memo: repeat analyses of a cached
  // component reuse the compiled instruction streams instead of
  // re-lowering (and re-building CFGs) per analyzer.
  analyzer_->setIrCache(entry_->ir_cache);
  for (const taint::Seed& seed : entry_->seeds) {
    analyzer_->addSeed(seed);
  }
}

void AnalyzedComponent::analyze(const std::vector<std::string>& function_names) {
  std::vector<const ast::FunctionDecl*> fns;
  for (const std::string& fn_name : function_names) {
    const ast::FunctionDecl* fn = entry_->tu->findFunction(fn_name);
    if (fn == nullptr || !fn->isDefinition()) {
      throw std::runtime_error("corpus: no function '" + fn_name + "' in " + entry_->name);
    }
    fns.push_back(fn);
  }
  const auto start = Clock::now();
  analyzer_->run(fns);
  const obs::Labels by_component{{"component", entry_->name}};
  reg().counter("pipeline.analyze_ns", by_component).add(elapsedNs(start));
  reg().counter("pipeline.components_analyzed", by_component).add(1);
  reg().counter("pipeline.merge_calls", by_component).add(analyzer_->mergeCalls());
  reg().counter("pipeline.merge_grew", by_component).add(analyzer_->mergeGrew());
  reg().counter("taint.stmt_visits", by_component).add(analyzer_->stmtVisits());
  reg().counter("taint.ir_instrs", by_component).add(analyzer_->irInstrs());
  reg().counter("taint.ir_visits", by_component).add(analyzer_->irVisits());
  reg().gauge("taint.arena_bytes", by_component)
      .set(static_cast<std::uint64_t>(analyzer_->arenaBytes()));
}

extract::ComponentRun AnalyzedComponent::asRun() const {
  extract::ComponentRun run;
  run.component = entry_->name;
  run.is_kernel = entry_->is_kernel;
  run.analyzer = analyzer_.get();
  run.sema = entry_->sema.get();
  return run;
}

namespace {

/// Analyzes every (component, functions) pair of `scenario` — in
/// parallel when jobs > 1 — and returns the components in selection
/// order (the order extraction must consume them in).
std::vector<std::unique_ptr<AnalyzedComponent>> analyzeScenarioComponents(
    const Scenario& scenario, const taint::AnalysisOptions& taint_options,
    const PipelineOptions& pipeline) {
  struct Item {
    const std::string* component;
    const std::vector<std::string>* functions;
  };
  std::vector<Item> items;
  items.reserve(scenario.selection.size());
  for (const auto& [component, functions] : scenario.selection) {
    items.push_back(Item{&component, &functions});
  }

  std::vector<std::unique_ptr<AnalyzedComponent>> components(items.size());
  ThreadPool::parallelFor(items.size(), resolveJobs(pipeline), [&](std::size_t i) {
    obs::Span span("pipeline", "analyze");
    span.arg("scenario", scenario.id);
    span.arg("component", *items[i].component);
    auto analyzed = std::make_unique<AnalyzedComponent>(*items[i].component, taint_options,
                                                        pipeline.use_cache);
    analyzed->analyze(*items[i].functions);
    components[i] = std::move(analyzed);
  });
  return components;
}

std::vector<model::Dependency> extractFrom(
    const std::vector<std::unique_ptr<AnalyzedComponent>>& components,
    const extract::ExtractOptions& options, const std::string& scenario_id) {
  obs::Span span("pipeline", "extract");
  span.arg("scenario", scenario_id);
  std::vector<extract::ComponentRun> runs;
  runs.reserve(components.size());
  for (const auto& component : components) runs.push_back(component->asRun());
  const auto start = Clock::now();
  std::vector<model::Dependency> deps = extract::extractDependencies(runs, options);
  const obs::Labels by_scenario{{"scenario", scenario_id}};
  reg().counter("pipeline.extract_ns", by_scenario).add(elapsedNs(start));
  reg().counter("pipeline.deps_extracted", by_scenario).add(deps.size());
  return deps;
}

}  // namespace

std::vector<model::Dependency> runScenario(const Scenario& scenario,
                                           const taint::AnalysisOptions& taint_options,
                                           const extract::ExtractOptions* extract_override,
                                           const PipelineOptions& pipeline) {
  obs::Span span("pipeline", "scenario");
  span.arg("scenario", scenario.id);
  reg().gauge("pipeline.jobs").set(resolveJobs(pipeline));
  const extract::ExtractOptions options =
      extract_override != nullptr ? *extract_override : extractOptions();

  DiskCache& disk = DiskCache::global();
  const bool disk_enabled = pipeline.use_disk_cache && disk.enabled();
  CacheKey key;
  if (disk_enabled || pipeline.memo != nullptr) {
    key = scenarioCacheKey(scenario, taint_options, options);
  }

  // The in-memory tier first: a result this generation already built
  // (or is building) is shared, not recomputed.
  std::optional<ScenarioMemo::Claim> claim;
  if (pipeline.memo != nullptr) {
    claim.emplace(pipeline.memo->claim(key));
    if (!claim->builder()) {
      span.arg("memo", "hit");
      return claim->get();
    }
  }

  try {
    // Warm path: an unchanged scenario loads its result straight from the
    // on-disk cache — no parse, sema, taint or extraction at all. A
    // corrupt or undecodable payload degrades to a recompute (and the
    // store below overwrites the bad entry).
    std::optional<std::vector<model::Dependency>> deps;
    if (disk_enabled) {
      if (std::optional<std::string> payload = disk.load(key)) {
        deps = decodeScenarioPayload(*payload);
        if (deps.has_value()) {
          span.arg("disk_cache", "hit");
        } else {
          FSDEP_LOG_WARN("cache",
                         "disk cache: undecodable payload for scenario %s; recomputing",
                         scenario.id.c_str());
        }
      }
    }
    if (!deps.has_value()) {
      const auto components = analyzeScenarioComponents(scenario, taint_options, pipeline);
      deps = extractFrom(components, options, scenario.id);
      if (disk_enabled) disk.store(key, encodeScenarioPayload(*deps));
    }
    if (claim.has_value()) claim->publish(*deps);
    return *std::move(deps);
  } catch (...) {
    if (claim.has_value()) claim->fail(std::current_exception());
    throw;
  }
}

Table5Result runTable5(const taint::AnalysisOptions& taint_options,
                       const extract::ExtractOptions* extract_override,
                       const PipelineOptions& pipeline) {
  obs::Span table5_span("pipeline", "table5");
  const std::size_t jobs = resolveJobs(pipeline);
  table5_span.arg("jobs", static_cast<std::uint64_t>(jobs));
  reg().gauge("pipeline.jobs").set(jobs);

  const std::vector<Scenario> scenario_list = scenarios();
  const std::size_t count = scenario_list.size();
  const extract::ExtractOptions options =
      extract_override != nullptr ? *extract_override : extractOptions();
  // Touch the lazily-built corpus singletons before fanning out so no
  // worker races their first construction.
  (void)groundTruth();

  DiskCache& disk = DiskCache::global();
  const bool disk_enabled = pipeline.use_disk_cache && disk.enabled();
  std::vector<CacheKey> keys(count);
  if (disk_enabled || pipeline.memo != nullptr) {
    for (std::size_t s = 0; s < count; ++s) {
      keys[s] = scenarioCacheKey(scenario_list[s], taint_options, options);
    }
  }

  // Claim every scenario in the memo before waiting on any: this run
  // builds the ones it claimed first, publishes them, and only then
  // waits for the ones another caller is building.
  std::vector<ScenarioMemo::Claim> claims;
  std::vector<bool> builds(count, true);
  if (pipeline.memo != nullptr) {
    claims.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      claims.push_back(pipeline.memo->claim(keys[s]));
      builds[s] = claims[s].builder();
    }
  }

  Table5Result result;
  result.per_scenario.resize(count);
  const auto finish = [&](std::size_t s, std::vector<model::Dependency> deps) {
    ScenarioResult& sr = result.per_scenario[s];
    sr.id = scenario_list[s].id;
    sr.title = scenario_list[s].title;
    sr.deps = std::move(deps);
    sr.score = extract::scoreScenario(sr.id, sr.deps, groundTruth());
  };

  try {
    // Per-scenario disk-cache probe: a scenario whose result loads from
    // disk contributes no (scenario x component) pairs at all — its
    // parse/analyze/extract cost is skipped entirely.
    std::vector<std::optional<std::vector<model::Dependency>>> cached(count);
    if (disk_enabled) {
      for (std::size_t s = 0; s < count; ++s) {
        if (!builds[s]) continue;
        if (std::optional<std::string> payload = disk.load(keys[s])) {
          cached[s] = decodeScenarioPayload(*payload);
        }
      }
    }

    // Flatten the scenario x component matrix: every pair is
    // independent, so all of them can run concurrently — not just the
    // components within one scenario.
    struct Pair {
      std::size_t scenario;
      std::size_t slot;  ///< index within the scenario's selection order
      const std::string* component;
      const std::vector<std::string>* functions;
    };
    std::vector<Pair> pairs;
    std::vector<std::vector<std::unique_ptr<AnalyzedComponent>>> analyzed(count);
    for (std::size_t s = 0; s < count; ++s) {
      if (!builds[s] || cached[s].has_value()) continue;
      analyzed[s].resize(scenario_list[s].selection.size());
      std::size_t slot = 0;
      for (const auto& [component, functions] : scenario_list[s].selection) {
        pairs.push_back(Pair{s, slot++, &component, &functions});
      }
    }

    ThreadPool::parallelFor(pairs.size(), jobs, [&](std::size_t i) {
      const Pair& pair = pairs[i];
      obs::Span span("pipeline", "analyze");
      span.arg("scenario", scenario_list[pair.scenario].id);
      span.arg("component", *pair.component);
      auto component = std::make_unique<AnalyzedComponent>(*pair.component, taint_options,
                                                           pipeline.use_cache);
      component->analyze(*pair.functions);
      analyzed[pair.scenario][pair.slot] = std::move(component);
    });

    // Extraction and scoring per scenario are independent of each other
    // too; results land in pre-sized slots, keeping scenario order fixed.
    ThreadPool::parallelFor(count, jobs, [&](std::size_t s) {
      if (!builds[s]) return;
      std::vector<model::Dependency> deps;
      if (cached[s].has_value()) {
        deps = *std::move(cached[s]);
      } else {
        deps = extractFrom(analyzed[s], options, scenario_list[s].id);
        if (disk_enabled) disk.store(keys[s], encodeScenarioPayload(deps));
      }
      if (!claims.empty()) claims[s].publish(deps);
      finish(s, std::move(deps));
    });
  } catch (...) {
    for (ScenarioMemo::Claim& claim : claims) claim.fail(std::current_exception());
    throw;
  }
  for (std::size_t s = 0; s < count; ++s) {
    if (!builds[s]) finish(s, claims[s].get());
  }

  std::vector<std::vector<model::Dependency>> per_scenario_deps;
  std::vector<std::string> scenario_ids;
  per_scenario_deps.reserve(result.per_scenario.size());
  for (const ScenarioResult& sr : result.per_scenario) {
    per_scenario_deps.push_back(sr.deps);
    scenario_ids.push_back(sr.id);
  }
  result.unique_deps = extract::dedupeAcrossScenarios(per_scenario_deps);
  result.unique_score = extract::scoreUnique(per_scenario_deps, scenario_ids, groundTruth());
  return result;
}

PipelineStats pipelineStatsSnapshot() {
  const obs::Registry& registry = reg();
  PipelineStats stats;
  stats.parse_ns = registry.counterSum("pipeline.parse_ns");
  stats.analyze_ns = registry.counterSum("pipeline.analyze_ns");
  stats.extract_ns = registry.counterSum("pipeline.extract_ns");
  stats.components_analyzed = registry.counterSum("pipeline.components_analyzed");
  stats.merge_calls = registry.counterSum("pipeline.merge_calls");
  stats.merge_grew = registry.counterSum("pipeline.merge_grew");
  stats.cache_hits = ComponentCache::global().hits();
  stats.cache_misses = ComponentCache::global().misses();
  stats.jobs = static_cast<std::size_t>(registry.gaugeValue("pipeline.jobs"));
  if (stats.jobs == 0) stats.jobs = 1;  // snapshot before any run
  return stats;
}

void resetPipelineStats() {
  // Zeroes the pipeline's own series only: cache traffic (like the
  // ComponentCache contents themselves) survives a stats reset.
  reg().reset("pipeline.");
  reg().gauge("pipeline.jobs").set(1);
}

std::string PipelineStats::format() const {
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "pipeline stats: jobs=%zu\n"
                "  parse    %9.2f ms  (cache: %llu hits, %llu misses)\n"
                "  analyze  %9.2f ms  (%llu component runs)\n"
                "  extract  %9.2f ms\n"
                "  merges   %llu calls, %llu grew (%.1f%% productive)\n",
                jobs, ms(parse_ns), static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses), ms(analyze_ns),
                static_cast<unsigned long long>(components_analyzed), ms(extract_ns),
                static_cast<unsigned long long>(merge_calls),
                static_cast<unsigned long long>(merge_grew),
                merge_calls > 0
                    ? 100.0 * static_cast<double>(merge_grew) / static_cast<double>(merge_calls)
                    : 0.0);
  return buf;
}

namespace {

std::string fpCell(const extract::LevelScore& level) {
  if (level.extracted == 0) return "-";
  if (level.false_positives == 0) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d (%s)", level.false_positives,
                formatPercent(static_cast<double>(level.false_positives) /
                              static_cast<double>(level.extracted))
                    .c_str());
  return buf;
}

void appendRow(std::string& out, const std::string& title, const extract::ScenarioScore& score) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-48s | %3d %-10s | %3d %-10s | %3d %-10s\n", title.c_str(),
                score.sd.extracted, fpCell(score.sd).c_str(), score.cpd.extracted,
                fpCell(score.cpd).c_str(), score.ccd.extracted, fpCell(score.ccd).c_str());
  out += buf;
}

}  // namespace

std::string formatTable5(const Table5Result& result) {
  std::string out;
  out +=
      "Table 5: Evaluation Results of Extracting Multi-Level Configuration Dependencies\n";
  out += std::string(48, ' ') +
         " |  SD  FP        | CPD  FP        | CCD  FP\n";
  out += std::string(120, '-') + "\n";
  for (const ScenarioResult& sr : result.per_scenario) {
    appendRow(out, sr.title, sr.score);
  }
  out += std::string(120, '-') + "\n";
  appendRow(out, "Total Unique", result.unique_score);
  const int total = result.unique_score.totalExtracted();
  const int fps = result.unique_score.totalFalsePositives();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Overall: %d unique dependencies, %d false positives (%s)\n", total, fps,
                formatPercent(total > 0 ? static_cast<double>(fps) / total : 0.0).c_str());
  out += buf;
  return out;
}

}  // namespace fsdep::corpus
