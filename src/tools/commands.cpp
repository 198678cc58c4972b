#include "tools/commands.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "ast/dump.h"
#include "ast/parser.h"
#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"
#include "lex/preprocessor.h"
#include "model/serialization.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "study/bug_study.h"
#include "study/coverage.h"
#include "support/thread_pool.h"
#include "tools/campaign.h"
#include "tools/conbugck.h"
#include "tools/condocck.h"
#include "tools/conhandleck.h"
#include "tools/crashck.h"
#include "tools/depgraph.h"
#include "tools/serve.h"

namespace fsdep::tools {

namespace {

[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int size = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  if (size > 0) {
    const std::size_t start = out.size();
    out.resize(start + static_cast<std::size_t>(size) + 1);
    std::vsnprintf(out.data() + start, static_cast<std::size_t>(size) + 1, format, args);
    out.resize(start + static_cast<std::size_t>(size));
  }
  va_end(args);
}

/// FSDEP_INTER (parity with FSDEP_JOBS): anything but "", "0", "false" or
/// "off" makes inter-procedural taint the default.
bool envInterDefault() {
  const char* env = std::getenv("FSDEP_INTER");
  if (env == nullptr) return false;
  const std::string value = env;
  return !(value.empty() || value == "0" || value == "false" || value == "off");
}

/// Names the taint engine `options` select ("summary" or "intra") and
/// records it as the run's `taint_engine` report fact.
const char* noteEngine(const taint::AnalysisOptions& options) {
  const char* engine = options.inter_procedural ? "summary" : "intra";
  obs::RunReport::global().note("taint_engine", engine);
  return engine;
}

/// --intra beats --inter, which beats FSDEP_INTER.
taint::AnalysisOptions taintOptions(const Request& request) {
  taint::AnalysisOptions options;
  options.inter_procedural =
      !request.has("intra") && (request.has("inter") || envInterDefault());
  noteEngine(options);
  return options;
}

corpus::PipelineOptions pipelineOptions(const Request& request) {
  corpus::PipelineOptions pipeline;
  pipeline.jobs = request.jobs;
  pipeline.memo = request.memo;
  return pipeline;
}

CommandResult failure(int exit_code, std::string error) {
  return {{}, exit_code, std::move(error)};
}

/// --fail-on, or the empty set.
Result<FailOnSet> failOn(const Request& request) {
  if (!request.has("fail-on")) return FailOnSet{};
  Result<FailOnSet> parsed = parseFailOn(request.string("fail-on"));
  if (!parsed.ok()) {
    return makeError(std::string(request.command().name) + ": " + parsed.error().message);
  }
  return parsed;
}

/// Whether the report has an outcome of a class --fail-on names.
template <typename Report>
bool failOnHit(const FailOnSet& fail_on, const Report& report) {
  for (const CrashOutcome outcome :
       {CrashOutcome::NeedsRepair, CrashOutcome::SilentCorruption, CrashOutcome::DataLoss}) {
    if (fail_on.matches(outcome) && report.totalOf(outcome) > 0) return true;
  }
  return false;
}

std::string depsJson(const std::vector<model::Dependency>& deps) {
  return json::writePretty(model::toJson(deps));
}

std::string depsText(const std::vector<model::Dependency>& deps, const char* trailer) {
  std::string out;
  for (const model::Dependency& dep : deps) {
    out += dep.summary();
    out.push_back('\n');
  }
  appendf(out, "\n%zu %s\n", deps.size(), trailer);
  return out;
}

CommandResult cmdExtract(const Request& request) {
  taint::AnalysisOptions topts = taintOptions(request);
  extract::ExtractOptions eopts = corpus::extractOptions();
  eopts.enable_bridging = !request.has("no-bridging");
  topts.field_bridging = eopts.enable_bridging;
  const std::string scenario_id = request.string("scenario", "all");
  const corpus::PipelineOptions pipeline = pipelineOptions(request);

  std::vector<model::Dependency> deps;
  if (scenario_id == "all") {
    std::vector<std::vector<model::Dependency>> per_scenario;
    for (const corpus::Scenario& s : corpus::scenarios()) {
      per_scenario.push_back(corpus::runScenario(s, topts, &eopts, pipeline));
    }
    deps = extract::dedupeAcrossScenarios(per_scenario);
  } else {
    bool found = false;
    for (const corpus::Scenario& s : corpus::scenarios()) {
      if (s.id == scenario_id) {
        deps = corpus::runScenario(s, topts, &eopts, pipeline);
        found = true;
      }
    }
    if (!found) return failure(2, "unknown scenario '" + scenario_id + "'");
  }

  obs::RunReport::global().note("deps_extracted", deps.size());
  FSDEP_LOG_INFO("cli", "extract: %zu dependencies (scenario %s)", deps.size(),
                 scenario_id.c_str());
  return {request.has("json") ? depsJson(deps) : depsText(deps, "dependencies extracted")};
}

CommandResult cmdTable5(const Request& request) {
  const corpus::Table5Result result =
      corpus::runTable5(taintOptions(request), nullptr, pipelineOptions(request));
  obs::RunReport::global().note("unique_deps", result.unique_deps.size());
  return {corpus::formatTable5(result)};
}

/// The kernel-scale smoke: generate an amplified corpus, analyze every
/// synthetic component (all functions) across the thread pool, and
/// extract dependencies over the whole ecosystem. --budget-ms turns the
/// run into a CI wall-clock guard (exit 3 on overrun).
CommandResult cmdAmplify(const Request& request) {
  corpus::AmplifyOptions aopts;
  aopts.factor = static_cast<std::size_t>(request.count("factor", aopts.factor));
  aopts.seed = request.count("seed", aopts.seed);
  const std::uint64_t budget_ms = request.count("budget-ms", 0);
  if (aopts.factor == 0) return failure(2, "amplify: --factor must be positive");

  taint::AnalysisOptions topts;
  topts.inter_procedural = !request.has("intra");

  using Clock = std::chrono::steady_clock;
  const auto millisSince = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };

  // The whole amplify run is one disk-cache entry keyed by its inputs
  // (the generator is deterministic in factor x seed, so component
  // sources need no digesting — they don't exist before generation).
  // The payload carries every analysis-derived number the output needs,
  // so a warm run skips generate+parse+analyze+extract entirely.
  corpus::DiskCache& disk = corpus::DiskCache::global();
  corpus::CacheKey cache_key;
  if (disk.enabled()) {
    cache_key.mix("amplify-request");
    cache_key.mix(static_cast<std::uint64_t>(aopts.factor));
    cache_key.mix(aopts.seed);
    corpus::mixOptions(cache_key, topts);
    corpus::mixOptions(cache_key, corpus::amplifiedExtractOptions());
  }

  std::size_t component_count = 0;
  std::size_t functions = 0;
  std::size_t write_events = 0;
  std::vector<model::Dependency> deps;
  bool from_cache = false;
  if (disk.enabled()) {
    if (const std::optional<std::string> payload = disk.load(cache_key)) {
      const Result<json::Value> parsed = json::parse(*payload);
      if (parsed.ok() && parsed.value().isObject()) {
        const json::Object& object = parsed.value().asObject();
        const json::Value* cached_deps = object.find("deps");
        Result<std::vector<model::Dependency>> decoded =
            cached_deps != nullptr ? model::dependenciesFromJson(*cached_deps)
                                   : Result<std::vector<model::Dependency>>(
                                         makeError("missing deps"));
        if (decoded.ok() && object.contains("components") && object.contains("functions") &&
            object.contains("write_events")) {
          component_count = static_cast<std::size_t>(object.find("components")->asInt());
          functions = static_cast<std::size_t>(object.find("functions")->asInt());
          write_events = static_cast<std::size_t>(object.find("write_events")->asInt());
          deps = std::move(decoded).take();
          from_cache = true;
        }
      }
    }
  }

  const auto t0 = Clock::now();
  auto t1 = t0;
  auto t2 = t0;
  if (!from_cache) {
    const std::vector<std::string> names = [&] {
      obs::Span span("amplify", "generate");
      return corpus::amplifyCorpus(aopts);
    }();
    t1 = Clock::now();

    std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components(names.size());
    {
      obs::Span span("amplify", "analyze");
      ThreadPool::parallelFor(names.size(), 0, [&](std::size_t i) {
        obs::Span component_span("pipeline", "analyze");
        component_span.arg("component", names[i]);
        auto component = std::make_unique<corpus::AnalyzedComponent>(names[i], topts);
        component->analyze({});
        components[i] = std::move(component);
      });
    }
    t2 = Clock::now();

    component_count = names.size();
    std::vector<extract::ComponentRun> runs;
    runs.reserve(components.size());
    for (const auto& component : components) {
      functions += component->analyzer().results().size();
      write_events += component->analyzer().writeEvents().size();
      runs.push_back(component->asRun());
    }
    deps = [&] {
      obs::Span span("amplify", "extract");
      return extract::extractDependencies(runs, corpus::amplifiedExtractOptions());
    }();

    if (disk.enabled()) {
      json::Object payload;
      payload["components"] = static_cast<std::uint64_t>(component_count);
      payload["functions"] = static_cast<std::uint64_t>(functions);
      payload["write_events"] = static_cast<std::uint64_t>(write_events);
      payload["deps"] = model::toJson(deps);
      disk.store(cache_key, json::writeCompact(json::Value(std::move(payload))));
    }
  }
  const auto t3 = Clock::now();

  const double generate_ms = millisSince(t0, t1);
  const double analyze_ms = millisSince(t1, t2);
  const double extract_ms = millisSince(t2, t3);
  const double total_ms = millisSince(t0, t3);
  const bool over_budget = budget_ms > 0 && total_ms > static_cast<double>(budget_ms);
  const char* engine = noteEngine(topts);

  {
    obs::RunReport& report = obs::RunReport::global();
    report.note("amplify_components", component_count);
    report.note("amplify_cached", static_cast<std::uint64_t>(from_cache));
    report.note("amplify_functions", functions);
    report.note("amplify_write_events", write_events);
    report.note("amplify_deps", deps.size());
    report.note("amplify_engine", engine);
  }

  CommandResult result;
  if (request.has("json")) {
    json::Object root;
    root["factor"] = static_cast<std::uint64_t>(aopts.factor);
    root["seed"] = aopts.seed;
    root["engine"] = engine;
    root["components"] = static_cast<std::uint64_t>(component_count);
    root["functions"] = static_cast<std::uint64_t>(functions);
    root["write_events"] = static_cast<std::uint64_t>(write_events);
    root["dependencies"] = static_cast<std::uint64_t>(deps.size());
    root["generate_ms"] = generate_ms;
    root["analyze_ms"] = analyze_ms;
    root["extract_ms"] = extract_ms;
    root["total_ms"] = total_ms;
    root["budget_ms"] = budget_ms;
    root["within_budget"] = !over_budget;
    result.out = json::writePretty(root);
  } else {
    appendf(result.out, "amplified corpus: factor %llu, seed %llu, engine %s\n",
            static_cast<unsigned long long>(aopts.factor),
            static_cast<unsigned long long>(aopts.seed), engine);
    appendf(result.out, "  components:   %zu\n", component_count);
    appendf(result.out, "  functions:    %zu\n", functions);
    appendf(result.out, "  write events: %zu\n", write_events);
    appendf(result.out, "  dependencies: %zu\n", deps.size());
    appendf(result.out,
            "  generate %.1f ms, analyze %.1f ms, extract %.1f ms (total %.1f ms)\n",
            generate_ms, analyze_ms, extract_ms, total_ms);
  }
  if (over_budget) {
    result.exit_code = 3;
    appendf(result.error, "amplify: %.1f ms exceeds --budget-ms %llu, exiting 3", total_ms,
            static_cast<unsigned long long>(budget_ms));
  }
  return result;
}

CommandResult cmdDocCk(const Request& request) {
  noteEngine({});  // the checkers extract with the default engine
  const DocCheckReport report = runCorpusDocCheck(pipelineOptions(request));
  CommandResult result{report.summary() + "\n"};
  for (const DocIssue& issue : report.issues) {
    appendf(result.out, "  [%s] %s\n", docIssueKindName(issue.kind),
            issue.explanation.c_str());
  }
  return result;
}

CommandResult cmdHandleCk(const Request&) {
  noteEngine({});
  const HandleCheckReport report = runCorpusHandleCheck();
  CommandResult result{report.summary() + "\n"};
  for (const HandleCase& c : report.cases) {
    if (c.outcome == HandleOutcome::Corruption || c.outcome == HandleOutcome::SilentAccept) {
      appendf(result.out, "  [%s] %s\n      %s\n", handleOutcomeName(c.outcome),
              c.description.c_str(), c.detail.c_str());
    }
  }
  return result;
}

CommandResult cmdBugCk(const Request& request) {
  const int runs = static_cast<int>(request.count("runs", 100));
  noteEngine({});
  const std::vector<model::Dependency> deps = corpus::runTable5().unique_deps;
  const CampaignResult naive = runCampaign(runs, false, deps);
  const CampaignResult aware = runCampaign(runs, true, deps);
  return {formatCampaignComparison(naive, aware)};
}

CommandResult cmdFigure1(const Request&) {
  using namespace fsim;
  CommandResult result{"Reproducing the paper's Figure 1: sparse_super2 + resize2fs expansion\n\n"};
  for (const bool fixed : {false, true}) {
    BlockDevice device(8192, 1024);
    MkfsOptions mo;
    mo.block_size = 1024;
    mo.size_blocks = 2048;
    mo.blocks_per_group = 512;
    mo.sparse_super2 = true;
    mo.resize_inode = false;
    mo.inode_ratio = 8192;
    const Result<Superblock> sb = MkfsTool::format(device, mo);
    if (!sb.ok()) return {result.out, 1, "mkfs failed: " + sb.error().message};
    Result<MountedFs> mounted = MountTool::mount(device, MountOptions{});
    if (mounted.ok()) {
      (void)mounted.value().createFile(8192, 2);
      mounted.value().unmount();
    }
    ResizeOptions ro;
    ro.new_size_blocks = 3072;
    ro.fix_sparse_super2_accounting = fixed;
    const Result<ResizeReport> resized = ResizeTool::resize(device, ro);
    if (!resized.ok()) return {result.out, 1, "resize failed: " + resized.error().message};
    const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
    appendf(result.out, "%s accounting: fsck reports %s\n", fixed ? "fixed " : "buggy ",
            fsck.ok() ? fsck.value().summary().c_str() : "error");
    if (fsck.ok()) {
      for (const FsckProblem& p : fsck.value().problems) {
        appendf(result.out, "    - %s\n", p.description.c_str());
      }
    }
  }
  return result;
}

CommandResult cmdCrashCk(const Request& request) {
  CrashCkOptions options;
  options.ops = request.list("op");
  options.seed = request.count("seed", options.seed);
  const Result<FailOnSet> fail_on = failOn(request);
  if (!fail_on.ok()) return failure(2, fail_on.error().message);

  const Result<CrashCkReport> crashed = runCrashCk(options);
  if (!crashed.ok()) return failure(2, crashed.error().message);
  const CrashCkReport& report = crashed.value();
  {
    obs::RunReport& run_report = obs::RunReport::global();
    run_report.note("crashck_summary", report.summary());
    run_report.note("crashck_recovered",
                    static_cast<std::uint64_t>(report.totalOf(CrashOutcome::Recovered)));
    run_report.note("crashck_needs_repair",
                    static_cast<std::uint64_t>(report.totalOf(CrashOutcome::NeedsRepair)));
    run_report.note("crashck_silent_corruption",
                    static_cast<std::uint64_t>(report.totalOf(CrashOutcome::SilentCorruption)));
    run_report.note("crashck_data_loss",
                    static_cast<std::uint64_t>(report.totalOf(CrashOutcome::DataLoss)));
  }

  CommandResult result;
  if (failOnHit(fail_on.value(), report)) result.exit_code = 3;

  if (request.has("json")) {
    json::Object root;
    root["seed"] = static_cast<std::uint64_t>(report.seed);
    json::Array ops;
    for (const CrashOpReport& r : report.ops) {
      json::Object o;
      o["op"] = r.op;
      o["total_writes"] = static_cast<std::uint64_t>(r.total_writes);
      json::Array points;
      for (const CrashPoint& p : r.points) {
        json::Object pt;
        pt["write_index"] = static_cast<std::uint64_t>(p.write_index);
        pt["control"] = p.control;
        pt["outcome"] = crashOutcomeName(p.outcome);
        pt["detail"] = p.detail;
        points.push_back(std::move(pt));
      }
      o["points"] = std::move(points);
      ops.push_back(std::move(o));
    }
    root["ops"] = std::move(ops);
    result.out = json::writePretty(root);
    return result;
  }

  appendf(result.out, "CrashCk: seed %llu\n\n", static_cast<unsigned long long>(report.seed));
  for (const CrashOpReport& r : report.ops) {
    appendf(result.out, "%-13s %3llu write(s)  %s\n", r.op.c_str(),
            static_cast<unsigned long long>(r.total_writes), r.histogram().c_str());
    for (const CrashPoint& p : r.points) {
      if (p.outcome == CrashOutcome::SilentCorruption || p.outcome == CrashOutcome::DataLoss) {
        appendf(result.out, "    write %3llu%s [%s] %s\n",
                static_cast<unsigned long long>(p.write_index), p.control ? " (control)" : "",
                crashOutcomeName(p.outcome), p.detail.c_str());
      }
    }
  }
  appendf(result.out, "\n%s\n", report.summary().c_str());
  if (result.exit_code != 0) result.error = "crashck: --fail-on outcome class present, exiting 3";
  return result;
}

CommandResult cmdCampaign(const Request& request) {
  const Result<FailOnSet> fail_on = failOn(request);
  if (!fail_on.ok()) return failure(2, fail_on.error().message);

  if (const std::string replay_dir = request.string("replay"); !replay_dir.empty()) {
    const Result<ReplayReport> replayed = replayCampaignCorpus(replay_dir);
    if (!replayed.ok()) return failure(2, replayed.error().message);
    const ReplayReport& report = replayed.value();
    CommandResult result;
    for (const ReplayCase& c : report.cases) {
      appendf(result.out, "%-9s %s: recorded %s, replayed %s%s\n",
              c.outcome_match ? "MATCH" : "MISMATCH", c.file.c_str(),
              crashOutcomeName(c.recorded), crashOutcomeName(c.replayed),
              c.digest_match ? "" : " (digest drifted)");
    }
    appendf(result.out, "\nreplay: %s\n", report.summary().c_str());
    obs::RunReport::global().note("campaign_replay", report.summary());
    result.exit_code = report.allMatch() ? 0 : 1;
    return result;
  }

  CampaignOptions options;
  options.seed = request.count("seed", options.seed);
  options.ops = request.list("op");
  options.max_configs = static_cast<std::size_t>(request.count("configs", options.max_configs));
  options.max_crash_points =
      static_cast<std::size_t>(request.count("crash-points", options.max_crash_points));
  options.max_double_faults =
      static_cast<std::size_t>(request.count("double-faults", options.max_double_faults));
  options.cell_retries = static_cast<std::uint32_t>(request.count("retries", options.cell_retries));
  options.pairwise = !request.has("no-pairwise");
  options.minimize = !request.has("no-minimize");
  options.corpus_dir = request.string("corpus");

  noteEngine({});
  const std::vector<model::Dependency> deps = corpus::runTable5().unique_deps;
  const Result<CampaignReport> ran = runMatrixCampaign(options, deps);
  if (!ran.ok()) return failure(2, ran.error().message);
  const CampaignReport& report = ran.value();
  {
    obs::RunReport& run_report = obs::RunReport::global();
    run_report.note("campaign_summary", report.summary());
    run_report.note("campaign_histogram", report.histogram());
    run_report.note("campaign_cells", static_cast<std::uint64_t>(report.cells.size()));
    run_report.note("campaign_configs", static_cast<std::uint64_t>(report.configs.size()));
    run_report.note("campaign_unique_outcomes", report.unique_outcomes);
    run_report.note("campaign_dedup_hits", report.dedup_hits);
    run_report.note("campaign_minimizer_probes", report.minimizer_probes);
    run_report.note("campaign_repros", static_cast<std::uint64_t>(report.repros.size()));
    run_report.note("campaign_silent_corruption",
                    static_cast<std::uint64_t>(report.totalOf(CrashOutcome::SilentCorruption)));
    run_report.note("campaign_data_loss",
                    static_cast<std::uint64_t>(report.totalOf(CrashOutcome::DataLoss)));
    run_report.note("campaign_failed_cells", static_cast<std::uint64_t>(report.totalFailed()));
  }

  CommandResult result;
  if (failOnHit(fail_on.value(), report) || (fail_on.value().failed && report.totalFailed() > 0)) {
    result.exit_code = 3;
  }

  result.out = request.has("json") ? json::writePretty(json::Value(report.toJson()))
                                   : report.renderText();
  if (result.exit_code != 0) result.error = "campaign: --fail-on outcome class present, exiting 3";
  return result;
}

CommandResult cmdServe(const Request& request) {
  ServeDaemon daemon(ServeOptions{request.string("socket", defaultSocketPath())});
  const Result<bool> started = daemon.start();
  if (!started.ok()) return failure(1, started.error().message);
  // Printed now, not with the result: clients wait for this line.
  std::printf("fsdep serve: listening on %s (send {\"type\":\"shutdown\"} to stop)\n",
              daemon.socketPath().c_str());
  std::fflush(stdout);
  daemon.wait();
  daemon.stop();
  CommandResult result;
  appendf(result.out, "fsdep serve: shut down after %llu request(s)\n",
          static_cast<unsigned long long>(daemon.requestsServed()));
  return result;
}

CommandResult cmdQuery(const Request& request) {
  const std::string socket = request.string("socket", defaultSocketPath());
  if (request.has("raw")) {
    const Result<std::string> response = serveRoundTrip(socket, request.string("raw"));
    if (!response.ok()) return failure(1, response.error().message);
    return {response.value() + "\n"};
  }

  // A command's flags are checked here, against the same table the
  // daemon parses with; the daemon's own requests (ping, stats,
  // invalidate, shutdown) take none.
  const std::string type = request.string("type", "extract");
  const std::vector<std::string> args = request.list("args");
  json::Object message;
  if (const Command* command = findCommand(type)) {
    const Result<Request> target = parseArgv(*command, args);
    if (!target.ok()) return failure(2, target.error().message);
    message = target.value().toJson();
  } else if (!args.empty()) {
    return failure(2, "query: unexpected argument '" + args.front() + "' for --type " + type);
  } else {
    message["type"] = type;
  }
  message["id"] = "cli";

  const Result<ServeResponse> sent = serveRequest(socket, message);
  if (!sent.ok()) return failure(1, sent.error().message);
  const ServeResponse& response = sent.value();
  if (!response.ok) return failure(1, "fsdep query: " + response.error);
  // Analysis responses already end in '\n' (they are the one-shot
  // command's stdout, printed verbatim); only bare strings like "pong"
  // get one appended.
  CommandResult result{response.stdout_text};
  if (!result.out.empty() && result.out.back() != '\n') result.out.push_back('\n');
  if (request.has("timing")) {
    appendf(result.error, "query: %s in %llu us", response.cached ? "cached" : "computed",
            static_cast<unsigned long long>(response.wall_us));
  }
  obs::RunReport::global().note("query_cached", static_cast<std::uint64_t>(response.cached));
  obs::RunReport::global().note("query_wall_us", response.wall_us);
  return result;
}

CommandResult cmdXfs(const Request& request) {
  const extract::ExtractOptions options = corpus::xfsExtractOptions();
  const auto deps = corpus::runScenario(corpus::xfsScenario(), taintOptions(request), &options,
                                        pipelineOptions(request));
  return {request.has("json") ? depsJson(deps)
                              : depsText(deps, "dependencies extracted from the XFS ecosystem")};
}

CommandResult cmdBugs(const Request& request) {
  if (request.has("json")) {
    json::Array cases;
    for (const study::BugCase& bug : study::bugCases()) {
      json::Object o;
      o["id"] = bug.id;
      o["scenario"] = bug.scenario;
      o["title"] = bug.title;
      json::Array dep_ids;
      for (const std::string& id : bug.dependency_ids) dep_ids.emplace_back(id);
      o["dependencies"] = std::move(dep_ids);
      cases.push_back(std::move(o));
    }
    json::Object root;
    root["bugs"] = std::move(cases);
    return {json::writePretty(root)};
  }
  CommandResult result;
  for (const study::BugCase& bug : study::bugCases()) {
    appendf(result.out, "%-12s [%s] %s\n", bug.id.c_str(), bug.scenario.c_str(),
            bug.title.c_str());
  }
  appendf(result.out, "\n%zu bug cases\n", study::bugCases().size());
  return result;
}

/// Everything known about one parameter: registry entry, every extracted
/// dependency touching it with its taint traces, and manual claims.
CommandResult cmdExplain(const Request& request) {
  const std::string param = request.string("param");
  if (param.empty()) return failure(2, "explain: which parameter? (e.g. mke2fs.sparse_super2)");
  const corpus::Table5Result table5 =
      corpus::runTable5(taintOptions(request), nullptr, pipelineOptions(request));
  CommandResult result;
  std::string& out = result.out;
  if (const model::Parameter* registered = corpus::ecosystem().findParameter(param)) {
    out = param + "  (" + registered->flag + ", " + model::configStageName(registered->stage) +
          " stage): " + registered->description + "\n\n";
  } else {
    out = param + "  (not in the parameter registry)\n\n";
  }
  int shown = 0;
  for (const model::Dependency& dep : table5.unique_deps) {
    if (dep.param != param && dep.other_param != param) continue;
    out += "  " + dep.summary() + "\n";
    for (const std::string& step : dep.trace) out += "      " + step + "\n";
    ++shown;
  }
  bool documented = false;
  for (const corpus::ManualEntry& entry : corpus::allManuals()) {
    if (entry.claim.param == param || entry.claim.other_param == param) {
      out += "  manual: \"" + entry.text + "\"\n";
      documented = true;
    }
  }
  if (shown == 0) out += "  no extracted dependencies involve this parameter\n";
  if (!documented) out += "  no manual claim mentions this parameter\n";
  return result;
}

CommandResult cmdGraph(const Request& request) {
  const corpus::Table5Result table5 =
      corpus::runTable5(taintOptions(request), nullptr, pipelineOptions(request));
  GraphOptions options;
  options.include_self_deps = request.has("self-deps");
  return {renderDependencyGraphDot(table5.unique_deps, options)};
}

CommandResult cmdCheck(const Request& request) {
  const std::string path = request.string("file");
  if (path.empty()) return failure(2, "check: need a C file");
  std::ifstream in(path);
  if (!in) return failure(1, "check: cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();

  const std::string component = request.string("component", "tool");

  SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer(path, buffer.str());
  // Headers resolve against the file's directory first, then the corpus.
  const std::string dir = path.find('/') != std::string::npos
                              ? path.substr(0, path.rfind('/') + 1)
                              : std::string();
  lex::Preprocessor pp(sm, diags, [&dir](std::string_view name) -> std::optional<std::string> {
    std::ifstream header(dir + std::string(name));
    if (header) {
      std::stringstream text;
      text << header.rdbuf();
      return text.str();
    }
    return corpus::headerSource(name);
  });
  ast::Parser parser(pp.tokenize(file), diags);
  auto tu = parser.parseTranslationUnit(path);
  if (diags.hasErrors()) return failure(1, diags.render(sm));
  sema::Sema sema_obj(*tu, diags);
  sema_obj.run();

  taint::Analyzer analyzer(*tu, sema_obj, taintOptions(request));
  const std::vector<std::string> seeds = request.list("seed");
  for (const std::string& spec : seeds) {  // fn:var:component.param
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      return failure(2, "check: bad --seed '" + spec + "' (want fn:var:component.param)");
    }
    analyzer.addSeed({spec.substr(0, c1), spec.substr(c1 + 1, c2 - c1 - 1),
                      spec.substr(c2 + 1)});
  }
  if (seeds.empty()) {
    return failure(2, "check: no --seed given; nothing to track.\n"
                      "       example: --seed main:blocksize:" + component + ".blocksize");
  }
  analyzer.run();

  extract::ExtractOptions eopts = corpus::extractOptions();
  eopts.metadata_owner = request.string("owner", component);
  const auto deps =
      extract::extractDependencies({{component, false, &analyzer, &sema_obj}}, eopts);

  if (request.has("json")) return {depsJson(deps)};
  CommandResult result;
  for (const model::Dependency& dep : deps) {
    appendf(result.out, "%s\n", dep.summary().c_str());
    for (const std::string& step : dep.trace) appendf(result.out, "    %s\n", step.c_str());
  }
  appendf(result.out, "\n%zu dependencies extracted from %s\n", deps.size(), path.c_str());
  return result;
}

CommandResult cmdExportCorpus(const Request& request) {
  const std::string dir = request.string("dir");
  if (dir.empty()) return failure(2, "export-corpus: need a target directory");
  CommandResult result;
  const auto writeFile = [&](const std::string& name, std::string_view text) {
    const std::string out_path = dir + "/" + name;
    std::ofstream out(out_path);
    if (!out) {
      result.exit_code = 1;
      result.error = "cannot write " + out_path + " (does the directory exist?)";
      return false;
    }
    out << text;
    appendf(result.out, "wrote %s (%zu bytes)\n", out_path.c_str(), text.size());
    return true;
  };
  for (const char* header : {"ext4_fs.h", "fsdep_libc.h", "xfs_fs.h", "btrfs_fs.h"}) {
    if (!writeFile(header, *corpus::headerSource(header))) return result;
  }
  for (const auto& names : {corpus::componentNames(), corpus::xfsComponentNames(),
                            corpus::btrfsComponentNames()}) {
    for (const std::string& component : names) {
      if (!writeFile(component + ".c", corpus::componentSource(component))) return result;
    }
  }
  return result;
}

CommandResult cmdDumpAst(const Request& request) {
  const std::string component = request.string("component");
  if (component.empty()) return failure(2, "dump-ast: which component? (mke2fs, mount, ext4, ...)");
  return {ast::dumpTranslationUnit(corpus::AnalyzedComponent(component, {}).tu())};
}

CommandResult cmdDumpCfg(const Request& request) {
  const std::string component = request.string("component");
  const std::string function = request.string("function");
  if (function.empty()) return failure(2, "dump-cfg: need <component> <function>");
  const corpus::AnalyzedComponent analyzed(component, {});
  const ast::FunctionDecl* fn = analyzed.tu().findFunction(function);
  if (fn == nullptr || !fn->isDefinition()) {
    return failure(1, "no function '" + function + "' in " + component);
  }
  return {cfg::Cfg::build(*fn)->dump()};
}

constexpr FlagSpec kInter{"inter", FlagKind::Bool, "",
                          "inter-procedural taint (default: FSDEP_INTER, else intra)"};
constexpr FlagSpec kIntra{"intra", FlagKind::Bool, "", "intra-procedural taint"};
constexpr FlagSpec kJson{"json", FlagKind::Bool, "", "emit JSON instead of text"};
constexpr FlagSpec kFailOn{"fail-on", FlagKind::String, "CLASSES",
                           "exit 3 on silent-corruption,data-loss,needs-repair,failed"};

std::string fieldName(std::string_view flag) {
  std::string field(flag);
  std::replace(field.begin(), field.end(), '-', '_');
  return field;
}

bool isRestSlot(const FlagSpec& flag) { return flag.positional && flag.kind == FlagKind::List; }

void appendFlags(std::string& out, const std::vector<FlagSpec>& flags, int indent) {
  for (const FlagSpec& flag : flags) {
    if (isRestSlot(flag)) continue;
    std::string left = flag.positional ? "<" + std::string(flag.name) + ">"
                                       : "--" + std::string(flag.name);
    if (!flag.positional && flag.kind != FlagKind::Bool) left += " " + std::string(flag.value);
    appendf(out, "%*s%-22s %.*s\n", indent, "", left.c_str(), static_cast<int>(flag.help.size()),
            flag.help.data());
  }
}

}  // namespace

obs::Counter& Command::requestCounter() const {
  obs::Counter* counter = request_counter.load(std::memory_order_acquire);
  if (counter == nullptr) {
    // Racing first requests get the same handle from the registry.
    counter = &obs::Registry::global().counter("serve.requests", {{"type", std::string(name)}});
    request_counter.store(counter, std::memory_order_release);
  }
  return *counter;
}

std::span<const Command> commands() {
  using K = FlagKind;
  static const Command table[] = {
      {"extract", "", "print the dependencies the analyzer extracts from the corpus",
       {{"scenario", K::String, "ID", "one scenario, s1..s4 (default: all)"}, kInter, kIntra,
        {"no-bridging", K::Bool, "", "disable metadata bridging (ablation)"}, kJson},
       cmdExtract, true},
      {"table2", "", "test-suite configuration coverage (paper Table 2)", {},
       [](const Request&) { return CommandResult{study::formatTable2(study::runCoverageStudy())}; }},
      {"table3", "", "bug-study distribution (paper Table 3)", {},
       [](const Request&) { return CommandResult{study::formatTable3()}; }},
      {"table4", "", "dependency taxonomy (paper Table 4)", {},
       [](const Request&) { return CommandResult{study::formatTable4()}; }},
      {"table5", "", "extraction evaluation (paper Table 5)", {kInter, kIntra}, cmdTable5},
      {"amplify", "", "generate a synthetic amplified corpus and analyze it end to end",
       {{"factor", K::Count, "N", "synthetic components per Ext4 component (default 100)"},
        {"seed", K::Count, "S", "generator seed (default 42)"},
        {"inter", K::Bool, "", "inter-procedural taint (the default)"}, kIntra,
        {"budget-ms", K::Count, "M", "exit 3 when the run takes longer than M ms"}, kJson},
       cmdAmplify},
      {"docck", "", "ConDocCk: manual-vs-code inconsistencies", {}, cmdDocCk, true},
      {"handleck", "", "ConHandleCk: dependency-violation campaign", {}, cmdHandleCk},
      {"bugck", "", "ConBugCk: dependency-aware config generation",
       {{"runs", K::Count, "N", "configurations per generator (default 100)"}}, cmdBugCk},
      {"figure1", "", "reproduce the sparse_super2 resize corruption", {}, cmdFigure1},
      {"crashck", "", "CrashCk: crash-point enumeration over the fsim tools",
       {{"op", K::List, "OP", "mkfs|mount|resize|resize-buggy|defrag|tune (default: all)"},
        {"seed", K::Count, "S", "fault-schedule seed (default 42)"}, kJson, kFailOn},
       cmdCrashCk},
      {"campaign", "", "crash x fault x config matrix campaign, deduped and minimized",
       {{"seed", K::Count, "S", "campaign seed (default 42)"},
        {"op", K::List, "OP", "restrict to these ops"},
        {"configs", K::Count, "N", "cap the sampled matrix (default 24)"},
        {"crash-points", K::Count, "N", "crash cells per config x op (default 4)"},
        {"double-faults", K::Count, "N", "crash+transient cells per config x op (default 2)"},
        {"no-pairwise", K::Bool, "", "each-used-value sampling only"},
        {"no-minimize", K::Bool, "", "skip ddmin reproducer minimization"},
        {"retries", K::Count, "N", "per-cell retry budget (default 2)"},
        {"corpus", K::String, "DIR", "persist minimized reproducers under DIR"},
        {"replay", K::String, "DIR", "replay a reproducer corpus instead"}, kJson, kFailOn},
       cmdCampaign},
      {"profile", "", "run a command (default: table5) and print where its time went",
       {{"format", K::String, "FMT", "text (default), json or folded"},
        {"out", K::String, "FILE", "write the attribution to FILE"},
        {"command", K::List, "", "", true}}},
      {"serve", "", "the analysis daemon: NDJSON over a Unix socket (docs/serve.md)",
       {{"socket", K::String, "PATH", "default: FSDEP_SOCKET, else /tmp/fsdep.sock"}}, cmdServe},
      {"query", "", "send one request to `fsdep serve`; the command's flags follow",
       {{"socket", K::String, "PATH", "as for serve"},
        {"type", K::String, "T", "a served command or ping|stats|invalidate|shutdown"},
        {"timing", K::Bool, "", "print cached/computed and wall_us to stderr"},
        {"raw", K::String, "JSON", "send this request line instead"},
        {"args", K::List, "", "", true}},
       cmdQuery},
      {"xfs", "", "run the analyzer over the XFS mini-ecosystem (paper SS6)",
       {kInter, kIntra, kJson}, cmdXfs},
      {"bugs", "", "list the 67-case bug study dataset", {kJson}, cmdBugs},
      {"explain", "blame", "show everything known about one parameter",
       {{"param", K::String, "P", "e.g. mke2fs.sparse_super2", true}, kInter, kIntra},
       cmdExplain, true},
      {"graph", "depgraph", "emit the dependency graph as Graphviz dot",
       {{"self-deps", K::Bool, "", "include self-dependencies"}, kInter, kIntra}, cmdGraph,
       true},
      {"check", "", "analyze YOUR C file",
       {{"file", K::String, "FILE", "the C file", true},
        {"seed", K::List, "FN:VAR:PARAM", "VAR in function FN holds PARAM (at least one)"},
        {"component", K::String, "NAME", "component name (default: tool)"},
        {"owner", K::String, "NAME", "metadata owner (default: the component)"}, kInter,
        kIntra, kJson},
       cmdCheck},
      {"export-corpus", "", "write the embedded corpus sources to disk",
       {{"dir", K::String, "DIR", "an existing directory", true}}, cmdExportCorpus},
      {"dump-ast", "", "print the parsed AST of a corpus component",
       {{"component", K::String, "NAME", "mke2fs, mount, ext4, ...", true}}, cmdDumpAst},
      {"dump-cfg", "", "print the CFG of one function",
       {{"component", K::String, "NAME", "", true}, {"function", K::String, "NAME", "", true}},
       cmdDumpCfg},
      {"help", "", "print this help", {}, [](const Request&) { return CommandResult{usageText()}; }},
  };
  return table;
}

const Command& globalOptions() {
  using K = FlagKind;
  static const Command global{
      "fsdep", "", "",
      {{"jobs", K::Count, "N", "parallel analyses (default: FSDEP_JOBS, else hardware threads)"},
       {"stats", K::Bool, "", "print pipeline perf counters to stderr"},
       {"trace", K::String, "FILE", "write spans as Chrome trace-event JSON"},
       {"metrics", K::String, "FILE", "write the metrics registry as JSON"},
       {"report", K::String, "FILE", "write a run report (command, wall time, metrics) as JSON"},
       {"profile", K::String, "FILE", "write the wall-time attribution of spans (\"\": stdout)"},
       {"profile-format", K::String, "FMT", "text (default), json or folded"},
       {"log", K::String, "LEVEL", "debug|info|warn|error|off (default: FSDEP_LOG, else warn)"},
       {"cache-dir", K::String, "DIR", "on-disk result cache (default: FSDEP_CACHE_DIR)"},
       {"no-cache", K::Bool, "", "no disk cache and no in-process component reuse"},
       {"args", K::List, "", "", true}}};
  return global;
}

const Command* findCommand(std::string_view name) {
  for (const Command& command : commands()) {
    if (!name.empty() && (command.name == name || command.alias == name)) return &command;
  }
  return nullptr;
}

const json::Value& Request::value(std::string_view flag) const {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (command_->flags[i].name == flag) return values_[i];
  }
  throw std::logic_error(std::string(command_->name) + " has no flag --" + std::string(flag));
}

bool Request::has(std::string_view flag) const { return !value(flag).isNull(); }

std::string Request::string(std::string_view flag, std::string fallback) const {
  const json::Value& v = value(flag);
  return v.isString() ? v.asString() : fallback;
}

std::uint64_t Request::count(std::string_view flag, std::uint64_t fallback) const {
  const json::Value& v = value(flag);
  return v.isInt() ? static_cast<std::uint64_t>(v.asInt()) : fallback;
}

std::vector<std::string> Request::list(std::string_view flag) const {
  std::vector<std::string> items;
  const json::Value& v = value(flag);
  if (v.isArray()) {
    for (const json::Value& item : v.asArray()) items.push_back(item.asString());
  }
  return items;
}

json::Object Request::toJson() const {
  json::Object object;
  object["type"] = std::string(command_->name);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!values_[i].isNull()) object[fieldName(command_->flags[i].name)] = values_[i];
  }
  return object;
}

std::string Request::canonical() const { return json::writeCompact(json::Value(toJson())); }

Result<Request> parseArgv(const Command& command, const std::vector<std::string>& args) {
  Request request(command);
  const std::vector<FlagSpec>& flags = command.flags;
  const auto fail = [&command](const std::string& problem) {
    return makeError(std::string(command.name) + ": " + problem);
  };
  const auto append = [&request](std::size_t index, const std::string& item) {
    if (request.values_[index].isNull()) request.values_[index] = json::Array{};
    request.values_[index].asArray().emplace_back(item);
  };
  const std::size_t rest = static_cast<std::size_t>(
      std::find_if(flags.begin(), flags.end(), isRestSlot) - flags.begin());

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool dashed = arg.rfind("--", 0) == 0;
    std::size_t index = 0;
    while (index < flags.size() &&
           !(dashed ? index != rest && arg.compare(2, std::string::npos, flags[index].name) == 0
                    : flags[index].positional && flags[index].kind == FlagKind::String &&
                          request.values_[index].isNull())) {
      ++index;
    }
    if (index == flags.size()) {
      if (rest == flags.size()) {
        return fail((dashed ? "unknown flag '" : "unexpected argument '") + arg + "'");
      }
      append(rest, arg);
    } else if (!dashed) {
      request.values_[index] = arg;
    } else if (flags[index].kind == FlagKind::Bool) {
      request.values_[index] = true;
    } else if (i + 1 == args.size() || args[i + 1].rfind("--", 0) == 0) {
      return fail(arg + " requires a value");
    } else if (const std::string& text = args[++i]; flags[index].kind == FlagKind::List) {
      append(index, text);
    } else if (flags[index].kind == FlagKind::String) {
      request.values_[index] = text;
    } else {
      std::uint64_t n = 0;
      const char* end = text.data() + text.size();
      const std::from_chars_result parsed = std::from_chars(text.data(), end, n);
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        return fail(arg + " expects an integer, got '" + text + "'");
      }
      request.values_[index] = n;
    }
  }
  return request;
}

Result<Request> fromJson(const Command& command, const json::Object& object) {
  static constexpr const char* kMustBe[] = {"a bool", "a string", "a non-negative integer",
                                            "an array of strings"};
  Request request(command);
  const std::vector<FlagSpec>& flags = command.flags;
  for (const auto& [key, value] : object) {
    if (key == "type" || key == "id") continue;
    std::size_t index = 0;
    while (index < flags.size() && fieldName(flags[index].name) != key) ++index;
    if (index == flags.size()) {
      return makeError(std::string(command.name) + ": field '" + key + "' is unknown");
    }
    const FlagKind kind = flags[index].kind;
    const auto isStrings = [](const json::Array& items) {
      return std::all_of(items.begin(), items.end(), [](const json::Value& v) { return v.isString(); });
    };
    const bool typed = kind == FlagKind::Bool     ? value->isBool()
                       : kind == FlagKind::String ? value->isString()
                       : kind == FlagKind::Count  ? value->isInt() && value->asInt() >= 0
                                                  : value->isArray() && isStrings(value->asArray());
    if (!typed) {
      return makeError(std::string(command.name) + ": field '" + key + "' must be " +
                       kMustBe[static_cast<int>(kind)]);
    }
    // false is the same request as an absent flag.
    if (!(value->isBool() && !value->asBool())) request.values_[index] = *value;
  }
  return request;
}

std::string usageText() {
  std::string out =
      "usage: fsdep <command> [options]; a <slot> may also be given as --slot VALUE\n\n"
      "global options:\n";
  appendFlags(out, globalOptions().flags, 2);
  out += "\ncommands:\n";
  for (const Command& command : commands()) {
    std::string synopsis(command.name);
    for (const FlagSpec& flag : command.flags) {
      if (flag.positional) synopsis += " <" + std::string(flag.name) + (isRestSlot(flag) ? ">..." : ">");
    }
    appendf(out, "  %s  %.*s", synopsis.c_str(), static_cast<int>(command.help.size()),
            command.help.data());
    if (command.served) appendf(out, " [served%s%.*s]", command.alias.empty() ? "" : "; alias ",
                                static_cast<int>(command.alias.size()), command.alias.data());
    out += "\n";
    appendFlags(out, command.flags, 4);
  }
  return out;
}

}  // namespace fsdep::tools
