// fault-campaign: the tester's path. runMatrixCampaign at the default
// matrix (dedup and ddmin on, kJobs workers), then the exhaustive
// CrashCk sweep. Checked against the committed histogram, unique-outcome
// and reproducer counts of the campaign seed, the CrashCk point count
// and silent-corruption count, and every minimized reproducer replayed
// through replayCorpusDocument.
//
// The traced run times runMatrixCampaign whole and adds a layer pass
// that re-runs the campaign's phases from its public pieces:
// sampleConfigMatrix, runCampaignCell for every cell on the benchmark's
// own parallelFor (compared cell by cell with the campaign report), the
// configured images through MkfsTool::format, classifyPostCrashImage
// and imageStateDigest, and minimizeSchedule for every reproducer.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus/component_cache.h"
#include "corpus/pipeline.h"
#include "fsim/block_device.h"
#include "fsim/digest.h"
#include "fsim/mkfs.h"
#include "obs/metrics.h"
#include "support/thread_pool.h"
#include "tools/campaign.h"
#include "tools/confgen/confgen.h"
#include "tools/crashck.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace fsim = fsdep::fsim;
namespace tools = fsdep::tools;
using fsdep::ThreadPool;

namespace {

tools::CampaignOptions campaignOptions(std::uint64_t seed) {
  tools::CampaignOptions options;
  options.seed = seed;
  options.jobs = kJobs;
  return options;
}

struct CampaignPass {
  double ms = 0.0;
  tools::CampaignReport report;
};

CampaignPass campaignPass(std::uint64_t seed, const std::vector<fsdep::model::Dependency>& deps,
                          RunResult& result) {
  CampaignPass out;
  // One call, timed whole: the span has no children (see layerPass).
  trace::Span pass("campaign.pass");
  const auto start = Clock::now();
  fsdep::Result<tools::CampaignReport> report = tools::runMatrixCampaign(campaignOptions(seed), deps);
  out.ms = msBetween(start, Clock::now());
  result.check(report.ok(), "fault-campaign: runMatrixCampaign returned an error");
  if (report.ok()) out.report = std::move(report).take();
  return out;
}

void checkCampaign(RunResult& result, const tools::CampaignReport& report,
                   const json::Object& golden) {
  const bool ok =
      report.cells.size() == static_cast<std::size_t>(golden.find("cells")->asInt()) &&
      report.histogram() == golden.find("histogram")->asString() &&
      report.unique_outcomes == static_cast<std::uint64_t>(golden.find("unique")->asInt()) &&
      report.repros.size() == static_cast<std::size_t>(golden.find("repros")->asInt()) &&
      report.totalFailed() == 0;
  result.check(ok, "fault-campaign: " + report.summary() + " vs golden " +
                       golden.find("histogram")->asString());
  // Every minimized reproducer must replay to its recorded outcome.
  for (const tools::MinimizedRepro& repro : report.repros) {
    const json::Object doc =
        tools::reproToJson(repro, report.configs[repro.config_index].config, report.seed);
    const fsdep::Result<tools::ReplayCase> replay =
        tools::replayCorpusDocument(json::Value(doc), "repro-" + std::to_string(repro.cell_index));
    result.check(replay.ok() && replay.value().outcome_match && replay.value().digest_match,
                 "fault-campaign: reproducer of cell " + std::to_string(repro.cell_index) +
                     " does not replay");
  }
}

double crashckPass(std::uint64_t seed, RunResult& result, const json::Object& golden,
                   std::map<std::string, double>* per_op_ms) {
  trace::Span pass("crashck.pass");
  const auto start = Clock::now();
  int points = 0;
  int silent = 0;
  bool ok = true;
  for (const std::string& op : tools::crashCkOpNames()) {
    trace::Span span("tools.crashck_op");
    const auto op_start = Clock::now();
    const fsdep::Result<tools::CrashOpReport> report = tools::runCrashOp(op, seed);
    if (per_op_ms != nullptr) (*per_op_ms)[op] = msBetween(op_start, Clock::now());
    ok = ok && report.ok();
    if (!report.ok()) continue;
    points += static_cast<int>(report.value().points.size());
    silent += report.value().countOf(tools::CrashOutcome::SilentCorruption);
  }
  const double ms = msBetween(start, Clock::now());
  result.check(ok && points == golden.find("crashck_points")->asInt() &&
                   silent == golden.find("crashck_silent")->asInt(),
               "CrashCk: " + std::to_string(points) + " points, " + std::to_string(silent) +
                   " silent corruption(s)");
  return ms;
}

double setupOnce(std::vector<fsdep::model::Dependency>& deps, RunResult& result,
                 const Goldens& goldens, double& sample_ms) {
  trace::Span span("campaign.setup");
  const auto start = Clock::now();
  deps = checkTable5(result, goldens);
  {
    trace::Span sample("confgen.sample");
    const auto sample_start = Clock::now();
    tools::SamplingOptions sampling;
    sampling.max_configs = campaignOptions(0).max_configs;
    const std::size_t configs = tools::sampleConfigMatrix(sampling, deps).size();
    sample_ms = msBetween(sample_start, Clock::now());
    result.check(configs > 0, "fault-campaign: empty configuration matrix");
  }
  return msBetween(start, Clock::now()) / 1e3;
}

struct LayerPass {
  double sample_ms = 0.0;
  std::vector<double> cell_ms;
  int cells_failed = 0;       ///< from the campaign report
  double dedup_ratio = 0.0;   ///< likewise; base: cells
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double minimize_ms = 0.0;
  std::uint32_t probes = 0;
  double pool_wait_ms = 0.0;
  double pool_busy_ratio = 0.0;
};

/// The configured file system as mkfs lays it out on a device of exactly
/// its size (8192 blocks when the configuration takes the whole device),
/// then recovered (classifyPostCrashImage) and digested. A configuration
/// whose block size no device accepts is skipped; one mkfs rejects is
/// recovered and digested unformatted.
void imageOf(const tools::GeneratedConfig& config, RunResult& result) {
  const fsim::MkfsOptions& mkfs = config.mkfs;
  std::unique_ptr<fsim::BlockDevice> device;
  try {
    trace::Span span("fsim.device");
    device = std::make_unique<fsim::BlockDevice>(mkfs.size_blocks != 0 ? mkfs.size_blocks : 8192,
                                                 mkfs.block_size);
  } catch (const fsim::IoError&) {
    return;
  }
  bool formatted = false;
  {
    trace::Span span("fsim.mkfs");
    formatted = fsim::MkfsTool::format(*device, mkfs).ok();
  }
  tools::CrashOutcome outcome = tools::CrashOutcome::Recovered;
  {
    trace::Span span("tools.recover");
    std::string detail;
    outcome = tools::classifyPostCrashImage(*device, tools::CrashCanary{}, detail);
  }
  {
    trace::Span span("fsim.digest");
    (void)fsim::imageStateDigest(*device);
  }
  // A fresh, uncrashed image of a valid configuration is healthy.
  if (formatted) {
    result.check(outcome == tools::CrashOutcome::Recovered,
                 std::string("fault-campaign layer pass: a freshly formatted image classifies as ") +
                     tools::crashOutcomeName(outcome));
  }
  trace::Span span("fsim.device");
  device.reset();
}

/// The campaign's phases from its public pieces: sample the matrix, run
/// every cell of `report` through runCellWithRetry over runCampaignCell,
/// as the campaign does, on the benchmark's own parallelFor (cells come from the report: schedule planning is internal
/// to the campaign), lay out, recover and digest each configuration's
/// image, and minimize every reproducer again. Each cell and reproducer
/// must agree with the campaign's own result.
LayerPass layerPass(const tools::CampaignReport& report,
                    const std::vector<fsdep::model::Dependency>& deps, RunResult& result) {
  LayerPass out;
  trace::Span pass("campaign.layer_pass");
  {
    trace::Span span("confgen.sample");
    const auto start = Clock::now();
    tools::SamplingOptions sampling;
    sampling.max_configs = campaignOptions(0).max_configs;
    (void)tools::sampleConfigMatrix(sampling, deps);
    out.sample_ms = msBetween(start, Clock::now());
  }
  const std::size_t n = report.cells.size();
  out.cells_failed = report.totalFailed();
  out.dedup_ratio = n > 0 ? static_cast<double>(report.dedup_hits) / static_cast<double>(n) : 0.0;
  out.cell_ms.assign(n, 0.0);
  std::vector<std::int64_t> task_start(n, 0);
  std::vector<char> agrees(n, 0);
  {
    fsdep::obs::Registry& registry = fsdep::obs::Registry::global();
    const std::uint64_t reads0 = registry.counterSum("fsim.device.reads");
    const std::uint64_t writes0 = registry.counterSum("fsim.device.writes");
    trace::Span stage("campaign.cell_stage");
    const std::uint64_t parent = stage.id();
    const std::int64_t dispatch = trace::nowNs();
    ThreadPool::parallelFor(n, kJobs, [&](std::size_t i) {
      task_start[i] = trace::nowNs();
      trace::Span span("tools.cell", parent);
      const tools::CampaignCell& cell = report.cells[i];
      const tools::CellResult got = tools::runCellWithRetry(
          [&] {
            return tools::runCampaignCell(report.configs[cell.config_index].config, cell.op,
                                          cell.schedule, report.seed);
          },
          campaignOptions(0).cell_retries);
      const tools::CellResult& expected = report.results[i];
      agrees[i] = got.status == expected.status &&
                  (got.status != tools::CellStatus::Done ||
                   (got.outcome == expected.outcome && got.digest == expected.digest));
      out.cell_ms[i] = static_cast<double>(trace::nowNs() - task_start[i]) / 1e6;
    });
    const double stage_ns = static_cast<double>(trace::nowNs() - dispatch);
    out.reads = registry.counterSum("fsim.device.reads") - reads0;
    out.writes = registry.counterSum("fsim.device.writes") - writes0;
    double wait_ns = 0.0;
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      wait_ns += static_cast<double>(task_start[i] - dispatch);
      busy_ms += out.cell_ms[i];
    }
    out.pool_wait_ms = n > 0 ? wait_ns / 1e6 / static_cast<double>(n) : 0.0;
    out.pool_busy_ratio = stage_ns > 0 ? busy_ms * 1e6 / (kJobs * stage_ns) : 0.0;
  }
  const auto disagreeing = static_cast<std::size_t>(std::count(agrees.begin(), agrees.end(), 0));
  result.check(disagreeing == 0, "fault-campaign layer pass: " + std::to_string(disagreeing) +
                                     " cell(s) disagree with the campaign's result");
  {
    trace::Span stage("campaign.image_stage");
    for (const tools::SampledConfig& sampled : report.configs) imageOf(sampled.config, result);
  }
  {
    trace::Span span("tools.minimize");
    const auto start = Clock::now();
    for (const tools::MinimizedRepro& repro : report.repros) {
      const tools::CampaignCell& cell = report.cells[repro.cell_index];
      const tools::GeneratedConfig& config = report.configs[cell.config_index].config;
      // As in the campaign, a probe that throws does not reproduce.
      const auto reproduces = [&](const tools::FaultSchedule& candidate) {
        try {
          const fsdep::Result<tools::CellOutcome> probe =
              tools::runCampaignCell(config, cell.op, candidate, report.seed);
          return probe.ok() && probe.value().outcome == repro.outcome &&
                 probe.value().digest == repro.digest;
        } catch (...) {
          return false;
        }
      };
      std::uint32_t probes = 0;
      const tools::FaultSchedule minimal = tools::minimizeSchedule(cell.schedule, reproduces, probes);
      out.probes += probes;
      result.check(minimal == repro.schedule && probes == repro.ddmin_probes,
                   "fault-campaign layer pass: reproducer of cell " +
                       std::to_string(repro.cell_index) + " minimizes differently");
    }
    out.minimize_ms = msBetween(start, Clock::now());
  }
  return out;
}

}  // namespace

RunResult runFaultCampaign(const Args& args, const Goldens& goldens) {
  RunResult result;
  const json::Object& golden = goldens.entryFor("fault_campaign", args.seed);
  const auto campaign_seed = static_cast<std::uint64_t>(golden.find("seed")->asInt());
  std::vector<fsdep::model::Dependency> deps;

  const int setup_reps = kSetupReps;
  std::vector<double> setup_s;
  std::vector<double> sample_ms;
  warmUp([&] {
    double sample = 0.0;
    (void)setupOnce(deps, result, goldens, sample);
  });
  for (int i = 0; i < setup_reps; ++i) {
    double sample = 0.0;
    setup_s.push_back(setupOnce(deps, result, goldens, sample));
    sample_ms.push_back(sample);
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  std::vector<double> campaign_ms;
  std::vector<double> crashck_ms;
  std::size_t cells = 0;
  const auto untracedRound = [&] {
    CampaignPass pass = campaignPass(campaign_seed, deps, result);
    checkCampaign(result, pass.report, golden);
    campaign_ms.push_back(pass.ms);
    cells = pass.report.cells.size();
    crashck_ms.push_back(crashckPass(campaign_seed, result, golden, nullptr));
    return pass;
  };
  if (!args.trace) {
    while (campaign_ms.empty() || Clock::now() < deadline) untracedRound();
    const double campaign = median(campaign_ms);
    result.add("main_ms", campaign);
    result.add("second_ms", median(crashck_ms));
    result.add("rate_per_s", static_cast<double>(cells) / (campaign / 1e3));
    result.add("peak_rss_mb", peakRssMb());
    result.add("setup_s", median(setup_s));
    return result;
  }

  std::vector<double> traced_setup_s;
  trace::setEnabled(true);
  for (int i = 0; i < setup_reps; ++i) {
    double sample = 0.0;
    traced_setup_s.push_back(setupOnce(deps, result, goldens, sample));
  }
  trace::setEnabled(false);
  std::vector<trace::SpanRecord> all_spans = trace::drain();

  std::vector<double> traced_campaign_ms;
  std::vector<double> traced_crashck_ms;
  std::vector<LayerPass> layer_passes;
  std::map<std::string, std::vector<double>> per_op;
  double span_bytes = 0.0;
  while (layer_passes.empty() || Clock::now() < deadline) {
    const CampaignPass untraced = untracedRound();

    trace::setEnabled(true);
    const CampaignPass traced = campaignPass(campaign_seed, deps, result);
    checkCampaign(result, traced.report, golden);
    traced_campaign_ms.push_back(traced.ms);
    std::map<std::string, double> op_ms;
    traced_crashck_ms.push_back(crashckPass(campaign_seed, result, golden, &op_ms));
    for (const auto& [op, ms] : op_ms) per_op[op].push_back(ms);
    layer_passes.push_back(layerPass(untraced.report, deps, result));
    trace::setEnabled(false);

    std::vector<trace::SpanRecord> spans = trace::drain();
    span_bytes = std::max(span_bytes, static_cast<double>(spans.size() * sizeof(trace::SpanRecord)));
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }

  const auto layers = trace::aggregate(all_spans);
  const double passes = static_cast<double>(layer_passes.size());
  const auto perPass = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.busy_ms / passes;
  };
  const auto series = [&](auto field) {
    std::vector<double> values;
    for (const LayerPass& p : layer_passes) values.push_back(field(p));
    return median(values);
  };
  const LayerPass& last = layer_passes.back();
  result.add("confgen.sample_ms", median(sample_ms));
  result.add("tools.cell_p50_ms", quantile(last.cell_ms, 0.5));
  result.add("tools.cell_p99_ms", quantile(last.cell_ms, 0.99));
  result.add("tools.cells_failed", static_cast<double>(last.cells_failed));
  result.add("tools.dedup_ratio", last.dedup_ratio);
  result.add("tools.minimize_ms", series([](const LayerPass& p) { return p.minimize_ms; }));
  result.add("tools.ddmin_probes", static_cast<double>(last.probes));
  result.add("fsim.device_ms", perPass("fsim.device"));
  result.add("fsim.mkfs_ms", perPass("fsim.mkfs"));
  result.add("tools.recover_ms", perPass("tools.recover"));
  result.add("fsim.digest_ms", perPass("fsim.digest"));
  result.add("fsim.block_writes", static_cast<double>(last.writes));
  result.add("fsim.block_reads", static_cast<double>(last.reads));
  result.add("support.pool_wait_ms", series([](const LayerPass& p) { return p.pool_wait_ms; }));
  result.add("support.pool_busy_ratio",
             series([](const LayerPass& p) { return p.pool_busy_ratio; }));
  for (const auto& [op, values] : per_op) result.add("tools.crashck_op_ms." + op, median(values));
  // Coverage is taken over the passes the benchmark splits into layer
  // calls. The timed runMatrixCampaign pass is one call, unattributed;
  // the layer pass re-runs its phases from the public pieces.
  result.add("trace.coverage_ratio", std::min(trace::coverage(all_spans, "crashck.pass"),
                                              trace::coverage(all_spans, "campaign.layer_pass")));
  result.add("trace.unexplained_max_ratio", trace::maxUnexplainedShare(layers));
  const double campaign = median(campaign_ms);
  const double traced_campaign = median(traced_campaign_ms);
  result.add("trace.overhead_main_ms", traced_campaign - campaign);
  result.add("trace.overhead_second_ms", median(traced_crashck_ms) - median(crashck_ms));
  result.add("trace.overhead_rate_per_s",
             static_cast<double>(cells) * (1e3 / traced_campaign - 1e3 / campaign));
  result.add("trace.overhead_peak_rss_mb", span_bytes / (1024.0 * 1024.0));
  result.add("trace.overhead_setup_s", median(traced_setup_s) - median(setup_s));
  trace::printTable("fault-campaign layers (all traced passes)", layers);
  if (!args.trace_out.empty()) trace::writeChromeTrace(args.trace_out, all_spans);
  return result;
}

json::Value makeCampaignGoldens(const std::vector<std::uint64_t>& seeds) {
  RunResult scratch;
  fsdep::corpus::ComponentCache::global().clear();
  const std::vector<fsdep::model::Dependency> deps = fsdep::corpus::runTable5().unique_deps;
  json::Array entries;
  for (const std::uint64_t seed : seeds) {
    const CampaignPass pass = campaignPass(seed, deps, scratch);
    int points = 0;
    int silent = 0;
    for (const std::string& op : tools::crashCkOpNames()) {
      const fsdep::Result<tools::CrashOpReport> report = tools::runCrashOp(op, seed);
      if (!report.ok()) continue;
      points += static_cast<int>(report.value().points.size());
      silent += report.value().countOf(tools::CrashOutcome::SilentCorruption);
    }
    json::Object entry;
    entry["seed"] = seed;
    entry["cells"] = static_cast<std::uint64_t>(pass.report.cells.size());
    entry["histogram"] = pass.report.histogram();
    entry["unique"] = pass.report.unique_outcomes;
    entry["repros"] = static_cast<std::uint64_t>(pass.report.repros.size());
    entry["crashck_points"] = points;
    entry["crashck_silent"] = silent;
    entries.push_back(json::Value(std::move(entry)));
    std::fprintf(stderr, "campaign golden: seed %llu -> %s\n",
                 static_cast<unsigned long long>(seed), pass.report.summary().c_str());
  }
  json::Object section;
  section["seeds"] = json::Value(std::move(entries));
  return json::Value(std::move(section));
}

}  // namespace perfbench
