// The fsdep benchmark binary. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --goldens FILE --catalog BENCHMARK.json --work-dir DIR
//             [--trace-out FILE]
//   perfbench --make-goldens
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and metrics (every end-to-end metric untraced, every
// per-layer metric traced, names and units from the catalog).
// perfbench/run.py builds this binary from the checkout and runs it;
// see perfbench/README.md.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "corpus/component_cache.h"
#include "corpus/pipeline.h"
#include "support/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Reads a JSON document; an unreadable or malformed file is an error.
bool readJson(const std::string& path, json::Value& out) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  fsdep::Result<json::Value> parsed = json::parse(text.str());
  if (!in || !parsed.ok() || !parsed.value().isObject()) {
    std::fprintf(stderr, "perfbench: cannot read '%s'\n", path.c_str());
    return false;
  }
  out = std::move(parsed).take();
  return true;
}

/// The metrics a run reports, with their units: BENCHMARK.json's
/// "per_layer" list for a traced run, its "end_to_end" list otherwise.
std::vector<std::pair<std::string, std::string>> readCatalog(const json::Value& benchmark,
                                                             bool traced) {
  std::vector<std::pair<std::string, std::string>> catalog;
  const json::Value* list = benchmark.asObject().find(traced ? "per_layer" : "end_to_end");
  if (list == nullptr || !list->isArray()) return catalog;
  for (const json::Value& entry : list->asArray()) {
    catalog.emplace_back(entry.asObject().find("name")->asString(),
                         entry.asObject().find("unit")->asString());
  }
  return catalog;
}

bool parseArgs(int argc, char** argv, Args& args, bool& make_goldens) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--make-goldens") {
      make_goldens = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--goldens") {
      args.goldens_path = value;
    } else if (flag == "--catalog") {
      args.catalog_path = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return true;
}

std::string formatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

const json::Object& Goldens::entryFor(const std::string& section,
                                      std::uint64_t workload_seed) const {
  const json::Array& entries = doc.asObject().find(section)->asObject().find("seeds")->asArray();
  for (const json::Value& entry : entries) {
    if (static_cast<std::uint64_t>(entry.asObject().find("seed")->asInt()) == workload_seed) {
      return entry.asObject();
    }
  }
  return entries[workload_seed % entries.size()].asObject();
}

std::vector<fsdep::model::Dependency> checkTable5(RunResult& result, const Goldens& goldens) {
  trace::Span span("corpus.table5_check");
  fsdep::corpus::ComponentCache::global().clear();
  const fsdep::corpus::Table5Result table5 =
      fsdep::corpus::runTable5({}, nullptr, {.jobs = kJobs, .use_disk_cache = false});
  const json::Object& golden = goldens.doc.asObject().find("table5")->asObject();
  const int deps = table5.unique_score.totalExtracted();
  const int fps = table5.unique_score.totalFalsePositives();
  result.check(deps == golden.find("deps")->asInt() &&
                   fps == golden.find("false_positives")->asInt(),
               "Table 5: " + std::to_string(deps) + " deps / " + std::to_string(fps) +
                   " FP vs 64 / 5");
  return table5.unique_deps;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool make_goldens = false;
  if (!parseArgs(argc, argv, args, make_goldens)) {
    std::fprintf(stderr, "perfbench: bad arguments\n");
    return 2;
  }
  fsdep::ThreadPool::setGlobalJobs(kJobs);
  // serve-mixed hosts the daemon in this process: a client connection
  // closed after a timed-out request must surface as a failed request,
  // not as SIGPIPE killing the daemon and the report with it.
  std::signal(SIGPIPE, SIG_IGN);

  if (make_goldens) {
    json::Object doc;
    json::Object table5;
    table5["deps"] = 64;
    table5["false_positives"] = 5;
    doc["table5"] = json::Value(std::move(table5));
    doc["kernel_extract"] = makeKernelGoldens({42, 7, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15});
    doc["fault_campaign"] = makeCampaignGoldens({42, 7, 1, 2, 3, 4, 5, 6});
    std::fputs(json::writePretty(json::Value(std::move(doc))).c_str(), stdout);
    return 0;
  }

  Goldens goldens;
  json::Value benchmark;
  if (!readJson(args.goldens_path, goldens.doc) || !readJson(args.catalog_path, benchmark)) {
    return 2;
  }
  const auto catalog = readCatalog(benchmark, args.trace);
  if (catalog.empty()) {
    std::fprintf(stderr, "perfbench: no metric catalog in '%s'\n", args.catalog_path.c_str());
    return 2;
  }

  RunResult result;
  if (args.workload == "kernel-extract") {
    result = runKernelExtract(args, goldens);
  } else if (args.workload == "serve-mixed") {
    result = runServeMixed(args, goldens);
  } else if (args.workload == "fault-campaign") {
    result = runFaultCampaign(args, goldens);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Report exactly the catalog for this mode. A workload measures only
  // the layers it runs; the others read 0 (perfbench/README.md lists which
  // workload measures which layer). A name outside the catalog is a
  // benchmark bug, not a result.
  std::map<std::string, double> by_name;
  for (const Metric& m : result.metrics) {
    const bool known = std::any_of(catalog.begin(), catalog.end(),
                                   [&](const auto& entry) { return entry.first == m.name; });
    if (!known) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n", m.name.c_str());
      return 3;
    }
    by_name[m.name] = m.value;
  }
  std::string metrics;
  for (const auto& [name, unit] : catalog) {
    const auto it = by_name.find(name);
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(name).append("\": {\"value\": ");
    metrics.append(formatNumber(it == by_name.end() ? 0.0 : it->second));
    metrics.append(", \"unit\": \"").append(unit).append("\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
