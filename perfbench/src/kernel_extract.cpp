// kernel-extract: the analyst's path at kernel scale. The amplified
// corpus (factor 100: 600 components) is analyzed inter-procedurally on
// kJobs workers. A cold pass clears the ComponentCache first (no disk
// cache) and runs frontend -> taint -> extract -> render; a warm pass
// re-analyzes on the warm cache. Both are the path `fsdep amplify`
// runs, and every pass is checked against the committed golden
// dependency count and digest.
//
// The traced run adds a layer pass that calls the frontend pieces
// (Preprocessor::tokenize, Parser::parseTranslationUnit, Sema::run),
// ir::compile (through an IrCache) and the Analyzer directly, with a
// span around each, plus a probe that times Cfg::build on its own.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "cfg/cfg.h"
#include "corpus/amplify.h"
#include "corpus/component_cache.h"
#include "corpus/corpus.h"
#include "corpus/pipeline.h"
#include "extract/extractor.h"
#include "lex/preprocessor.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "sema/sema.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "support/thread_pool.h"
#include "taint/analyzer.h"
#include "taint/ir.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace corpus = fsdep::corpus;
namespace extract = fsdep::extract;
namespace model = fsdep::model;
namespace taint = fsdep::taint;
using fsdep::ThreadPool;

namespace {

constexpr std::size_t kFactor = 100;

taint::AnalysisOptions interOptions() {
  taint::AnalysisOptions options;
  options.inter_procedural = true;
  return options;
}

/// Amplified component names carry the generation that installed them
/// ("amp3_0017"); the golden is written against "amp_0017".
std::string withoutGeneration(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    if (text.compare(i, 3, "amp") == 0) {
      std::size_t j = i + 3;
      while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
      if (j > i + 3 && j < text.size() && text[j] == '_') {
        out += "amp";
        i = j;
        continue;
      }
    }
    out.push_back(text[i++]);
  }
  return out;
}

/// Digest of the sorted dependency set: each dependency's full JSON
/// serialization, sorted, newline-joined, FNV-1a.
std::uint64_t depsDigest(const std::vector<model::Dependency>& deps) {
  std::vector<std::string> lines;
  lines.reserve(deps.size());
  for (const model::Dependency& dep : deps) {
    lines.push_back(withoutGeneration(json::writeCompact(model::toJson(dep))));
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t h = fnv1a("");
  for (const std::string& line : lines) h = fnv1a(line + "\n", h);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct PassResult {
  double ms = 0.0;
  std::size_t deps = 0;
  std::uint64_t digest = 0;
};

/// Extract + render (the CLI's --json rendering) over analyzed runs.
std::vector<model::Dependency> extractAndRender(const std::vector<extract::ComponentRun>& runs,
                                                std::string& rendered) {
  std::vector<model::Dependency> deps;
  {
    trace::Span span("extract.extract");
    deps = extract::extractDependencies(runs, corpus::amplifiedExtractOptions());
  }
  {
    trace::Span span("extract.render");
    rendered = json::writePretty(model::toJson(deps));
  }
  return deps;
}

/// One pipeline pass (cold: ComponentCache cleared first).
PassResult pipelinePass(const std::vector<std::string>& names, bool cold) {
  const taint::AnalysisOptions options = interOptions();
  std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components(names.size());
  std::string rendered;
  PassResult out;
  // Dropping the previous pass's entries frees their ASTs; a fresh
  // process does not pay that, so it happens before the clock starts.
  if (cold) corpus::ComponentCache::global().clear();
  const auto start = Clock::now();
  std::vector<model::Dependency> deps;
  {
    trace::Span pass(cold ? "kernel.cold_pass" : "kernel.warm_pass");
    {
      trace::Span stage("corpus.pipeline_stage");
      const std::uint64_t parent = stage.id();
      ThreadPool::parallelFor(names.size(), kJobs, [&](std::size_t i) {
        trace::Span task("corpus.component", parent);
        std::unique_ptr<corpus::AnalyzedComponent> component;
        {
          trace::Span span("corpus.component_setup");
          component = std::make_unique<corpus::AnalyzedComponent>(names[i], options);
        }
        {
          trace::Span span("corpus.component_analyze");
          component->analyze({});
        }
        components[i] = std::move(component);
      });
    }
    std::vector<extract::ComponentRun> runs;
    runs.reserve(components.size());
    for (const auto& component : components) runs.push_back(component->asRun());
    deps = extractAndRender(runs, rendered);
  }
  out.ms = msBetween(start, Clock::now());
  out.deps = deps.size();
  out.digest = depsDigest(deps);
  return out;
}

/// One component taken through every layer by hand.
struct LayeredComponent {
  fsdep::SourceManager sm;
  fsdep::DiagnosticEngine diags;
  std::unique_ptr<fsdep::ast::TranslationUnit> tu;
  std::unique_ptr<fsdep::sema::Sema> sema;
  std::shared_ptr<taint::ir::IrCache> ir = std::make_shared<taint::ir::IrCache>();
  std::unique_ptr<taint::Analyzer> analyzer;
  std::size_t tokens = 0;
  std::size_t functions = 0;
  std::size_t ir_instrs = 0;
  double analyze_ms = 0.0;
  bool ok = true;
};

struct LayerPass {
  PassResult pass;
  std::size_t tokens = 0;
  std::size_t functions = 0;
  std::size_t ir_instrs = 0;
  double analyze_max_ms = 0.0;
  double pool_wait_ms = 0.0;  ///< mean per component: dispatch -> task start
  double pool_busy_ratio = 0.0;
  double cfg_build_ms = 0.0;
  bool ok = true;
};

/// The traced layer pass: the same cold work as pipelinePass, split by
/// layer. Ends with the Cfg::build probe (outside the pass span).
LayerPass layerPass(const std::vector<std::string>& names) {
  const taint::AnalysisOptions options = interOptions();
  std::vector<std::unique_ptr<LayeredComponent>> components(names.size());
  std::vector<std::int64_t> task_start(names.size(), 0);
  std::vector<std::int64_t> task_ns(names.size(), 0);
  std::string rendered;
  std::vector<model::Dependency> deps;
  LayerPass out;
  const auto start = Clock::now();
  {
    trace::Span pass("kernel.layer_pass");
    std::int64_t stage_ns = 0;
    std::int64_t dispatch_ns = 0;
    {
      trace::Span stage("corpus.layer_stage");
      const std::uint64_t parent = stage.id();
      dispatch_ns = trace::nowNs();
      ThreadPool::parallelFor(names.size(), kJobs, [&](std::size_t i) {
        task_start[i] = trace::nowNs();
        trace::Span task("corpus.component", parent);
        auto c = std::make_unique<LayeredComponent>();
        const std::string& name = names[i];
        {
          trace::Span frontend("corpus.frontend");
          const fsdep::FileId file =
              c->sm.addBuffer(name + ".c", std::string(corpus::componentSource(name)));
          std::vector<fsdep::lex::Token> tokens;
          {
            trace::Span span("lex.tokenize");
            fsdep::lex::Preprocessor pp(c->sm, c->diags, [](std::string_view header) {
              return corpus::headerSource(header);
            });
            tokens = pp.tokenize(file);
          }
          c->tokens = tokens.size();
          {
            trace::Span span("ast.parse");
            fsdep::ast::Parser parser(std::move(tokens), c->diags);
            c->tu = parser.parseTranslationUnit(name + ".c");
          }
          {
            trace::Span span("sema.resolve");
            c->sema = std::make_unique<fsdep::sema::Sema>(*c->tu, c->diags);
            c->ok = c->sema->run();
          }
          c->ok = c->ok && !c->diags.hasErrors();
        }
        for (const fsdep::ast::FunctionDecl* fn : c->tu->functions()) {
          if (fn == nullptr || !fn->isDefinition()) continue;
          trace::Span span("taint.ir_compile");
          c->ir_instrs += c->ir->getOrCompile(*fn)->program.instrs.size();
          ++c->functions;
        }
        {
          trace::Span span("taint.analyze");
          const auto analyze_start = Clock::now();
          c->analyzer = std::make_unique<taint::Analyzer>(*c->tu, *c->sema, options);
          c->analyzer->setIrCache(c->ir);
          for (const taint::Seed& seed : corpus::componentSeeds(name)) c->analyzer->addSeed(seed);
          c->analyzer->run({});
          c->analyze_ms = msBetween(analyze_start, Clock::now());
        }
        components[i] = std::move(c);
        task_ns[i] = trace::nowNs() - task_start[i];
      });
      stage_ns = trace::nowNs() - dispatch_ns;
    }
    std::vector<extract::ComponentRun> runs;
    runs.reserve(components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
      extract::ComponentRun run;
      run.component = names[i];
      run.is_kernel = corpus::isKernelComponent(names[i]);
      run.analyzer = components[i]->analyzer.get();
      run.sema = components[i]->sema.get();
      runs.push_back(run);
    }
    deps = extractAndRender(runs, rendered);

    double wait_ns = 0.0;
    double busy_ns = 0.0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      wait_ns += static_cast<double>(task_start[i] - dispatch_ns);
      busy_ns += static_cast<double>(task_ns[i]);
    }
    out.pool_wait_ms = wait_ns / 1e6 / static_cast<double>(std::max<std::size_t>(1, names.size()));
    out.pool_busy_ratio =
        stage_ns > 0 ? busy_ns / (static_cast<double>(kJobs) * static_cast<double>(stage_ns)) : 0.0;
  }
  out.pass.ms = msBetween(start, Clock::now());
  out.pass.deps = deps.size();
  out.pass.digest = depsDigest(deps);
  for (const auto& c : components) {
    out.tokens += c->tokens;
    out.functions += c->functions;
    out.ir_instrs += c->ir_instrs;
    out.analyze_max_ms = std::max(out.analyze_max_ms, c->analyze_ms);
    out.ok = out.ok && c->ok;
  }

  // Cfg::build alone: ir::compile builds its CFG internally, so the CFG
  // layer is timed by a probe over the same functions after the pass.
  std::vector<const fsdep::ast::FunctionDecl*> definitions;
  for (const auto& c : components) {
    for (const fsdep::ast::FunctionDecl* fn : c->tu->functions()) {
      if (fn != nullptr && fn->isDefinition()) definitions.push_back(fn);
    }
  }
  trace::Span probe("kernel.cfg_probe");
  const auto probe_start = Clock::now();
  for (const fsdep::ast::FunctionDecl* fn : definitions) {
    trace::Span span("cfg.build");
    (void)fsdep::cfg::Cfg::build(*fn);
  }
  out.cfg_build_ms = msBetween(probe_start, Clock::now());
  return out;
}

/// Set-up: (re)generate the amplified corpus and check Table 5.
double setupOnce(std::uint64_t corpus_seed, std::vector<std::string>& names, RunResult& result,
                 const Goldens& goldens, double& generate_ms) {
  trace::Span span("kernel.setup");
  const auto start = Clock::now();
  {
    trace::Span generate("corpus.generate");
    corpus::clearAmplifiedCorpus();
    names = corpus::amplifyCorpus({.factor = kFactor, .seed = corpus_seed});
  }
  generate_ms = msBetween(start, Clock::now());
  checkTable5(result, goldens);
  return msBetween(start, Clock::now()) / 1e3;
}

void checkPass(RunResult& result, const PassResult& pass, const json::Object& golden,
               const char* what) {
  const bool ok = pass.deps == static_cast<std::size_t>(golden.find("deps")->asInt()) &&
                  hex(pass.digest) == golden.find("digest")->asString();
  result.check(ok, std::string(what) + ": " + std::to_string(pass.deps) + " deps, digest " +
                       hex(pass.digest) + " vs golden " +
                       std::to_string(golden.find("deps")->asInt()) + " / " +
                       golden.find("digest")->asString());
}

}  // namespace

RunResult runKernelExtract(const Args& args, const Goldens& goldens) {
  RunResult result;
  const json::Object& golden = goldens.entryFor("kernel_extract", args.seed);
  const auto corpus_seed = static_cast<std::uint64_t>(golden.find("seed")->asInt());
  std::vector<std::string> names;

  const int setup_reps = kSetupReps;
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  warmUp([&] {
    double gen = 0.0;
    (void)setupOnce(corpus_seed, names, result, goldens, gen);
  });
  for (int i = 0; i < setup_reps; ++i) {
    double gen = 0.0;
    setup_s.push_back(setupOnce(corpus_seed, names, result, goldens, gen));
    generate_ms.push_back(gen);
  }
  result.check(names.size() == kFactor * 6, "kernel-extract: amplified component count");

  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  if (!args.trace) {
    while (cold_ms.empty() || Clock::now() < deadline) {
      const PassResult cold = pipelinePass(names, true);
      checkPass(result, cold, golden, "kernel-extract cold pass");
      cold_ms.push_back(cold.ms);
      const PassResult warm = pipelinePass(names, false);
      checkPass(result, warm, golden, "kernel-extract warm pass");
      warm_ms.push_back(warm.ms);
    }
    const double cold = median(cold_ms);
    result.add("main_ms", cold);
    result.add("second_ms", median(warm_ms));
    result.add("rate_per_s", static_cast<double>(names.size()) / (cold / 1e3));
    result.add("peak_rss_mb", peakRssMb());
    result.add("setup_s", median(setup_s));
    return result;
  }

  // Traced run: untraced and traced pipeline passes alternate (their
  // difference is the tracing overhead), followed by the layer pass.
  std::vector<double> traced_setup_s;
  trace::setEnabled(true);
  for (int i = 0; i < setup_reps; ++i) {
    double gen = 0.0;
    traced_setup_s.push_back(setupOnce(corpus_seed, names, result, goldens, gen));
  }
  trace::setEnabled(false);
  std::vector<trace::SpanRecord> all_spans = trace::drain();

  std::vector<double> traced_cold_ms;
  std::vector<double> traced_warm_ms;
  std::vector<std::map<std::string, double>> layer_values;
  std::map<std::string, double> counters;
  double span_bytes = 0.0;
  while (layer_values.empty() || Clock::now() < deadline) {
    const PassResult cold = pipelinePass(names, true);
    checkPass(result, cold, golden, "kernel-extract cold pass");
    cold_ms.push_back(cold.ms);
    const PassResult warm = pipelinePass(names, false);
    checkPass(result, warm, golden, "kernel-extract warm pass");
    warm_ms.push_back(warm.ms);

    trace::setEnabled(true);
    const PassResult traced_cold = pipelinePass(names, true);
    checkPass(result, traced_cold, golden, "kernel-extract traced cold pass");
    traced_cold_ms.push_back(traced_cold.ms);
    fsdep::obs::Registry& registry = fsdep::obs::Registry::global();
    registry.reset("taint.");
    registry.reset("pipeline.");
    const PassResult traced_warm = pipelinePass(names, false);
    checkPass(result, traced_warm, golden, "kernel-extract traced warm pass");
    traced_warm_ms.push_back(traced_warm.ms);
    // The program's own counters of the warm re-analysis pass.
    counters["taint.ir_visits"] = static_cast<double>(registry.counterSum("taint.ir_visits"));
    counters["taint.stmt_visits"] = static_cast<double>(registry.counterSum("taint.stmt_visits"));
    counters["taint.concrete_skips"] =
        static_cast<double>(registry.counterSum("taint.concrete_skips"));
    const double merges = static_cast<double>(registry.counterSum("pipeline.merge_calls"));
    counters["taint.merge_calls"] = merges;
    counters["taint.merge_grew_ratio"] =
        merges > 0 ? static_cast<double>(registry.counterSum("pipeline.merge_grew")) / merges : 0.0;
    double arena = 0.0;
    for (const std::string& name : names) {
      arena += static_cast<double>(registry.gaugeValue("taint.arena_bytes", {{"component", name}}));
    }
    counters["taint.arena_bytes"] = arena;

    const LayerPass layered = layerPass(names);
    trace::setEnabled(false);
    checkPass(result, layered.pass, golden, "kernel-extract layer pass");
    result.check(layered.ok, "kernel-extract layer pass: frontend diagnostics");

    std::vector<trace::SpanRecord> spans = trace::drain();
    span_bytes = std::max(span_bytes, static_cast<double>(spans.size() * sizeof(trace::SpanRecord)));
    const auto layers = trace::aggregate(spans);
    const auto busy = [&layers](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.busy_ms;
    };
    std::map<std::string, double> v;
    v["corpus.frontend_ms"] = busy("corpus.frontend");
    v["lex.tokenize_ms"] = busy("lex.tokenize");
    v["ast.parse_ms"] = busy("ast.parse");
    v["sema.resolve_ms"] = busy("sema.resolve");
    v["taint.ir_compile_ms"] = busy("taint.ir_compile");
    v["taint.analyze_ms"] = busy("taint.analyze");
    v["taint.analyze_max_ms"] = layered.analyze_max_ms;
    v["cfg.build_ms"] = layered.cfg_build_ms;
    // extract/render spans exist in all three passes; the layer pass's
    // are the last two recorded.
    double extract_ms = 0.0;
    double render_ms = 0.0;
    for (const trace::SpanRecord& s : spans) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (std::string_view(s.name) == "extract.extract") extract_ms = ms;
      if (std::string_view(s.name) == "extract.render") render_ms = ms;
    }
    v["extract.extract_ms"] = extract_ms;
    v["extract.render_ms"] = render_ms;
    v["support.pool_wait_ms"] = layered.pool_wait_ms;
    v["support.pool_busy_ratio"] = layered.pool_busy_ratio;
    v["lex.tokens"] = static_cast<double>(layered.tokens);
    v["ast.functions"] = static_cast<double>(layered.functions);
    v["taint.ir_instrs"] = static_cast<double>(layered.ir_instrs);
    v["extract.deps"] = static_cast<double>(layered.pass.deps);
    layer_values.push_back(std::move(v));
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }

  for (const auto& [name, unused] : layer_values.front()) {
    std::vector<double> series;
    for (const auto& v : layer_values) series.push_back(v.at(name));
    result.add(name, median(series));
  }
  for (const auto& [name, value] : counters) result.add(name, value);
  result.add("corpus.generate_ms", median(generate_ms));
  const auto all_layers = trace::aggregate(all_spans);
  result.add("trace.coverage_ratio",
             std::min({trace::coverage(all_spans, "kernel.cold_pass"),
                       trace::coverage(all_spans, "kernel.warm_pass"),
                       trace::coverage(all_spans, "kernel.layer_pass")}));
  result.add("trace.unexplained_max_ratio", trace::maxUnexplainedShare(all_layers));
  const double cold = median(cold_ms);
  const double traced_cold = median(traced_cold_ms);
  result.add("trace.overhead_main_ms", traced_cold - cold);
  result.add("trace.overhead_second_ms", median(traced_warm_ms) - median(warm_ms));
  result.add("trace.overhead_rate_per_s",
             static_cast<double>(names.size()) * (1e3 / traced_cold - 1e3 / cold));
  result.add("trace.overhead_peak_rss_mb", span_bytes / (1024.0 * 1024.0));
  result.add("trace.overhead_setup_s", median(traced_setup_s) - median(setup_s));
  trace::printTable("kernel-extract layers (all traced passes)", all_layers);
  if (!args.trace_out.empty()) trace::writeChromeTrace(args.trace_out, all_spans);
  return result;
}

json::Value makeKernelGoldens(const std::vector<std::uint64_t>& seeds) {
  json::Array entries;
  for (const std::uint64_t seed : seeds) {
    corpus::clearAmplifiedCorpus();
    const std::vector<std::string> names =
        corpus::amplifyCorpus({.factor = kFactor, .seed = seed});
    const PassResult pass = pipelinePass(names, true);
    json::Object entry;
    entry["seed"] = seed;
    entry["deps"] = static_cast<std::uint64_t>(pass.deps);
    entry["digest"] = hex(pass.digest);
    entries.push_back(json::Value(std::move(entry)));
    std::fprintf(stderr, "kernel golden: seed %llu -> %zu deps\n",
                 static_cast<unsigned long long>(seed), pass.deps);
  }
  json::Object section;
  section["factor"] = static_cast<std::uint64_t>(kFactor);
  section["seeds"] = json::Value(std::move(entries));
  return json::Value(std::move(section));
}

}  // namespace perfbench
