// fsdep — command line front end: applies the global flags, runs one
// command from the command table (tools/commands.h) and writes the
// observability files.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "corpus/pipeline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "support/thread_pool.h"
#include "tools/commands.h"

namespace {

using namespace fsdep;

/// Per-invocation observability session. start() flips tracing on when
/// requested; finish() records wall time / exit code and writes the
/// trace, profile, metrics and report files. Output files are written
/// even when the command fails — a failing run is exactly the one worth
/// studying.
class ObsSession {
 public:
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;
  /// Profile destination; "" with profile_enabled means stdout (the
  /// `fsdep profile` subcommand).
  std::string profile_path;
  bool profile_enabled = false;
  obs::ProfileFormat profile_format = obs::ProfileFormat::Text;

  void start(const std::string& command, const std::vector<std::string>& args) {
    command_ = command;
    start_ = std::chrono::steady_clock::now();
    obs::RunReport& report = obs::RunReport::global();
    report.setCommand(command, args);
    report.setJobs(ThreadPool::globalJobs());
    if (!trace_path.empty() || profile_enabled) obs::Trace::start();
    // The root span makes the whole run attributable: everything the
    // command does nests under cli/<command>, so profile coverage is
    // the command span's share of measured wall time.
    if (profile_enabled) root_span_.emplace("cli", command_.c_str());
  }

  void finish(int exit_code) {
    root_span_.reset();  // close the root before measuring wall time
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
            .count();
    obs::RunReport& report = obs::RunReport::global();
    report.setWallMillis(wall_ms);
    report.setExitCode(exit_code);
    FSDEP_LOG_INFO("cli", "done in %.1f ms (exit %d)", wall_ms, exit_code);
    if (!trace_path.empty() || profile_enabled) {
      // One collection serves both outputs; no JSON round trip for the
      // profile.
      const std::vector<obs::TraceEvent> events = obs::Trace::stopEvents();
      report.setTraceDropped(obs::Trace::droppedEvents());
      if (!trace_path.empty() && !writeText(trace_path, obs::Trace::render(events))) {
        FSDEP_LOG_ERROR("cli", "cannot write trace file %s", trace_path.c_str());
      }
      if (profile_enabled) {
        const obs::Profile profile = obs::buildProfile(events, wall_ms, command_);
        const std::string text = obs::renderProfile(profile, profile_format);
        if (profile_path.empty()) {
          std::fputs(text.c_str(), stdout);
        } else if (!writeText(profile_path, text)) {
          FSDEP_LOG_ERROR("cli", "cannot write profile file %s", profile_path.c_str());
        }
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        out << obs::Registry::global().renderJson();
      } else {
        FSDEP_LOG_ERROR("cli", "cannot write metrics file %s", metrics_path.c_str());
      }
    }
    if (!report_path.empty() && !report.writeFile(report_path)) {
      FSDEP_LOG_ERROR("cli", "cannot write report file %s", report_path.c_str());
    }
  }

 private:
  static bool writeText(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    if (!out) return false;
    out << text;
    return static_cast<bool>(out);
  }

  std::string command_;
  /// Wraps the whole command; its name points into command_, which
  /// outlives it.
  std::optional<obs::Span> root_span_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

}  // namespace

int main(int argc, char** argv) {
  const auto usageError = [](const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    return 2;
  };
  // The global flags may stand anywhere; what they leave over is the
  // command name followed by its arguments.
  const Result<tools::Request> parsed_globals = tools::parseArgv(
      tools::globalOptions(), std::vector<std::string>(argv + std::min(argc, 1), argv + argc));
  if (!parsed_globals.ok()) return usageError(parsed_globals.error().message);
  const tools::Request& globals = parsed_globals.value();

  // --jobs overrides the FSDEP_JOBS environment variable and --log
  // overrides FSDEP_LOG; --stats prints pipeline perf counters to stderr
  // on exit.
  struct StatsPrinter {
    bool enabled = false;
    ~StatsPrinter() {
      if (enabled) std::fputs(corpus::pipelineStatsSnapshot().format().c_str(), stderr);
    }
  } stats_printer{globals.has("stats")};
  if (globals.has("jobs")) {
    if (globals.count("jobs", 0) == 0) return usageError("--jobs needs a positive integer");
    ThreadPool::setGlobalJobs(static_cast<std::size_t>(globals.count("jobs", 0)));
  }
  if (globals.has("log")) {
    const std::string level = globals.string("log");
    const obs::LogLevel parsed = obs::parseLogLevel(level.c_str(), obs::LogLevel::Off);
    if (parsed == obs::LogLevel::Off && level != "off") {
      return usageError("--log wants debug|info|warn|error|off, got '" + level + "'");
    }
    obs::setLogLevel(parsed);
  }
  ObsSession obs;
  obs.trace_path = globals.string("trace");
  obs.metrics_path = globals.string("metrics");
  obs.report_path = globals.string("report");
  obs.profile_enabled = globals.has("profile");
  obs.profile_path = globals.string("profile");
  std::string profile_format = globals.string("profile-format", "text");

  // Cache wiring: --no-cache beats --cache-dir/FSDEP_CACHE_DIR and also
  // turns off in-process component reuse; otherwise a configured
  // directory enables the persistent result cache for every command.
  const char* env_cache_dir = std::getenv("FSDEP_CACHE_DIR");
  std::string cache_dir = globals.string("cache-dir", env_cache_dir != nullptr ? env_cache_dir : "");
  if (globals.has("no-cache")) {
    corpus::ComponentCache::global().setEnabled(false);
    cache_dir.clear();
  }
  if (!cache_dir.empty()) {
    corpus::DiskCache::global().configure({cache_dir});
    FSDEP_LOG_INFO("cli", "disk cache at %s", cache_dir.c_str());
  }

  // `fsdep profile [--format F] [--out FILE] [<command> [args...]]` runs
  // the wrapped command (default table5) with profiling on; without
  // --out, the attribution goes to stdout after the command's output.
  std::vector<std::string> args = globals.list("args");
  if (!args.empty() && args.front().rfind("--", 0) == 0) {
    return usageError("fsdep: unknown flag '" + args.front() + "'");
  }
  std::string name = args.empty() ? "" : args.front();
  if (!args.empty()) args.erase(args.begin());
  if (name == "profile") {
    const Result<tools::Request> profile = tools::parseArgv(*tools::findCommand(name), args);
    if (!profile.ok()) return usageError(profile.error().message);
    obs.profile_enabled = true;
    obs.profile_path = profile.value().string("out");
    profile_format = profile.value().string("format", profile_format);
    args = profile.value().list("command");
    name = "table5";
    if (!args.empty() && args.front().rfind("--", 0) != 0) {
      name = args.front();
      args.erase(args.begin());
    }
  }
  if (!obs::parseProfileFormat(profile_format, obs.profile_format)) {
    return usageError("profile format wants text|json|folded, got '" + profile_format + "'");
  }

  // A mistyped command is named on stderr; the usage text is `fsdep help`.
  const tools::Command* command = tools::findCommand(name);
  if (command == nullptr || command->run == nullptr) {
    return usageError(name.empty() ? "fsdep: no command given (see 'fsdep help')"
                                   : "fsdep: unknown command '" + name + "'");
  }
  const Result<tools::Request> request = tools::parseArgv(*command, args);
  if (!request.ok()) return usageError(request.error().message);

  obs.start(name, args);
  int code = 0;
  try {
    const tools::CommandResult result = command->run(request.value());
    std::fputs(result.out.c_str(), stdout);
    if (!result.error.empty()) {
      std::fputs(result.error.c_str(), stderr);
      if (result.error.back() != '\n') std::fputc('\n', stderr);
    }
    code = result.exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsdep: %s\n", e.what());
    FSDEP_LOG_ERROR("cli", "%s: %s", name.c_str(), e.what());
    code = 1;
  }
  obs.finish(code);
  return code;
}
