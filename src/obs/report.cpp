#include "obs/report.h"

#include <sys/resource.h>

#include <cstdio>

#include "obs/jsonw.h"
#include "obs/metrics.h"

namespace fsdep::obs {

namespace {

/// The process's peak resident set so far, in KiB (Linux reports
/// ru_maxrss in KiB).
std::uint64_t peakRssKb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

}  // namespace

RunReport& RunReport::global() {
  static RunReport report;
  return report;
}

void RunReport::setCommand(std::string command, std::vector<std::string> args) {
  command_ = std::move(command);
  args_ = std::move(args);
}

void RunReport::setJobs(std::uint64_t jobs) { jobs_ = jobs; }
void RunReport::setWallMillis(double wall_ms) { wall_ms_ = wall_ms; }
void RunReport::setExitCode(int code) { exit_code_ = code; }
void RunReport::setTraceDropped(std::uint64_t dropped) { trace_dropped_ = dropped; }

void RunReport::note(const std::string& key, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(facts_mu_);
  for (Fact& fact : facts_) {
    if (fact.key == key) {
      fact.is_string = false;
      fact.number = value;
      return;
    }
  }
  facts_.push_back(Fact{key, /*is_string=*/false, value, {}});
}

void RunReport::note(const std::string& key, const std::string& value) {
  const std::lock_guard<std::mutex> lock(facts_mu_);
  for (Fact& fact : facts_) {
    if (fact.key == key) {
      fact.is_string = true;
      fact.text = value;
      return;
    }
  }
  facts_.push_back(Fact{key, /*is_string=*/true, 0, value});
}

std::string RunReport::renderJson() const {
  JsonWriter w;
  w.beginObject();
  w.field("schema_version", static_cast<std::int64_t>(kReportSchemaVersion));
  w.field("tool", "fsdep");
  w.field("version", kFsdepVersion);
  w.field("command", std::string_view(command_));
  w.key("args");
  w.beginArray();
  for (const std::string& a : args_) w.value(std::string_view(a));
  w.endArray();
  w.field("jobs", jobs_);
  w.field("wall_ms", wall_ms_);
  w.field("peak_rss_kb", peakRssKb());
  w.field("exit_code", static_cast<std::int64_t>(exit_code_));
  w.field("trace_dropped_events", trace_dropped_);
  w.key("facts");
  w.beginObject();
  {
    const std::lock_guard<std::mutex> lock(facts_mu_);
    for (const Fact& fact : facts_) {
      if (fact.is_string) {
        w.field(fact.key, std::string_view(fact.text));
      } else {
        w.field(fact.key, fact.number);
      }
    }
  }
  w.endObject();
  // The registry render ends with a newline; strip it before splicing.
  std::string metrics = Registry::global().renderJson();
  while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
  w.key("metrics");
  w.rawValue(metrics);
  w.endObject();
  std::string text = w.take();
  text += '\n';
  return text;
}

bool RunReport::writeFile(const std::string& path) const {
  const std::string text = renderJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void RunReport::clear() {
  command_.clear();
  args_.clear();
  jobs_ = 0;
  wall_ms_ = 0;
  exit_code_ = 0;
  trace_dropped_ = 0;
  const std::lock_guard<std::mutex> lock(facts_mu_);
  facts_.clear();
}

}  // namespace fsdep::obs
