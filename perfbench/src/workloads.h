// The three workloads. Each one sets itself up several times (setup_s is
// the median), measures for Args::seconds, checks every output against a
// committed or independently computed reference, and returns its
// end-to-end metrics (untraced run) or its per-layer metrics (traced
// run). See perfbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "json/json.h"
#include "model/dependency.h"

namespace perfbench {

namespace json = fsdep::json;

/// Committed reference outputs (perfbench/goldens.json). They were
/// written once by `--make-goldens` and are only read afterwards.
struct Goldens {
  json::Value doc;

  /// The golden entry of `section` ("kernel_extract", "fault_campaign")
  /// for the corpus or campaign seed the workload seed maps to: a
  /// workload seed that has its own entry uses it, any other seed maps
  /// onto the committed list by remainder, so every run is checked.
  [[nodiscard]] const json::Object& entryFor(const std::string& section,
                                             std::uint64_t workload_seed) const;
};

/// Checks Table 5 (64 dependencies, 5 false positives, the paper's
/// numbers) on a cold ComponentCache; every workload does this during
/// set-up. Returns the unique dependencies (the campaign's sampler input).
std::vector<fsdep::model::Dependency> checkTable5(RunResult& result, const Goldens& goldens);

RunResult runKernelExtract(const Args& args, const Goldens& goldens);
RunResult runServeMixed(const Args& args, const Goldens& goldens);
RunResult runFaultCampaign(const Args& args, const Goldens& goldens);

/// Golden writers: recompute the committed references.
json::Value makeKernelGoldens(const std::vector<std::uint64_t>& seeds);
json::Value makeCampaignGoldens(const std::vector<std::uint64_t>& seeds);

/// Set-ups per run; setup_s is their median. Set-up takes milliseconds,
/// so one slow set-up must not decide the figure.
inline constexpr int kSetupReps = 21;

/// Worker count of the parallel workloads (fixed, <= nproc of the
/// reference machine).
inline constexpr std::size_t kJobs = 4;

}  // namespace perfbench
