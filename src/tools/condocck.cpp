#include "tools/condocck.h"

#include <map>
#include <set>

#include "corpus/pipeline.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace fsdep::tools {

using model::Dependency;

const char* docIssueKindName(DocIssueKind kind) {
  switch (kind) {
    case DocIssueKind::Undocumented: return "undocumented";
    case DocIssueKind::Inaccurate: return "inaccurate";
    case DocIssueKind::Stale: return "stale";
  }
  return "?";
}

int DocCheckReport::countOf(DocIssueKind kind) const {
  int n = 0;
  for (const DocIssue& issue : issues) n += issue.kind == kind ? 1 : 0;
  return n;
}

std::string DocCheckReport::summary() const {
  return std::to_string(issues.size()) + " documentation issue(s): " +
         std::to_string(countOf(DocIssueKind::Undocumented)) + " undocumented, " +
         std::to_string(countOf(DocIssueKind::Inaccurate)) + " inaccurate, " +
         std::to_string(countOf(DocIssueKind::Stale)) + " stale";
}

namespace {

/// Structural match key: kind level + the parameter pair, but NOT the
/// operator or bounds — a claim about the right parameters with the wrong
/// relation should surface as Inaccurate, not as Undocumented + Stale.
std::string matchKey(const Dependency& dep) {
  std::string a = dep.param;
  std::string b = dep.other_param;
  if (!b.empty() && b < a) std::swap(a, b);
  return std::string(model::depKindName(dep.kind)) + "|" + a + "|" + b;
}

bool sameConstraint(const Dependency& code, const Dependency& claim) {
  if (code.op != claim.op) return false;
  if (code.low != claim.low) return false;
  if (code.high != claim.high) return false;
  // For directed relations the orientation must match too.
  if (code.op == model::ConstraintOp::Requires && code.param != claim.param) return false;
  return true;
}

}  // namespace

DocCheckReport checkDocumentation(const std::vector<Dependency>& code_deps,
                                  const std::vector<corpus::ManualEntry>& manual) {
  DocCheckReport report;
  report.checked_dependencies = code_deps.size();
  report.manual_claims = manual.size();

  std::map<std::string, const corpus::ManualEntry*> claims_by_key;
  for (const corpus::ManualEntry& entry : manual) claims_by_key[matchKey(entry.claim)] = &entry;

  std::set<std::string> matched_claims;
  for (const Dependency& dep : code_deps) {
    const std::string key = matchKey(dep);
    const auto it = claims_by_key.find(key);
    if (it == claims_by_key.end()) {
      DocIssue issue;
      issue.kind = DocIssueKind::Undocumented;
      issue.code_dep = dep;
      issue.explanation = "code enforces '" + dep.summary() + "' but no manual documents it";
      report.issues.push_back(std::move(issue));
      continue;
    }
    matched_claims.insert(key);
    if (!sameConstraint(dep, it->second->claim)) {
      DocIssue issue;
      issue.kind = DocIssueKind::Inaccurate;
      issue.code_dep = dep;
      issue.manual = *it->second;
      issue.explanation = "manual says \"" + it->second->text + "\" but the code enforces '" +
                          dep.summary() + "'";
      report.issues.push_back(std::move(issue));
    }
  }

  for (const corpus::ManualEntry& entry : manual) {
    if (!matched_claims.contains(matchKey(entry.claim))) {
      DocIssue issue;
      issue.kind = DocIssueKind::Stale;
      issue.manual = entry;
      issue.explanation = "manual documents \"" + entry.text +
                          "\" but the code has no such dependency";
      report.issues.push_back(std::move(issue));
    }
  }
  return report;
}

DocCheckReport runCorpusDocCheck(const corpus::PipelineOptions& pipeline) {
  obs::Span span("condocck", "doc-check");
  const corpus::Table5Result result = corpus::runTable5({}, nullptr, pipeline);

  // Keep only the true dependencies (drop scored false positives), as the
  // paper does before the documentation check.
  std::set<std::string> fp_keys;
  for (const Dependency& fp : result.unique_score.false_positive_deps) {
    fp_keys.insert(fp.dedupKey());
  }
  std::vector<Dependency> true_deps;
  for (const Dependency& dep : result.unique_deps) {
    if (!fp_keys.contains(dep.dedupKey())) true_deps.push_back(dep);
  }
  DocCheckReport report = checkDocumentation(true_deps, corpus::allManuals());
  FSDEP_LOG_INFO("condocck", "%zu true dependencies checked, %zu documentation issue(s)",
                 true_deps.size(), report.issues.size());
  return report;
}

}  // namespace fsdep::tools
