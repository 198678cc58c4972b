// ConDocCk (paper §4.2 usage 1): checks the potential inconsistency
// between user manuals and source code in terms of configuration
// requirements. Input: dependencies extracted from the code and the
// structured manual claims; output: documentation issues.
#pragma once

#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/pipeline.h"
#include "model/dependency.h"

namespace fsdep::tools {

enum class DocIssueKind {
  Undocumented,   ///< code enforces a dependency the manual never mentions
  Inaccurate,     ///< manual documents it with wrong bounds / wrong relation
  Stale,          ///< manual documents a dependency the code does not have
};

const char* docIssueKindName(DocIssueKind kind);

struct DocIssue {
  DocIssueKind kind = DocIssueKind::Undocumented;
  model::Dependency code_dep;      ///< empty id for Stale issues
  corpus::ManualEntry manual;      ///< empty claim for Undocumented issues
  std::string explanation;
};

struct DocCheckReport {
  std::vector<DocIssue> issues;
  std::size_t checked_dependencies = 0;
  std::size_t manual_claims = 0;

  [[nodiscard]] int countOf(DocIssueKind kind) const;
  [[nodiscard]] std::string summary() const;
};

/// Diffs code dependencies against manual claims.
/// Matching is structural: same kind family + same parameter pair; an
/// entry that matches but disagrees on operator or bounds is Inaccurate.
DocCheckReport checkDocumentation(const std::vector<model::Dependency>& code_deps,
                                  const std::vector<corpus::ManualEntry>& manual);

/// Convenience: runs the corpus pipeline, filters to true dependencies
/// (the paper's "59 extracted true dependencies"), and checks them
/// against the embedded manuals. `pipeline` carries the caller's
/// worker count and, in the serve daemon, its scenario-result memo.
DocCheckReport runCorpusDocCheck(const corpus::PipelineOptions& pipeline = {});

}  // namespace fsdep::tools
