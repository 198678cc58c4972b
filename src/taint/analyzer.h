// The taint analyzer (paper §4.1): tracks the propagation of each
// configuration parameter along data-flow paths.
//
// "We maintain a set to keep the initial configuration variables and any
//  variables derived from the initial configuration variables. When a new
//  variable is added to the set, we add the corresponding instruction to
//  the taint trace too. We maintain a map to track if a variable is
//  derived from multiple parameters."
//
// Seeds (the paper's manual annotations) name a variable inside a function
// and the parameter it carries. Seeded variables are *sticky*: an
// assignment to them never washes the seed label away, because the
// variable IS the parameter.
//
// Two modes:
//   * intra-procedural (the paper's prototype): calls are opaque; their
//     result carries the union of argument labels.
//   * inter-procedural (the paper's §6 future work, now the scalable
//     default): argument labels bind to callee parameters and return
//     labels flow back. The fixpoint is computed on SCC-ordered
//     call-graph function summaries — each function is analyzed once
//     symbolically (its parameters carry placeholder labels), the
//     resulting (param -> returns/bindings) transfer summaries are
//     resolved bottom-up over the Tarjan SCC condensation (iterating
//     only inside cycles), entry bindings are propagated top-down, and
//     one final concrete pass produces the per-function states.
//
// Transfer functions run as compiled Taint-IR (taint/ir.h): each
// function's CFG blocks are lowered once into a flat instruction stream
// and every fixpoint visit executes the stream. The engine's observable
// state is frozen by tests/golden/taint_state.txt (taint_golden_test).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/ast.h"
#include "cfg/cfg.h"
#include "sema/sema.h"
#include "taint/ir.h"
#include "taint/state.h"

namespace fsdep::taint {

struct AnalysisOptions {
  bool inter_procedural = false;
  /// When false, reading a metadata field does not produce the field's
  /// bridge label; CCD extraction then finds nothing (ablation knob).
  bool field_bridging = true;
  std::size_t max_trace_steps = 24;

  bool operator==(const AnalysisOptions& other) const = default;
};

/// A manual annotation: variable `variable` in function `function` carries
/// configuration parameter `param` ("component.name").
struct Seed {
  std::string function;
  std::string variable;
  std::string param;
};

struct TraceStep {
  SourceLoc loc;
  std::string text;
};

/// One (deduplicated) tainted write observed during the run. The
/// dependency extractor matches SD patterns against these.
struct WriteEvent {
  const ast::FunctionDecl* fn = nullptr;
  const ast::Expr* assign = nullptr;  ///< the assignment expression
  SourceLoc loc;
  std::string object;       ///< "function.var" or "record.field"
  bool is_field = false;
  std::string field_key;    ///< set when is_field
  LabelSet labels;          ///< labels flowing into the object
  std::string rhs_callee;   ///< callee name when the RHS is a direct call
  const ast::Expr* rhs = nullptr;      ///< RHS expression (null for out-params)
  ast::BinaryOp op = ast::BinaryOp::Assign;  ///< assignment operator
};

/// Analysis results for one function.
struct FunctionTaint {
  const ast::FunctionDecl* fn = nullptr;
  /// Shared with the compiled IR (the IR cache owns the build).
  std::shared_ptr<const cfg::Cfg> cfg;
  /// Compiled Taint-IR of this function.
  std::shared_ptr<const ir::CompiledFunction> code;
  /// Reverse post-order of `cfg`, computed once per run and shared by
  /// every fixpoint over this function (concrete passes, symbolic
  /// sweeps, exit replay).
  std::vector<cfg::BlockId> rpo;
  /// State at the point each block's branch condition is evaluated.
  std::vector<TaintState> at_condition;
  /// Union of the states at every function exit (after the exit blocks'
  /// statements ran).
  TaintState exit_state;
  LabelSet return_labels;
};

class Analyzer {
 public:
  Analyzer(const ast::TranslationUnit& tu, const sema::Sema& sema, AnalysisOptions options = {});

  void addSeed(Seed seed);

  /// Analyzes the given function definitions ("pre-selected functions" in
  /// the paper's prototype). Empty list means every function in the TU.
  void run(const std::vector<const ast::FunctionDecl*>& functions = {});

  [[nodiscard]] const FunctionTaint* resultFor(const ast::FunctionDecl* fn) const;
  [[nodiscard]] const FunctionTaint* resultFor(std::string_view function_name) const;
  [[nodiscard]] const std::vector<ArenaPtr<FunctionTaint>>& results() const { return results_; }

  [[nodiscard]] LabelTable& labels() { return labels_; }
  [[nodiscard]] const LabelTable& labels() const { return labels_; }

  /// Union of labels written to each metadata field anywhere in the run;
  /// the extractor uses this to bridge components. Materialized from the
  /// interned-id map on each call — the analysis itself never touches
  /// strings on this path.
  [[nodiscard]] std::map<std::string, LabelSet> fieldWrites() const;

  /// The "record.field" <-> id interner of this analyzer.
  [[nodiscard]] const FieldKeyTable& fieldKeys() const { return field_keys_; }

  /// All tainted writes, in deterministic (source) order.
  [[nodiscard]] std::vector<const WriteEvent*> writeEvents() const;

  /// Taint trace for an object ("function.var" or "record.field"); null
  /// when the object never got tainted.
  [[nodiscard]] const std::vector<TraceStep>* traceFor(const std::string& object) const;
  /// Every taint trace of the run, keyed by object.
  [[nodiscard]] const std::map<std::string, std::vector<TraceStep>>& traces() const {
    return traces_;
  }

  /// Labels an expression may carry in `state`: the value the concrete
  /// transfer would compute, with no write, binding or trace recorded.
  /// Field keys and bridge labels it meets are interned in visit order.
  [[nodiscard]] LabelSet labelsOf(const ast::Expr& expr, const TaintState& state) const;

  [[nodiscard]] const AnalysisOptions& options() const { return options_; }
  [[nodiscard]] const sema::Sema& semaRef() const { return sema_; }

  /// Fixpoint merge counters of the last run() (perf instrumentation):
  /// how many successor-edge merges ran and how many actually grew the
  /// destination state.
  [[nodiscard]] std::uint64_t mergeCalls() const { return merge_calls_; }
  [[nodiscard]] std::uint64_t mergeGrew() const { return merge_grew_; }

  /// Statements covered by every fixpoint sweep of the run: each block
  /// visit adds its block's statement count.
  [[nodiscard]] std::uint64_t stmtVisits() const { return stmt_visits_; }

  /// Taint-IR instrumentation of the last run(): instructions executed
  /// and block-section program executions.
  [[nodiscard]] std::uint64_t irInstrs() const { return ir_instrs_; }
  [[nodiscard]] std::uint64_t irVisits() const { return ir_visits_; }

  /// Functions whose final concrete pass was skipped because their
  /// top-down entry bindings resolved empty and no callee summary could
  /// feed them labels (inter-procedural runs only).
  [[nodiscard]] std::uint64_t concreteSkips() const { return concrete_skips_; }

  /// Shares a compilation memo across analyzers of the same TU (wired
  /// from the component cache entry). Must be called before run();
  /// without it the analyzer lazily owns a private cache.
  void setIrCache(std::shared_ptr<ir::IrCache> cache) { ir_cache_ = std::move(cache); }

  /// Bytes the result arena has reserved (per-function taint state):
  /// its block sizes, not just the bytes handed out.
  [[nodiscard]] std::size_t arenaBytes() const { return arena_.bytesReserved(); }

 private:
  void seedEntryState(const ast::FunctionDecl& fn, TaintState& state);
  void analyzeFunction(FunctionTaint& result);
  /// One concrete fixpoint per analyzed function, in results_ order.
  void concreteSweep();
  /// Inter-procedural engine: one concrete pre-pass, then
  /// bottom-up symbolic summaries over the SCC condensation, top-down
  /// entry-binding propagation, and one final concrete pass.
  void runSummarized();
  /// Symbolic CFG fixpoint of one function: parameters carry placeholder
  /// labels (placeholder_base_ + index); return labels land in sym_ret_,
  /// per-callsite argument labels in sym_bind_. No traces/writes.
  void analyzeFunctionSymbolic(FunctionTaint& result);
  /// Call graph among analyzed functions (deterministic first-encounter
  /// edge order) and its Tarjan condensation, emitted callee-first.
  void buildCallGraph();
  [[nodiscard]] std::vector<std::vector<const ast::FunctionDecl*>> condenseSccs() const;
  /// Executes one instruction range of a compiled function against
  /// `state`, recording traces, write events, bindings and summaries.
  void execRange(const ir::Program& prog, std::uint32_t begin, std::uint32_t end,
                 TaintState& state);
  /// Runs one block section set: stmts, inc, and (when requested via
  /// `snapshot`) the at_condition snapshot before the condition range.
  void execBlock(const ir::Program& prog, cfg::BlockId id, TaintState& state,
                 std::vector<TaintState>* at_condition);
  /// True when fn's final concrete pass would replay its first pass
  /// verbatim: entry bindings resolved empty and every callee summary is
  /// empty (both grow monotonically, so final-empty means always-empty).
  [[nodiscard]] bool canSkipFinalPass(const ast::FunctionDecl* fn) const;
  [[nodiscard]] ir::IrCache& irCache();
  void recordTrace(const std::string& object, SourceLoc loc, const std::string& text);
  void recordWrite(const ast::Expr& assign, const std::string& object, bool is_field,
                   const std::string& field_key, const LabelSet& labels, const ast::Expr* rhs,
                   SourceLoc loc, ast::BinaryOp op);
  [[nodiscard]] std::string describeVar(const ast::VarDecl& var) const;
  /// describeVar, memoized by declaration (the display name of a decl
  /// never changes).
  [[nodiscard]] const std::string& varNameFor(const ast::VarDecl& var) const;
  /// The "object <- rhs" trace text of one assignment site, memoized by
  /// site pointer: the text is pure AST rendering, so building it once
  /// per site (instead of on every fixpoint replay) is observationally
  /// identical. exprToString recursion dominated the amplified-corpus
  /// profile before this.
  [[nodiscard]] const std::string& traceTextFor(const void* site, const std::string& object,
                                                const ast::Expr* rhs, const char* fallback) const;
  [[nodiscard]] const ast::VarDecl* findVarInFunction(const ast::FunctionDecl& fn,
                                                      std::string_view name) const;
  /// Interned id of the field a member expression touches, memoized per
  /// field declaration (each record.field is one FieldDecl in the TU).
  [[nodiscard]] FieldKeyId fieldIdFor(const ast::MemberExpr& m) const;
  /// The "field:record.field" bridge label, memoized by field key id.
  [[nodiscard]] LabelId bridgeLabelFor(const ast::MemberExpr& m, FieldKeyId key) const;

  const ast::TranslationUnit& tu_;
  const sema::Sema& sema_;
  AnalysisOptions options_;
  mutable LabelTable labels_;
  mutable FieldKeyTable field_keys_;
  mutable std::unordered_map<const ast::FieldDecl*, FieldKeyId> field_id_memo_;
  mutable std::vector<LabelId> bridge_label_memo_;  ///< indexed by FieldKeyId
  // AST-derived display strings are run-invariant, so these memos are
  // never cleared (the AST outlives the analyzer via the component
  // cache entry).
  mutable std::unordered_map<const ast::VarDecl*, std::string> var_name_memo_;
  mutable std::unordered_map<const void*, std::string> trace_text_memo_;
  /// Assignment sites whose trace step was already offered this run.
  /// A site's (object, loc, text) triple is fixed, so recordTrace is
  /// idempotent per site — later replays can skip the call outright.
  std::unordered_set<const void*> trace_done_;
  std::vector<Seed> seeds_;
  /// Per-run cache of seed-to-variable resolution (a function-body walk), so
  /// fixpoint re-entries don't re-walk function bodies. Label interning
  /// is NOT cached — it must stay in first-use order.
  std::map<const ast::FunctionDecl*, std::vector<std::pair<const Seed*, const ast::VarDecl*>>>
      seed_memo_;

  /// Storage for per-function results; declared before results_ so the
  /// arena outlives the ArenaPtrs into it.
  Arena arena_;
  std::vector<ArenaPtr<FunctionTaint>> results_;
  std::map<const ast::FunctionDecl*, FunctionTaint*> by_fn_;
  const ast::FunctionDecl* current_fn_ = nullptr;
  FunctionTaint* current_result_ = nullptr;

  std::map<const ast::VarDecl*, LabelSet> sticky_;

  // Inter-procedural machinery.
  std::map<const ast::FunctionDecl*, TaintState> entry_bindings_;
  std::map<const ast::FunctionDecl*, LabelSet> return_summaries_;
  bool bindings_changed_ = false;

  // Symbolic sweeps: placeholder labels occupy ids >= placeholder_base_,
  // which is frozen after the concrete pre-pass — by then every concrete
  // label (seeds, field bridges) is interned, so the two id spaces
  // cannot collide.
  bool summary_mode_ = false;
  LabelId placeholder_base_ = 0;
  LabelSet* summary_return_sink_ = nullptr;
  bool summary_changed_ = false;
  std::map<const ast::FunctionDecl*, LabelSet> sym_ret_;
  std::map<const ast::FunctionDecl*, std::map<const ast::VarDecl*, LabelSet>> sym_bind_;
  std::map<const ast::FunctionDecl*, std::vector<const ast::FunctionDecl*>> callees_;

  std::uint64_t merge_calls_ = 0;
  std::uint64_t merge_grew_ = 0;
  std::uint64_t stmt_visits_ = 0;
  std::uint64_t ir_instrs_ = 0;
  std::uint64_t ir_visits_ = 0;
  std::uint64_t concrete_skips_ = 0;

  /// Compilation memo (shared via setIrCache, else lazily private) and
  /// the temp scratchpad the interpreter reuses across block visits.
  std::shared_ptr<ir::IrCache> ir_cache_;
  std::vector<LabelSet> ir_temps_;

  std::map<FieldKeyId, LabelSet> field_writes_;
  std::map<std::string, std::vector<TraceStep>> traces_;
  std::map<const ast::Expr*, WriteEvent> writes_;
};

}  // namespace fsdep::taint
