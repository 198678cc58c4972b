#include "taint/analyzer.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::taint {

using namespace ast;

Analyzer::Analyzer(const TranslationUnit& tu, const sema::Sema& sema, AnalysisOptions options)
    : tu_(tu), sema_(sema), options_(options) {}

FieldKeyId Analyzer::fieldIdFor(const MemberExpr& m) const {
  const auto memo = field_id_memo_.find(m.field);
  if (memo != field_id_memo_.end()) return memo->second;
  const FieldKeyId id = field_keys_.intern(m.record->name, m.field->name);
  field_id_memo_.emplace(m.field, id);
  return id;
}

LabelId Analyzer::bridgeLabelFor(const MemberExpr& m, FieldKeyId key) const {
  constexpr LabelId kUnset = static_cast<LabelId>(-1);
  if (key >= bridge_label_memo_.size()) bridge_label_memo_.resize(key + 1, kUnset);
  if (bridge_label_memo_[key] == kUnset) {
    bridge_label_memo_[key] = labels_.internField(m.record->name, m.field->name);
  }
  return bridge_label_memo_[key];
}

std::map<std::string, LabelSet> Analyzer::fieldWrites() const {
  std::map<std::string, LabelSet> out;
  for (const auto& [id, labels] : field_writes_) out.emplace(field_keys_.key(id), labels);
  return out;
}

void Analyzer::addSeed(Seed seed) { seeds_.push_back(std::move(seed)); }

const VarDecl* Analyzer::findVarInFunction(const FunctionDecl& fn, std::string_view name) const {
  for (const auto& p : fn.params) {
    if (p->name == name) return p.get();
  }
  // Walk the body for local declarations.
  const VarDecl* found = nullptr;
  // Simple recursive lambda over statements.
  auto walk = [&](auto&& self, const Stmt& stmt) -> void {
    if (found != nullptr) return;
    switch (stmt.kind()) {
      case StmtKind::Compound:
        for (const StmtPtr& s : static_cast<const CompoundStmt&>(stmt).body) self(self, *s);
        break;
      case StmtKind::Decl:
        for (const auto& v : static_cast<const DeclStmt&>(stmt).vars) {
          if (v->name == name) {
            found = v.get();
            return;
          }
        }
        break;
      case StmtKind::If: {
        const auto& s = static_cast<const IfStmt&>(stmt);
        self(self, *s.then_stmt);
        if (s.else_stmt != nullptr) self(self, *s.else_stmt);
        break;
      }
      case StmtKind::While: self(self, *static_cast<const WhileStmt&>(stmt).body); break;
      case StmtKind::DoWhile: self(self, *static_cast<const DoWhileStmt&>(stmt).body); break;
      case StmtKind::For: {
        const auto& s = static_cast<const ForStmt&>(stmt);
        if (s.init != nullptr) self(self, *s.init);
        self(self, *s.body);
        break;
      }
      case StmtKind::Switch:
        for (const auto& c : static_cast<const SwitchStmt&>(stmt).cases) self(self, *c);
        break;
      case StmtKind::Case:
        for (const StmtPtr& b : static_cast<const CaseStmt&>(stmt).body) self(self, *b);
        break;
      default:
        break;
    }
  };
  if (fn.body != nullptr) walk(walk, *fn.body);
  if (found != nullptr) return found;
  // Fall back to a global of that name.
  return tu_.findGlobal(name);
}

std::string Analyzer::describeVar(const VarDecl& var) const {
  if (var.owner != nullptr) return var.owner->name + "." + var.name;
  return var.name;
}

const std::string& Analyzer::varNameFor(const VarDecl& var) const {
  const auto [it, inserted] = var_name_memo_.try_emplace(&var);
  if (inserted) it->second = describeVar(var);
  return it->second;
}

const std::string& Analyzer::traceTextFor(const void* site, const std::string& object,
                                          const Expr* rhs, const char* fallback) const {
  const auto [it, inserted] = trace_text_memo_.try_emplace(site);
  if (inserted) {
    it->second = object + " <- " + (rhs != nullptr ? exprToString(*rhs) : fallback);
  }
  return it->second;
}

void Analyzer::seedEntryState(const FunctionDecl& fn, TaintState& state) {
  // Seed-to-variable resolution walks the function body; memoize it per
  // run so fixpoint re-entries (and the summary engine's extra passes)
  // don't re-walk the AST. Label interning stays here, in first-use
  // order — LabelId order is semantically visible.
  const auto [memo, inserted] = seed_memo_.try_emplace(&fn);
  if (inserted) {
    for (const Seed& seed : seeds_) {
      if (seed.function != fn.name) continue;
      const VarDecl* var = findVarInFunction(fn, seed.variable);
      if (var != nullptr) memo->second.emplace_back(&seed, var);
    }
  }
  for (const auto& [seed, var] : memo->second) {
    const LabelId label = labels_.internParam(seed->param);
    state.vars[var].insert(label);
    sticky_[var].insert(label);
    recordTrace(varNameFor(*var), var->loc, "seed: carries " + seed->param);
  }
  // In the symbolic phase the parameters carry placeholder labels
  // instead; concrete caller bindings are folded in afterwards.
  if (options_.inter_procedural && !summary_mode_) {
    const auto it = entry_bindings_.find(&fn);
    if (it != entry_bindings_.end()) state.mergeFrom(it->second);
  }
}

void Analyzer::run(const std::vector<const FunctionDecl*>& functions) {
  std::vector<const FunctionDecl*> fns = functions;
  if (fns.empty()) fns = tu_.functions();

  results_.clear();  // destroys the FunctionTaints before the arena memory is recycled
  arena_.reset();
  by_fn_.clear();
  field_writes_.clear();
  traces_.clear();
  trace_done_.clear();
  writes_.clear();
  sticky_.clear();
  seed_memo_.clear();
  entry_bindings_.clear();
  return_summaries_.clear();
  sym_ret_.clear();
  sym_bind_.clear();
  callees_.clear();
  summary_mode_ = false;
  summary_return_sink_ = nullptr;
  placeholder_base_ = 0;
  merge_calls_ = 0;
  merge_grew_ = 0;
  stmt_visits_ = 0;
  ir_instrs_ = 0;
  ir_visits_ = 0;
  concrete_skips_ = 0;

  for (const FunctionDecl* fn : fns) {
    if (fn == nullptr || !fn->isDefinition()) continue;
    ArenaPtr<FunctionTaint> result(arena_.make<FunctionTaint>());
    result->fn = fn;
    // Compiled once per function and memoized (shared across warm runs
    // via the component cache): CFG, RPO, and the flat instruction
    // stream all come from the cache entry.
    result->code = irCache().getOrCompile(*fn);
    result->cfg = result->code->cfg;
    result->rpo = result->code->rpo;
    if (result->code->program.num_temps > ir_temps_.size()) {
      ir_temps_.resize(result->code->program.num_temps);
    }
    by_fn_[fn] = result.get();
    results_.push_back(std::move(result));
  }

  if (options_.inter_procedural) {
    runSummarized();
  } else {
    concreteSweep();
  }
}

void Analyzer::concreteSweep() {
  for (const auto& result : results_) {
    current_fn_ = result->fn;
    current_result_ = result.get();
    analyzeFunction(*result);
  }
  current_fn_ = nullptr;
  current_result_ = nullptr;
}

void Analyzer::analyzeFunction(FunctionTaint& result) {
  obs::Span span("taint", "fixpoint");
  span.arg("function", result.fn->name);
  const std::uint64_t stmts_before = stmt_visits_;
  const cfg::Cfg& cfg = *result.cfg;
  // Block entry states live only as long as the fixpoint: after it,
  // consumers read at_condition, exit_state and return_labels.
  std::vector<TaintState> block_entry(cfg.size());
  result.at_condition.assign(cfg.size(), TaintState{});

  TaintState entry;
  seedEntryState(*result.fn, entry);
  block_entry[cfg.entry()] = std::move(entry);

  const std::vector<cfg::BlockId>& order = result.rpo;
  // Dirty-block fixpoint: a block is reprocessed only when its entry
  // state grew since it last ran. The transfer side effects (traces,
  // write events) are idempotent and depend only on the entry state, so
  // skipping a converged block replays nothing and changes nothing —
  // acyclic CFGs settle in one real sweep plus one flag scan.
  std::vector<char> dirty(cfg.size(), 1);
  bool changed = true;
  int iterations = 0;
  while (changed && iterations++ < 64) {
    changed = false;
    for (const cfg::BlockId id : order) {
      if (dirty[id] == 0) continue;
      dirty[id] = 0;
      const cfg::BasicBlock& block = cfg.block(id);
      TaintState state = block_entry[id];
      execBlock(result.code->program, id, state, &result.at_condition);
      for (const cfg::Edge& e : block.successors) {
        const bool grew = block_entry[e.target].mergeFrom(state);
        ++merge_calls_;
        merge_grew_ += grew ? 1 : 0;
        if (grew) {
          dirty[e.target] = 1;
          changed = true;
        }
      }
    }
  }
  // `iterations` counts sweeps over the CFG until nothing grew (or the
  // safety valve tripped); the histogram shows how close functions sit
  // to the 64-sweep cap.
  static obs::Histogram& fixpoint_iterations = obs::Registry::global().histogram(
      "taint.fixpoint_iterations", {}, {1, 2, 3, 4, 6, 8, 16, 32, 64});
  fixpoint_iterations.observe(static_cast<std::uint64_t>(iterations));
  span.arg("iterations", static_cast<std::uint64_t>(iterations));

  // Publish the union of the post-statement states at the exits (the
  // record/trace side effects are idempotent, so replaying is safe).
  result.exit_state = TaintState{};
  for (const cfg::BlockId id : order) {
    const cfg::BasicBlock& block = cfg.block(id);
    if (!block.is_exit) continue;
    TaintState& state = block_entry[id];
    const ir::BlockRange& range = result.code->program.blocks[id];
    ++ir_visits_;
    stmt_visits_ += range.stmt_count;
    execRange(result.code->program, range.stmts_begin, range.stmts_end, state);
    result.exit_state.mergeFrom(state);
  }
  span.arg("stmts", stmt_visits_ - stmts_before);
}

void Analyzer::runSummarized() {
  // Pass 1: the concrete sweep, which also records call bindings and
  // return summaries. This freezes the label space — every seed and
  // bridge label is interned in first-discovery order, which is
  // semantically visible (rendered label sets ascend by id, and
  // extraction anchors on the smallest id) — and records the
  // first-discovery traces and write events.
  bindings_changed_ = false;
  concreteSweep();
  // Nothing crossed a function boundary: pass 1 is already the fixpoint.
  if (!bindings_changed_) return;

  // Bottom-up: one symbolic CFG fixpoint per function, ordered by the
  // Tarjan condensation of the call graph (emission order is
  // callee-first), iterating only inside cyclic components. Placeholder
  // labels occupy ids >= placeholder_base_; because substitution happens
  // immediately at each call site, only the current function's own
  // placeholders ever appear in its state, so one shared base serves
  // every function without collisions.
  std::uint64_t symbolic_sweeps = 0;
  std::vector<std::vector<const FunctionDecl*>> sccs;
  const auto isCyclic = [this](const std::vector<const FunctionDecl*>& scc) {
    if (scc.size() > 1) return true;
    const auto& edges = callees_.find(scc.front())->second;
    return std::find(edges.begin(), edges.end(), scc.front()) != edges.end();
  };
  {
    obs::Span span("taint", "summary_build");
    placeholder_base_ = static_cast<LabelId>(labels_.size());
    buildCallGraph();
    sccs = condenseSccs();
    summary_mode_ = true;
    for (const auto& scc : sccs) {
      obs::Span scc_span("taint", "scc_ir");
      scc_span.arg("function", scc.front()->name);
      const bool cyclic = isCyclic(scc);
      int guard = 0;
      const std::uint64_t sweeps_before = symbolic_sweeps;
      do {
        summary_changed_ = false;
        for (const FunctionDecl* fn : scc) {
          current_fn_ = fn;
          current_result_ = by_fn_.find(fn)->second;
          summary_return_sink_ = &sym_ret_[fn];
          analyzeFunctionSymbolic(*current_result_);
          ++symbolic_sweeps;
        }
      } while (cyclic && summary_changed_ && ++guard < 64);
      scc_span.arg("functions", static_cast<std::uint64_t>(scc.size()));
      scc_span.arg("sweeps", symbolic_sweeps - sweeps_before);
    }
    summary_mode_ = false;
    summary_return_sink_ = nullptr;
    current_fn_ = nullptr;
    current_result_ = nullptr;
    span.arg("functions", static_cast<std::uint64_t>(results_.size()));
    span.arg("sccs", static_cast<std::uint64_t>(sccs.size()));
    span.arg("symbolic_sweeps", symbolic_sweeps);
  }
  static obs::Counter& scc_counter = obs::Registry::global().counter("taint.summary.sccs");
  scc_counter.add(sccs.size());
  static obs::Counter& sweep_counter =
      obs::Registry::global().counter("taint.summary.symbolic_sweeps");
  sweep_counter.add(symbolic_sweeps);

  // Top-down: resolve the symbolic per-callsite bindings into concrete
  // entry labels E, caller-first (the reverse of the emission order), so
  // every caller's own entry labels are final before it pushes them on.
  std::map<const VarDecl*, LabelSet> entry_labels;
  const auto resolve = [&](const LabelSet& sym, const FunctionDecl* fn) {
    LabelSet out;
    for (const LabelId id : sym) {
      if (id < placeholder_base_) {
        out.insert(id);
      } else {
        const std::size_t idx = id - placeholder_base_;
        if (idx >= fn->params.size()) continue;
        const auto it = entry_labels.find(fn->params[idx].get());
        if (it != entry_labels.end()) unionInto(out, it->second);
      }
    }
    return out;
  };
  const auto pushBindings = [&](const FunctionDecl* fn) {
    bool changed = false;
    const auto it = sym_bind_.find(fn);
    if (it == sym_bind_.end()) return changed;
    for (const auto& [param, sym] : it->second) {
      changed |= unionInto(entry_labels[param], resolve(sym, fn));
    }
    return changed;
  };
  for (auto scc = sccs.rbegin(); scc != sccs.rend(); ++scc) {
    const bool cyclic = isCyclic(*scc);
    int guard = 0;
    bool changed;
    do {
      changed = false;
      for (const FunctionDecl* fn : *scc) changed |= pushBindings(fn);
    } while (cyclic && changed && ++guard < 64);
  }

  // Instantiate the fixpoint summaries and entry bindings the final
  // concrete pass will consume.
  for (const auto& result : results_) {
    const FunctionDecl* fn = result->fn;
    if (const auto it = sym_ret_.find(fn); it != sym_ret_.end() && !it->second.empty()) {
      LabelSet resolved = resolve(it->second, fn);
      if (!resolved.empty()) unionInto(return_summaries_[fn], resolved);
    }
    for (const auto& p : fn->params) {
      const auto e = entry_labels.find(p.get());
      if (e == entry_labels.end() || e->second.empty()) continue;
      unionInto(entry_bindings_[fn].vars[p.get()], e->second);
    }
  }

  // One final concrete pass with the fixpoint bindings and summaries in
  // place. At the fixpoint nothing can grow; the residual counter flags
  // a violation of that invariant (it should stay 0).
  obs::Span apply_span("taint", "summary_apply");
  bindings_changed_ = false;
  for (const auto& result : results_) {
    // Functions whose entry bindings resolved empty and whose callees
    // summarize to nothing would replay pass 1 verbatim — their pass-1
    // states, traces, and events already stand.
    if (canSkipFinalPass(result->fn)) {
      ++concrete_skips_;
      continue;
    }
    current_fn_ = result->fn;
    current_result_ = result.get();
    analyzeFunction(*result);
  }
  current_fn_ = nullptr;
  current_result_ = nullptr;
  if (concrete_skips_ > 0) {
    static obs::Counter& skip_counter =
        obs::Registry::global().counter("taint.concrete_skips");
    skip_counter.add(concrete_skips_);
  }
  apply_span.arg("skipped", concrete_skips_);
  if (bindings_changed_) {
    static obs::Counter& residual =
        obs::Registry::global().counter("taint.summary.residual_growth");
    residual.add(1);
  }
}

void Analyzer::analyzeFunctionSymbolic(FunctionTaint& result) {
  const cfg::Cfg& cfg = *result.cfg;
  std::vector<TaintState> block_entry(cfg.size());
  TaintState entry;
  seedEntryState(*result.fn, entry);  // seeds only; bindings are skipped in summary mode
  const auto& params = result.fn->params;
  for (std::size_t i = 0; i < params.size(); ++i) {
    entry.vars[params[i].get()].insert(placeholder_base_ + static_cast<LabelId>(i));
  }
  block_entry[cfg.entry()] = std::move(entry);

  const std::vector<cfg::BlockId>& order = result.rpo;
  // Same dirty-block scheme as the concrete fixpoint (symbolic sweeps
  // have no side effects at all, so skipping converged blocks is purely
  // a speedup).
  std::vector<char> dirty(cfg.size(), 1);
  bool changed = true;
  int iterations = 0;
  while (changed && iterations++ < 64) {
    changed = false;
    for (const cfg::BlockId id : order) {
      if (dirty[id] == 0) continue;
      dirty[id] = 0;
      const cfg::BasicBlock& block = cfg.block(id);
      TaintState state = block_entry[id];
      // No at_condition snapshot in symbolic sweeps.
      execBlock(result.code->program, id, state, nullptr);
      for (const cfg::Edge& e : block.successors) {
        const bool grew = block_entry[e.target].mergeFrom(state);
        ++merge_calls_;
        merge_grew_ += grew ? 1 : 0;
        if (grew) {
          dirty[e.target] = 1;
          changed = true;
        }
      }
    }
  }
}

ir::IrCache& Analyzer::irCache() {
  if (ir_cache_ == nullptr) ir_cache_ = std::make_shared<ir::IrCache>();
  return *ir_cache_;
}

bool Analyzer::canSkipFinalPass(const FunctionDecl* fn) const {
  // Both inputs the final pass adds over pass 1 grow monotonically, so
  // observing them empty at the fixpoint means they were empty while
  // pass 1 ran too — the replay could not differ. Emptiness (not key
  // presence) is the test: operator[] plants empty-set entries.
  if (const auto bound = entry_bindings_.find(fn); bound != entry_bindings_.end()) {
    for (const auto& [var, labels] : bound->second.vars) {
      if (!labels.empty()) return false;
    }
  }
  if (const auto edges = callees_.find(fn); edges != callees_.end()) {
    for (const FunctionDecl* callee : edges->second) {
      const auto summary = return_summaries_.find(callee);
      if (summary != return_summaries_.end() && !summary->second.empty()) return false;
    }
  }
  return true;
}

void Analyzer::execBlock(const ir::Program& prog, cfg::BlockId id, TaintState& state,
                         std::vector<TaintState>* at_condition) {
  const ir::BlockRange& range = prog.blocks[id];
  ++ir_visits_;
  stmt_visits_ += range.stmt_count;
  execRange(prog, range.stmts_begin, range.stmts_end, state);
  execRange(prog, range.stmts_end, range.inc_end, state);
  if (range.has_condition) {
    if (at_condition != nullptr) (*at_condition)[id] = state;
    execRange(prog, range.inc_end, range.cond_end, state);
  }
}

void Analyzer::execRange(const ir::Program& prog, std::uint32_t begin, std::uint32_t end,
                         TaintState& state) {
  ir_instrs_ += end - begin;
  std::vector<LabelSet>& temps = ir_temps_;
  const LabelSet no_labels;
  for (std::uint32_t pc = begin; pc < end; ++pc) {
    const ir::Instr& in = prog.instrs[pc];
    switch (in.op) {
      case ir::Op::LoadVar:
        temps[in.dst] = state.varLabels(in.var);
        break;

      case ir::Op::LoadField: {
        // Interning runs even for a discarded read (dst == kNoTemp):
        // field-key and bridge-label id assignment is first-use ordered
        // and semantically visible.
        const MemberExpr& m = *in.member;
        const FieldKeyId key = fieldIdFor(m);
        if (options_.field_bridging) {
          const LabelId bridge = bridgeLabelFor(m, key);
          if (in.dst != ir::kNoTemp) {
            LabelSet labels = state.fieldLabels(key);
            labels.insert(bridge);
            temps[in.dst] = std::move(labels);
          }
        } else if (in.dst != ir::kNoTemp) {
          temps[in.dst] = state.fieldLabels(key);
        }
        break;
      }

      case ir::Op::Copy:
        temps[in.dst] = temps[in.a];
        break;

      case ir::Op::UnionInto:
        unionInto(temps[in.dst], temps[in.a]);
        break;

      case ir::Op::AssignVar: {
        const LabelSet* src = in.a == ir::kNoTemp ? nullptr : &temps[in.a];
        // Out-param stores only happen when the merged other-arg labels
        // are non-empty.
        if (in.skip_if_empty && (src == nullptr || src->empty())) break;
        LabelSet merged = src != nullptr ? *src : LabelSet{};
        if (const auto sticky = sticky_.find(in.var); sticky != sticky_.end()) {
          unionInto(merged, sticky->second);
        }
        if (in.strong) {
          state.vars[in.var] = merged;
        } else {
          unionInto(state.vars[in.var], merged);
        }
        if (!merged.empty()) {
          const std::string& object = varNameFor(*in.var);
          if (!summary_mode_ && trace_done_.insert(in.site).second) {
            recordTrace(object, in.loc, traceTextFor(in.site, object, in.rhs, "<call out-param>"));
          }
          recordWrite(*in.write_key, object, /*is_field=*/false, "", merged, in.rhs, in.loc,
                      in.aop);
        }
        break;
      }

      case ir::Op::AssignField: {
        const LabelSet* src = in.a == ir::kNoTemp ? nullptr : &temps[in.a];
        // Checked before interning: a skipped out-param store interns
        // nothing.
        if (in.skip_if_empty && (src == nullptr || src->empty())) break;
        const LabelSet& labels = src != nullptr ? *src : no_labels;
        const MemberExpr& m = *in.member;
        const FieldKeyId id = fieldIdFor(m);
        // Fields are object-insensitive: always a weak update.
        unionInto(state.fields[id], labels);
        if (!summary_mode_) unionInto(field_writes_[id], labels);
        if (!labels.empty()) {
          const std::string& key = field_keys_.key(id);
          if (!summary_mode_ && trace_done_.insert(in.site).second) {
            recordTrace(key, in.loc, traceTextFor(in.site, key, in.rhs, "<expr>"));
          }
          recordWrite(*in.write_key, key, /*is_field=*/true, key, labels, in.rhs, in.loc, in.aop);
        }
        break;
      }

      case ir::Op::DeclInit: {
        LabelSet labels = in.a == ir::kNoTemp ? LabelSet{} : temps[in.a];
        if (const auto sticky = sticky_.find(in.var); sticky != sticky_.end()) {
          unionInto(labels, sticky->second);
        }
        if (!labels.empty()) {
          state.vars[in.var] = labels;
          const std::string& object = varNameFor(*in.var);
          if (!summary_mode_ && trace_done_.insert(in.site).second) {
            recordTrace(object, in.loc, traceTextFor(in.site, object, in.rhs, ""));
          }
          recordWrite(*in.write_key, object, /*is_field=*/false, "", labels, in.rhs, in.loc,
                      BinaryOp::Assign);
        } else {
          state.vars[in.var].clear();
        }
        break;
      }

      case ir::Op::Call: {
        const ir::CallSpec& spec = prog.calls[in.aux];
        const ir::TempId* args = prog.call_args.data() + spec.args_begin;
        const std::size_t nargs = spec.args_end - spec.args_begin;
        LabelSet result;
        for (std::size_t i = 0; i < nargs; ++i) {
          if (args[i] != ir::kNoTemp) unionInto(result, temps[args[i]]);
        }
        const FunctionDecl* callee = spec.callee;
        if (options_.inter_procedural && callee != nullptr) {
          if (summary_mode_) {
            if (by_fn_.find(callee) != by_fn_.end()) {
              if (spec.effects) {
                auto& binds = sym_bind_[current_fn_];
                for (std::size_t i = 0; i < nargs && i < callee->params.size(); ++i) {
                  if (args[i] != ir::kNoTemp && !temps[args[i]].empty()) {
                    unionInto(binds[callee->params[i].get()], temps[args[i]]);
                  }
                }
              }
              if (const auto it = sym_ret_.find(callee); it != sym_ret_.end()) {
                // instantiateSummary, reading per-arg sets straight from
                // the temp pool (kNoTemp holes are empty sets).
                for (const LabelId label : it->second) {
                  if (label < placeholder_base_) {
                    result.insert(label);
                  } else {
                    const std::size_t idx = label - placeholder_base_;
                    if (idx < nargs && args[idx] != ir::kNoTemp) {
                      unionInto(result, temps[args[idx]]);
                    }
                  }
                }
              }
            }
          } else {
            if (spec.effects) {
              TaintState& binding = entry_bindings_[callee];
              for (std::size_t i = 0; i < nargs && i < callee->params.size(); ++i) {
                if (args[i] != ir::kNoTemp && !temps[args[i]].empty()) {
                  if (unionInto(binding.vars[callee->params[i].get()], temps[args[i]])) {
                    bindings_changed_ = true;
                  }
                }
              }
            }
            const auto summary = return_summaries_.find(callee);
            if (summary != return_summaries_.end()) unionInto(result, summary->second);
          }
        }
        temps[in.dst] = std::move(result);
        break;
      }

      case ir::Op::Return: {
        const LabelSet& labels = temps[in.a];
        if (summary_mode_) {
          if (summary_return_sink_ != nullptr && unionInto(*summary_return_sink_, labels)) {
            summary_changed_ = true;
          }
        } else if (current_result_ != nullptr) {
          unionInto(current_result_->return_labels, labels);
          if (options_.inter_procedural) {
            LabelSet& summary = return_summaries_[current_fn_];
            if (unionInto(summary, labels)) bindings_changed_ = true;
          }
        }
        break;
      }
    }
  }
}

void Analyzer::buildCallGraph() {
  callees_.clear();
  for (const auto& result : results_) {
    std::vector<const FunctionDecl*>& out = callees_[result->fn];
    auto walkExpr = [&](auto&& self, const Expr& e) -> void {
      switch (e.kind()) {
        case ExprKind::Unary: self(self, *static_cast<const UnaryExpr&>(e).operand); break;
        case ExprKind::Binary: {
          const auto& b = static_cast<const BinaryExpr&>(e);
          self(self, *b.lhs);
          self(self, *b.rhs);
          break;
        }
        case ExprKind::Conditional: {
          const auto& c = static_cast<const ConditionalExpr&>(e);
          self(self, *c.cond);
          self(self, *c.then_expr);
          self(self, *c.else_expr);
          break;
        }
        case ExprKind::Call: {
          const auto& call = static_cast<const CallExpr&>(e);
          for (const ExprPtr& a : call.args) self(self, *a);
          const FunctionDecl* callee = call.callee_decl;
          if (callee != nullptr && by_fn_.find(callee) != by_fn_.end() &&
              std::find(out.begin(), out.end(), callee) == out.end()) {
            out.push_back(callee);
          }
          break;
        }
        case ExprKind::Member: self(self, *static_cast<const MemberExpr&>(e).base); break;
        case ExprKind::Index: {
          const auto& i = static_cast<const IndexExpr&>(e);
          self(self, *i.base);
          self(self, *i.index);
          break;
        }
        case ExprKind::Cast: self(self, *static_cast<const CastExpr&>(e).operand); break;
        case ExprKind::InitList:
          for (const ExprPtr& el : static_cast<const InitListExpr&>(e).elements) self(self, *el);
          break;
        default:
          break;
      }
    };
    // The CFG already flattened control flow, so blocks hold only leaf
    // statements plus the branch condition / loop increment expressions —
    // exactly the expressions the transfer functions evaluate.
    const cfg::Cfg& cfg = *result->cfg;
    for (std::size_t id = 0; id < cfg.size(); ++id) {
      const cfg::BasicBlock& block = cfg.block(static_cast<cfg::BlockId>(id));
      for (const Stmt* s : block.stmts) {
        switch (s->kind()) {
          case StmtKind::Decl:
            for (const auto& var : static_cast<const DeclStmt&>(*s).vars) {
              if (var->init != nullptr) walkExpr(walkExpr, *var->init);
            }
            break;
          case StmtKind::Expr: walkExpr(walkExpr, *static_cast<const ExprStmt&>(*s).expr); break;
          case StmtKind::Return: {
            const auto& ret = static_cast<const ReturnStmt&>(*s);
            if (ret.value != nullptr) walkExpr(walkExpr, *ret.value);
            break;
          }
          default:
            break;
        }
      }
      if (block.inc_expr != nullptr) walkExpr(walkExpr, *block.inc_expr);
      if (block.condition != nullptr) walkExpr(walkExpr, *block.condition);
    }
  }
}

std::vector<std::vector<const FunctionDecl*>> Analyzer::condenseSccs() const {
  // Iterative Tarjan over the analyzed-function call graph. Roots are
  // visited in results_ order and edges in first-encounter order, so the
  // emission (callee-first) order is deterministic.
  std::vector<std::vector<const FunctionDecl*>> sccs;
  std::map<const FunctionDecl*, std::uint32_t> index;
  std::map<const FunctionDecl*, std::uint32_t> lowlink;
  std::map<const FunctionDecl*, bool> on_stack;
  std::vector<const FunctionDecl*> stack;
  std::uint32_t next = 0;

  struct Frame {
    const FunctionDecl* fn;
    std::size_t edge;
  };
  for (const auto& root_result : results_) {
    const FunctionDecl* root = root_result->fn;
    if (index.find(root) != index.end()) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = lowlink[root] = next++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::vector<const FunctionDecl*>& edges = callees_.find(frame.fn)->second;
      if (frame.edge < edges.size()) {
        const FunctionDecl* g = edges[frame.edge++];
        if (index.find(g) == index.end()) {
          index[g] = lowlink[g] = next++;
          stack.push_back(g);
          on_stack[g] = true;
          frames.push_back(Frame{g, 0});
        } else if (on_stack[g] && index[g] < lowlink[frame.fn]) {
          lowlink[frame.fn] = index[g];
        }
        continue;
      }
      const FunctionDecl* fn = frame.fn;
      frames.pop_back();
      if (!frames.empty() && lowlink[fn] < lowlink[frames.back().fn]) {
        lowlink[frames.back().fn] = lowlink[fn];
      }
      if (lowlink[fn] == index[fn]) {
        std::vector<const FunctionDecl*> scc;
        while (true) {
          const FunctionDecl* g = stack.back();
          stack.pop_back();
          on_stack[g] = false;
          scc.push_back(g);
          if (g == fn) break;
        }
        sccs.push_back(std::move(scc));
      }
    }
  }
  return sccs;
}

LabelSet Analyzer::labelsOf(const Expr& expr, const TaintState& state) const {
  // Visits subexpressions in the order the compiled transfer evaluates
  // them (Member bases and Index indices included, though their labels
  // are dropped): field-key and bridge-label ids are interned in
  // first-use order, and that order shows in the output.
  switch (expr.kind()) {
    case ExprKind::IntLiteral:
    case ExprKind::StringLiteral:
    case ExprKind::SizeofType:
      return {};

    case ExprKind::DeclRef: {
      const auto& ref = static_cast<const DeclRefExpr&>(expr);
      return ref.decl != nullptr ? state.varLabels(ref.decl) : LabelSet{};
    }

    case ExprKind::Unary:
      return labelsOf(*static_cast<const UnaryExpr&>(expr).operand, state);

    case ExprKind::Binary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      if (isAssignment(b.op)) {
        // The value is the RHS, plus the old contents when compound.
        LabelSet labels = labelsOf(*b.rhs, state);
        if (b.op != BinaryOp::Assign) unionInto(labels, labelsOf(*b.lhs, state));
        return labels;
      }
      LabelSet labels = labelsOf(*b.lhs, state);
      unionInto(labels, labelsOf(*b.rhs, state));
      return labels;
    }

    case ExprKind::Conditional: {
      // The condition's labels flow to the result (the one controlled
      // implicit flow the analysis tracks).
      const auto& c = static_cast<const ConditionalExpr&>(expr);
      LabelSet labels = labelsOf(*c.cond, state);
      unionInto(labels, labelsOf(*c.then_expr, state));
      unionInto(labels, labelsOf(*c.else_expr, state));
      return labels;
    }

    case ExprKind::Call: {
      const auto& call = static_cast<const CallExpr&>(expr);
      LabelSet labels;
      for (const ExprPtr& a : call.args) unionInto(labels, labelsOf(*a, state));
      const FunctionDecl* callee = call.callee_decl;
      if (options_.inter_procedural && callee != nullptr && callee->isDefinition()) {
        const auto summary = return_summaries_.find(callee);
        if (summary != return_summaries_.end()) unionInto(labels, summary->second);
      }
      return labels;
    }

    case ExprKind::Member: {
      const auto& m = static_cast<const MemberExpr&>(expr);
      (void)labelsOf(*m.base, state);
      if (m.record == nullptr || m.field == nullptr) return {};
      const FieldKeyId key = fieldIdFor(m);
      LabelSet labels = state.fieldLabels(key);
      if (options_.field_bridging) labels.insert(bridgeLabelFor(m, key));
      return labels;
    }

    case ExprKind::Index: {
      const auto& i = static_cast<const IndexExpr&>(expr);
      (void)labelsOf(*i.index, state);
      return labelsOf(*i.base, state);
    }

    case ExprKind::Cast:
      return labelsOf(*static_cast<const CastExpr&>(expr).operand, state);

    case ExprKind::InitList: {
      LabelSet labels;
      for (const ExprPtr& e : static_cast<const InitListExpr&>(expr).elements) {
        unionInto(labels, labelsOf(*e, state));
      }
      return labels;
    }
  }
  return {};
}

void Analyzer::recordTrace(const std::string& object, SourceLoc loc, const std::string& text) {
  if (summary_mode_) return;  // symbolic sweeps observe no traces
  std::vector<TraceStep>& trace = traces_[object];
  if (trace.size() >= options_.max_trace_steps) return;
  // Skip exact duplicates produced by fixpoint re-iteration.
  for (const TraceStep& step : trace) {
    if (step.loc == loc && step.text == text) return;
  }
  trace.push_back(TraceStep{loc, text});
}

void Analyzer::recordWrite(const Expr& assign, const std::string& object, bool is_field,
                           const std::string& field_key, const LabelSet& labels, const Expr* rhs,
                           SourceLoc loc, BinaryOp op) {
  if (summary_mode_) return;  // symbolic label sets are not write events
  WriteEvent& event = writes_[&assign];
  if (event.assign == nullptr) {
    event.fn = current_fn_;
    event.assign = &assign;
    event.loc = loc;
    event.object = object;
    event.is_field = is_field;
    event.field_key = field_key;
    event.rhs = rhs;
    event.op = op;
    if (rhs != nullptr && rhs->kind() == ExprKind::Call) {
      event.rhs_callee = static_cast<const CallExpr*>(rhs)->callee;
    }
  }
  unionInto(event.labels, labels);
}

std::vector<const WriteEvent*> Analyzer::writeEvents() const {
  std::vector<const WriteEvent*> out;
  out.reserve(writes_.size());
  for (const auto& [expr, event] : writes_) out.push_back(&event);
  std::sort(out.begin(), out.end(), [](const WriteEvent* a, const WriteEvent* b) {
    if (a->loc.file.value != b->loc.file.value) return a->loc.file.value < b->loc.file.value;
    if (a->loc.line != b->loc.line) return a->loc.line < b->loc.line;
    return a->loc.column < b->loc.column;
  });
  return out;
}

const std::vector<TraceStep>* Analyzer::traceFor(const std::string& object) const {
  const auto it = traces_.find(object);
  return it != traces_.end() ? &it->second : nullptr;
}

const FunctionTaint* Analyzer::resultFor(const FunctionDecl* fn) const {
  const auto it = by_fn_.find(fn);
  return it != by_fn_.end() ? it->second : nullptr;
}

const FunctionTaint* Analyzer::resultFor(std::string_view function_name) const {
  for (const auto& r : results_) {
    if (r->fn->name == function_name) return r.get();
  }
  return nullptr;
}

}  // namespace fsdep::taint
