//===- opt/PassManager.h - Optimization pipeline ----------------*- C++ -*-===//
///
/// \file
/// The classical optimizations the paper's claims rely on (§3.3: after
/// specialization "the type queries and casts in each version can be
/// decided statically, the chain of if statements will be folded away,
/// and only a call to the corresponding version remains, which the
/// compiler may then inline, resulting in code just as efficient as if
/// the caller had called the appropriate print* method directly"):
///
///  * constant folding + static cast/query folding + branch folding,
///  * copy propagation (cleans the moves normalization introduces),
///  * dead code and unreachable block elimination,
///  * class-hierarchy-analysis devirtualization,
///  * function inlining,
///  * escape analysis + scalar replacement of non-escaping objects and
///    closures (post-normalization only; see opt/Escape.h).
///
/// Scheduling is per function (see optimizeModule): up to
/// OptOptions::Rounds rounds, the first visiting every function and
/// each later one only the functions whose own body, or the body of an
/// inlinable callee, changed since their last visit; the rounds stop
/// early once no function needs a visit. Dead-function elimination
/// before the first round, after every inline step and after the last
/// round keeps dead specializations out of the passes and the output.
/// Each round times every pass it runs; the per-pass milliseconds
/// accumulate in OptStats and surface through --stats, batch JSON, and
/// STATS.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_OPT_PASSMANAGER_H
#define VIRGIL_OPT_PASSMANAGER_H

#include "core/Features.h"
#include "ir/Ir.h"

#include <functional>
#include <span>

namespace virgil {

namespace ssa {
class DominatorAnalysis;
}

struct OptOptions {
  bool Fold = true;
  bool CopyProp = true;
  bool Dce = true;
  bool Inline = true;
  bool Devirtualize = true;
  bool DeadFields = true;
  /// Escape analysis + scalar replacement. Escape and Ssa default to
  /// the process settings in core/Features.h.
  bool Escape = featureDefault(Feature::Escape);
  /// Run optimization rounds through the SSA sandwich: SCCP (which
  /// subsumes Fold + CopyProp — they are not run separately) and
  /// dominance-based load/store elimination over a shared dominator
  /// analysis that Escape and the devirtualizer also consume.
  bool Ssa = featureDefault(Feature::Ssa);
  /// Rounds of visits, so also the most times any one function is
  /// visited (its passes run over it); 0 disables the optimizer.
  unsigned Rounds = 3;
  size_t InlineInstrLimit = 48;
};

/// Invoked with a pass name ("devirt", "inline", "ssa", "sccp",
/// "loadelim", "ssa-out", "fold", "copyprop", "dce", "escape",
/// "deadfields") after that pass runs — for --dump-ir=<pass>. The
/// "ssa"/"sccp"/"loadelim" dumps fire while the module is still in SSA
/// form (phis visible); "ssa-out" fires after phi elimination.
using PassDumpFn = std::function<void(const char *)>;

struct OptStats {
  size_t Folded = 0;
  size_t BranchesFolded = 0;
  size_t CopiesPropagated = 0;
  size_t InstrsRemoved = 0;
  size_t BlocksRemoved = 0;
  size_t CallsInlined = 0;
  size_t CallsDevirtualized = 0;
  /// Devirtualized because CHA found a single implementer (as opposed
  /// to an exact-receiver proof); subset of CallsDevirtualized.
  size_t DevirtualizedByCha = 0;
  size_t FieldsRemoved = 0;
  /// Escape analysis: heap allocations deleted, field registers
  /// created for them, and closures turned into direct calls.
  size_t AllocsElided = 0;
  size_t FieldsScalarized = 0;
  size_t ClosuresFlattened = 0;
  /// SSA mid-tier: phis placed by construction, instructions folded by
  /// SCCP, loads reused / stores killed / null checks deleted by the
  /// dominance-based memory pass.
  size_t PhisPlaced = 0;
  size_t SccpFolded = 0;
  size_t LoadsEliminated = 0;
  size_t StoresKilled = 0;
  size_t NullChecksRemoved = 0;
  /// Function visits the per-function scheduler skipped: summed over
  /// the Rounds rounds, the functions with a body that a round did not
  /// visit (all of them, for the rounds after an early stop). A
  /// function is revisited only when its body or an inlinable callee's
  /// body changed since its last visit, so a skipped visit is one that
  /// could not have changed anything.
  size_t PassRunsSkipped = 0;
  /// Functions dead-function elimination removed.
  size_t FunctionsRemoved = 0;
  /// Wall-clock milliseconds per pass, summed over rounds. InlineMs
  /// includes dead-function elimination.
  double DevirtMs = 0;
  double InlineMs = 0;
  double FoldMs = 0;
  double CopyPropMs = 0;
  double DceMs = 0;
  double EscapeMs = 0;
  double DeadFieldsMs = 0;
  double SsaMs = 0;

  OptStats &operator+=(const OptStats &O);
};

/// The functions a function-local pass visits: M.Functions for the
/// whole module, or the pass manager's per-round work list.
using FunctionSpan = std::span<IrFunction *const>;

/// Individual passes; each returns the number of changes made. The
/// passes taking a DominatorAnalysis use the shared memoized dominator
/// trees when one is supplied (the pass manager threads one through a
/// whole optimizeModule invocation) and compute their own otherwise.
size_t foldConstants(IrModule &M, FunctionSpan Fns, OptStats &Stats);
size_t propagateCopies(FunctionSpan Fns, OptStats &Stats);
size_t eliminateDeadCode(FunctionSpan Fns, OptStats &Stats);
size_t inlineCalls(IrModule &M, FunctionSpan Fns, size_t InstrLimit,
                   OptStats &Stats);
size_t devirtualize(IrModule &M, FunctionSpan Fns, OptStats &Stats,
                    ssa::DominatorAnalysis *DomA = nullptr);
/// Module-wide: a field is dead only if no function reads it.
size_t eliminateDeadFields(IrModule &M, OptStats &Stats);
/// Module-wide: removes functions unreachable from Main, Init and the
/// vtables, renumbering the survivors; returns how many were removed.
size_t eliminateDeadFunctions(IrModule &M);

/// Whether inlineCalls would splice \p G into a caller (an arity-
/// matching direct call site): the inputs a caller's visit reads from
/// its callee.
bool isInlinable(const IrFunction &G, size_t InstrLimit);

/// Runs the configured pipeline.
OptStats optimizeModule(IrModule &M, const OptOptions &Options = {},
                        const PassDumpFn &DumpAfter = {});

} // namespace virgil

#endif // VIRGIL_OPT_PASSMANAGER_H
