//===- opt/PassManager.cpp ------------------------------------------------===//

#include "opt/PassManager.h"

#include "opt/Escape.h"
#include "ssa/Ssa.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

using namespace virgil;

OptStats &OptStats::operator+=(const OptStats &O) {
  Folded += O.Folded;
  BranchesFolded += O.BranchesFolded;
  CopiesPropagated += O.CopiesPropagated;
  InstrsRemoved += O.InstrsRemoved;
  BlocksRemoved += O.BlocksRemoved;
  CallsInlined += O.CallsInlined;
  CallsDevirtualized += O.CallsDevirtualized;
  DevirtualizedByCha += O.DevirtualizedByCha;
  FieldsRemoved += O.FieldsRemoved;
  AllocsElided += O.AllocsElided;
  FieldsScalarized += O.FieldsScalarized;
  ClosuresFlattened += O.ClosuresFlattened;
  PhisPlaced += O.PhisPlaced;
  SccpFolded += O.SccpFolded;
  LoadsEliminated += O.LoadsEliminated;
  StoresKilled += O.StoresKilled;
  NullChecksRemoved += O.NullChecksRemoved;
  PassRunsSkipped += O.PassRunsSkipped;
  FunctionsRemoved += O.FunctionsRemoved;
  DevirtMs += O.DevirtMs;
  InlineMs += O.InlineMs;
  FoldMs += O.FoldMs;
  CopyPropMs += O.CopyPropMs;
  DceMs += O.DceMs;
  EscapeMs += O.EscapeMs;
  DeadFieldsMs += O.DeadFieldsMs;
  SsaMs += O.SsaMs;
  return *this;
}

OptStats virgil::optimizeModule(IrModule &M, const OptOptions &Options,
                                const PassDumpFn &DumpAfter) {
  OptStats Stats;
  using Clock = std::chrono::steady_clock;
  // One memoized dominator analysis serves the whole invocation:
  // Escape, the CHA devirtualizer, and the SSA sandwich consume the
  // same per-function trees instead of re-deriving dominators per
  // pass. CFG-changing passes invalidate below; instruction-level
  // rewrites don't disturb block-level dominance.
  ssa::DominatorAnalysis DomA;

  // Per-function scheduling. A visit runs the function-local passes
  // over one function. What a visit reads is the function's own body,
  // the bodies of the callees it may inline, and the class hierarchy —
  // and the hierarchy is fixed for the whole invocation (dead-function
  // elimination keeps every vtable entry; dead-field elimination only
  // shrinks layouts). The passes are deterministic, so a visit whose
  // inputs are unchanged since the function's last visit would
  // reproduce that visit's (net-unchanged) result: each round visits
  // only the functions with changed inputs. Change is measured by
  // fingerprint, not by pass-reported rewrite counts, which include
  // rewrites a later pass undoes.
  struct FnState {
    uint64_t Fp = 0;        ///< Fingerprint as of the last look.
    uint64_t SeenAt = 0;    ///< Tick at which the last visit began.
    uint64_t ChangedAt = 1; ///< Tick of the last body change.
    bool Inlinable = false;
    std::vector<IrFunction *> Callees; ///< Direct callees, deduplicated.
  };
  std::unordered_map<const IrFunction *, FnState> State;
  uint64_t Tick = 1;
  // Records \p F's current body: fingerprint, inlinability, callees.
  auto look = [&](IrFunction *F, FnState &S, uint64_t Fp) {
    S.Fp = Fp;
    S.Inlinable = isInlinable(*F, Options.InlineInstrLimit);
    S.Callees.clear();
    for (IrBlock *B : F->Blocks)
      for (IrInstr *I : B->Instrs)
        if (I->Op == Opcode::CallFunc && I->Callee)
          S.Callees.push_back(I->Callee);
    std::sort(S.Callees.begin(), S.Callees.end());
    S.Callees.erase(std::unique(S.Callees.begin(), S.Callees.end()),
                    S.Callees.end());
  };
  auto needsVisit = [&](IrFunction *F) {
    FnState &S = State[F];
    if (S.ChangedAt > S.SeenAt)
      return true;
    if (Options.Inline)
      for (IrFunction *G : S.Callees) {
        const FnState &GS = State[G];
        if (GS.Inlinable && GS.ChangedAt > S.SeenAt)
          return true;
      }
    return false;
  };

  // The round's work list, and its fingerprints (parallel to it). A
  // pass that reports no change leaves every body as it was, so the
  // fingerprints are re-taken only after one that reports a change.
  std::vector<IrFunction *> Work;
  std::vector<uint64_t> Fps;
  bool FpsStale = false;
  auto freshFps = [&] {
    if (FpsStale)
      for (size_t I = 0; I != Work.size(); ++I)
        Fps[I] = fingerprint(*Work[I]);
    FpsStale = false;
  };

  // Runs one pass, banking its wall time into the named OptStats field.
  auto Timed = [&](double OptStats::*Field, auto &&PassFn) -> size_t {
    auto T0 = Clock::now();
    size_t Changed = PassFn();
    Stats.*Field +=
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
    return Changed;
  };
  auto Run = [&](double OptStats::*Field, const char *Name,
                 auto &&PassFn) -> size_t {
    size_t Changed = Timed(Field, PassFn);
    if (DumpAfter)
      DumpAfter(Name);
    return Changed;
  };
  auto isLive = [&](const IrFunction *F) {
    return F->id() < M.Functions.size() && M.Functions[F->id()] == F;
  };
  auto dropDeadFunctions = [&] {
    std::vector<IrFunction *> Before = M.Functions;
    size_t Removed = eliminateDeadFunctions(M);
    Stats.FunctionsRemoved += Removed;
    if (Removed)
      for (IrFunction *F : Before)
        if (!isLive(F))
          DomA.invalidate(F);
    return Removed;
  };

  // Rounds == 0 means no optimization at all.
  if (Options.Rounds != 0)
    Timed(&OptStats::InlineMs, dropDeadFunctions);

  for (unsigned Round = 0; Round != Options.Rounds; ++Round) {
    size_t Bodies = 0;
    Work.clear();
    for (IrFunction *F : M.Functions) {
      if (F->Blocks.empty())
        continue;
      ++Bodies;
      if (needsVisit(F))
        Work.push_back(F);
    }
    Stats.PassRunsSkipped += Bodies - Work.size();
    if (Work.empty()) {
      // Nothing can change any more: the later rounds skip everything.
      Stats.PassRunsSkipped += (Options.Rounds - Round - 1) * Bodies;
      break;
    }
    ++Tick;
    Fps.resize(Work.size());
    FpsStale = false;
    for (size_t I = 0; I != Work.size(); ++I) {
      FnState &S = State[Work[I]];
      if (S.SeenAt == 0)
        look(Work[I], S, fingerprint(*Work[I])); // First visit.
      S.SeenAt = Tick;
      Fps[I] = S.Fp;
    }
    auto invalidateWork = [&] {
      for (IrFunction *F : Work)
        DomA.invalidate(F);
    };
    bool AnyChanged = false;

    if (Options.Devirtualize &&
        Run(&OptStats::DevirtMs, "devirt",
            [&] { return devirtualize(M, Work, Stats, &DomA); }))
      FpsStale = true;
    if (Options.Inline &&
        Run(&OptStats::InlineMs, "inline", [&] {
          size_t N = inlineCalls(M, Work, Options.InlineInstrLimit, Stats);
          if (N)
            invalidateWork(); // Splicing callee blocks reshapes CFGs.
          // Inlined callees may have lost their last caller: drop them
          // before the expensive passes below see them.
          if (dropDeadFunctions()) {
            size_t Kept = 0;
            for (size_t I = 0; I != Work.size(); ++I)
              if (isLive(Work[I])) {
                Work[Kept] = Work[I];
                Fps[Kept++] = Fps[I];
              }
            Work.resize(Kept);
            Fps.resize(Kept);
            AnyChanged = true; // Their field reads are gone too.
          }
          return N;
        }))
      FpsStale = true;
    // Before the sandwich, so the moves, defaults and dead loads that
    // scalar replacement leaves behind are folded in the same visit
    // rather than left over after a function's last visit. Alias
    // chains are still short: the previous visit ended with copy
    // propagation and DCE, and the escape analysis follows Move chains
    // through freshly inlined parameter copies. Before dead-field
    // elimination so fields whose last loads were scalarized away can
    // be dropped in the same round.
    if (Options.Escape &&
        Run(&OptStats::EscapeMs, "escape", [&] {
          return scalarReplaceAllocations(M, Work, Stats, &DomA);
        }))
      FpsStale = true;
    if (Options.Ssa) {
      // The sandwich subsumes Fold and CopyProp: SCCP folds flow-
      // sensitively in one pass and its Move RAUW is global copy
      // propagation. Its stages handle their own tree invalidation,
      // and it leaves Fps current.
      freshFps();
      Run(&OptStats::SsaMs, "ssa-out", [&] {
        ssa::SsaPassStats S;
        size_t N = ssa::runSsaPasses(M, Work, DomA, S, DumpAfter, Fps);
        Stats.PhisPlaced += S.PhisPlaced;
        Stats.SccpFolded += S.SccpFolded;
        Stats.BranchesFolded += S.BranchesFolded;
        Stats.CopiesPropagated += S.CopiesPropagated;
        Stats.LoadsEliminated += S.LoadsEliminated;
        Stats.StoresKilled += S.StoresKilled;
        Stats.NullChecksRemoved += S.NullChecksRemoved;
        Stats.InstrsRemoved += S.InstrsRemoved;
        return N;
      });
    } else {
      if (Options.Fold && Run(&OptStats::FoldMs, "fold", [&] {
            return foldConstants(M, Work, Stats);
          }))
        FpsStale = true;
      if (Options.CopyProp && Run(&OptStats::CopyPropMs, "copyprop", [&] {
            return propagateCopies(Work, Stats);
          }))
        FpsStale = true;
    }
    if (Options.Dce && Run(&OptStats::DceMs, "dce", [&] {
          size_t N = eliminateDeadCode(Work, Stats);
          if (N)
            invalidateWork(); // May delete unreachable blocks.
          return N;
        }))
      FpsStale = true;

    // Close the visits: a function whose fingerprint moved is dirty
    // (one visit need not reach a fixpoint), and so are its callers if
    // it is inlinable. The tick postdates every visit of this round.
    ++Tick;
    freshFps();
    for (size_t I = 0; I != Work.size(); ++I) {
      FnState &S = State[Work[I]];
      if (Fps[I] != S.Fp) {
        look(Work[I], S, Fps[I]);
        S.ChangedAt = Tick;
        AnyChanged = true;
      }
    }
    // Dead fields are a whole-module question; it can only have a new
    // answer when some body changed or was deleted. Its rewrites dirty
    // the functions they touch (every body has been looked at in the
    // first round).
    if (Options.DeadFields && (Round == 0 || AnyChanged) &&
        Run(&OptStats::DeadFieldsMs, "deadfields",
            [&] { return eliminateDeadFields(M, Stats); }))
      for (IrFunction *F : M.Functions) {
        if (F->Blocks.empty())
          continue;
        FnState &S = State[F];
        uint64_t Fp = fingerprint(*F);
        if (Fp != S.Fp) {
          look(F, S, Fp);
          S.ChangedAt = Tick;
        }
      }
  }

  // The last round's folds may have deleted a function's last call.
  if (Options.Rounds != 0)
    Timed(&OptStats::InlineMs, dropDeadFunctions);
  return Stats;
}
