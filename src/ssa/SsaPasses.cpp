//===- ssa/SsaPasses.cpp - The staged module-wide SSA sandwich ------------===//
///
/// Drives the sandwich for every function of the module in stages —
/// build everywhere, then SCCP everywhere, then load/store elimination
/// everywhere, then DCE + destruction + register compaction — rather
/// than function-at-a-time, so `--dump-ir=<pass>` can print the whole
/// module in SSA form at each stage boundary. When strict-SSA
/// verification is enabled (Debug builds, VIRGIL_SSA_VERIFY=on, or the
/// differential-fuzz oracle) every function is re-verified after every
/// SSA-form stage, and a violation aborts the process — the fuzzer
/// classifies that as a crash and reduces the input.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"

#include "ir/IrVerifier.h"

#include <cstdio>
#include <cstdlib>

using namespace virgil;
using namespace virgil::ssa;

namespace {

void maybeVerify(const IrModule &M, const IrFunction &F, const char *Stage) {
  if (!ssaVerifyEnabled())
    return;
  auto Problems = verifyFunctionSsa(M, F);
  if (Problems.empty())
    return;
  std::fprintf(stderr,
               "virgil: strict-SSA verification failed after %s in '%s':\n",
               Stage, F.Name.c_str());
  for (const std::string &P : Problems)
    std::fprintf(stderr, "  %s\n", P.c_str());
  std::abort();
}

/// SSA construction assumes the entry block has no predecessors (the
/// implicit function-entry edge must not meet a backedge in a phi). A
/// lowered body whose first block is also a loop header gets a fresh
/// forwarding entry.
bool ensureVirginEntry(IrModule &M, IrFunction &F) {
  if (F.Blocks.empty())
    return false;
  IrBlock *Entry = F.Blocks[0];
  bool HasPred = false;
  for (IrBlock *B : F.Blocks)
    if (B->Succ0 == Entry || B->Succ1 == Entry)
      HasPred = true;
  if (!HasPred)
    return false;
  auto *E = M.Nodes.make<IrBlock>((uint32_t)F.Blocks.size());
  auto *Jump = M.Nodes.make<IrInstr>();
  Jump->Op = Opcode::Br;
  E->Instrs.push_back(Jump);
  E->Succ0 = Entry;
  F.Blocks.insert(F.Blocks.begin(), E);
  return true;
}

} // namespace

size_t virgil::ssa::runSsaPasses(
    IrModule &M, std::span<IrFunction *const> Fns, DominatorAnalysis &DomA,
    SsaPassStats &Stats, const std::function<void(const char *)> &DumpAfter,
    std::span<uint64_t> Fps) {
  // Shared modules redirect metadata to equivalence representatives;
  // optimizer passes must not touch them (same guard as every pass).
  if (M.Shared)
    return 0;

  struct FnState {
    IrFunction *F;
    size_t Idx; ///< Position in Fns (and Fps).
    uint64_t Before;
    SsaInfo Info;
  };
  std::vector<FnState> States;
  States.reserve(Fns.size());

  // Stage 1: construction.
  for (size_t Idx = 0; Idx != Fns.size(); ++Idx) {
    IrFunction *F = Fns[Idx];
    if (F->Blocks.empty())
      continue;
    uint64_t Before = Fps.empty() ? fingerprint(*F) : Fps[Idx];
    bool CfgChanged = removeUnreachableBlocks(*F) != 0;
    CfgChanged |= ensureVirginEntry(M, *F);
    if (CfgChanged)
      DomA.invalidate(F);
    States.push_back({F, Idx, Before, {}});
    Stats.PhisPlaced += buildSsa(M, *F, DomA.get(F), States.back().Info);
    maybeVerify(M, *F, "ssa construction");
  }
  if (DumpAfter)
    DumpAfter("ssa");

  // Stage 2: sparse conditional constant propagation. Folded branches
  // change the CFG (edges dropped, unreachable blocks deleted), so the
  // tree is recomputed before the next dominance consumer.
  for (FnState &S : States) {
    size_t Folded0 = Stats.BranchesFolded;
    runSccp(M, *S.F, DomA.get(S.F), S.Info, Stats);
    if (Stats.BranchesFolded != Folded0)
      DomA.invalidate(S.F);
    maybeVerify(M, *S.F, "sccp");
  }
  if (DumpAfter)
    DumpAfter("sccp");

  // Stage 3: dominance-based load/store elimination.
  for (FnState &S : States) {
    runLoadStoreElim(M, *S.F, DomA.get(S.F), S.Info, Stats);
    maybeVerify(M, *S.F, "loadelim");
  }
  if (DumpAfter)
    DumpAfter("loadelim");

  // Stage 4: sweep dead SSA values (so they place no edge copies),
  // destruct, and compact the register file. Destruction may split
  // critical edges — the tree is stale afterwards.
  size_t Changed = 0;
  for (FnState &S : States) {
    Stats.InstrsRemoved += runSsaDce(*S.F, S.Info);
    destroySsa(M, *S.F, S.Info, Stats);
    compactRegisters(*S.F);
    DomA.invalidate(S.F);
    uint64_t After = fingerprint(*S.F);
    if (!Fps.empty())
      Fps[S.Idx] = After;
    if (After != S.Before)
      ++Changed;
  }
  return Changed;
}
