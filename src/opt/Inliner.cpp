//===- opt/Inliner.cpp - Function inlining ---------------------------------===//
///
/// Inlines small direct calls: the callee's blocks are cloned into the
/// caller with a register offset, parameters become moves, and returns
/// become moves to the call's result registers plus a branch to the
/// continuation. Post-monomorphization this is what turns the
/// specialized `print1<int>` into a direct `printInt` call body
/// (paper §3.3) and flattens the synthesized `C.$new` and operator
/// wrappers away.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"

#include <cassert>
#include <vector>

using namespace virgil;

namespace {

/// Size of a callee for budget purposes. Moves don't count: parameter
/// moves, normalization copies, and the scalar-replacement rewrites
/// from the escape pass all fuse away under copy propagation + DCE, so
/// charging them would double-count work that never reaches the
/// emitter and starve inlining right after scalar replacement fires.
size_t instrCount(const IrFunction *F) {
  size_t N = 0;
  for (const IrBlock *B : F->Blocks)
    for (const IrInstr *I : B->Instrs)
      if (I->Op != Opcode::Move)
        ++N;
  return N;
}

bool callsSelf(const IrFunction *F) {
  for (const IrBlock *B : F->Blocks)
    for (const IrInstr *I : B->Instrs)
      if (I->Callee == F)
        return true;
  return false;
}

/// Inlines callee G at instruction index \p Pos of block \p B in F.
void inlineAt(IrModule &M, IrFunction *F, IrBlock *B, size_t Pos) {
  IrInstr *Call = B->Instrs[Pos];
  IrFunction *G = Call->Callee;

  // Register remapping: G's register i becomes F's register Base + i.
  Reg Base = (Reg)F->RegTypes.size();
  for (Type *T : G->RegTypes)
    F->RegTypes.push_back(T);

  // Continuation block inherits the tail of B and B's successors.
  auto *Cont = M.Nodes.make<IrBlock>((uint32_t)F->Blocks.size());
  F->Blocks.push_back(Cont);
  Cont->Instrs.assign(B->Instrs.begin() + Pos + 1, B->Instrs.end());
  Cont->Succ0 = B->Succ0;
  Cont->Succ1 = B->Succ1;
  B->Instrs.resize(Pos); // Drop the call and the tail.

  // Parameter moves.
  assert(Call->Args.size() == G->NumParams && "direct call arity");
  for (size_t I = 0; I != Call->Args.size(); ++I) {
    auto *Mv = M.Nodes.make<IrInstr>();
    Mv->Op = Opcode::Move;
    Mv->Dsts = {Base + (Reg)I};
    Mv->Args = {Call->Args[I]};
    Mv->Ty = G->RegTypes[I];
    B->Instrs.push_back(Mv);
  }

  // Clone G's blocks (position-keyed: ids may be stale after other
  // passes).
  numberBlocks(*G);
  std::vector<IrBlock *> BlockMap(G->Blocks.size());
  for (size_t I = 0; I != G->Blocks.size(); ++I) {
    auto *NB = M.Nodes.make<IrBlock>((uint32_t)F->Blocks.size());
    F->Blocks.push_back(NB);
    BlockMap[I] = NB;
  }
  for (size_t BI = 0; BI != G->Blocks.size(); ++BI) {
    IrBlock *GB = G->Blocks[BI];
    IrBlock *NB = BlockMap[BI];
    if (GB->Succ0)
      NB->Succ0 = BlockMap[GB->Succ0->Pos];
    if (GB->Succ1)
      NB->Succ1 = BlockMap[GB->Succ1->Pos];
    for (IrInstr *GI : GB->Instrs) {
      if (GI->Op == Opcode::Ret) {
        // Return values flow into the call's destinations.
        for (size_t K = 0; K != Call->Dsts.size(); ++K) {
          auto *Mv = M.Nodes.make<IrInstr>();
          Mv->Op = Opcode::Move;
          Mv->Dsts = {Call->Dsts[K]};
          Mv->Args = {GI->Args[K] + Base};
          Mv->Ty = F->RegTypes[Call->Dsts[K]];
          NB->Instrs.push_back(Mv);
        }
        auto *Jump = M.Nodes.make<IrInstr>();
        Jump->Op = Opcode::Br;
        NB->Instrs.push_back(Jump);
        NB->Succ0 = Cont;
        NB->Succ1 = nullptr;
        continue;
      }
      auto *NI = M.Nodes.make<IrInstr>();
      *NI = *GI;
      for (Reg &R : NI->Dsts)
        R += Base;
      for (Reg &R : NI->Args)
        R += Base;
      NB->Instrs.push_back(NI);
    }
  }

  // Jump from the call site into the cloned entry.
  auto *Jump = M.Nodes.make<IrInstr>();
  Jump->Op = Opcode::Br;
  B->Instrs.push_back(Jump);
  B->Succ0 = BlockMap[0];
  B->Succ1 = nullptr;
}

} // namespace

bool virgil::isInlinable(const IrFunction &G, size_t InstrLimit) {
  return !G.Blocks.empty() && G.TypeParams.empty() &&
         instrCount(&G) <= InstrLimit && !callsSelf(&G);
}

size_t virgil::inlineCalls(IrModule &M, FunctionSpan Fns, size_t InstrLimit,
                           OptStats &Stats) {
  size_t Changes = 0;
  // Specialization sharing runs after the last optimizer round; a
  // shared module's register *types* are the representative's and may
  // not match a caller's static view, so inlining (which splices callee
  // registers into the caller by type) must never see one.
  if (M.Shared)
    return 0;
  // Callee verdicts (budget and self-recursion), by function id: -1
  // unknown, 0 no, 1 inlinable. Memoized per round (one inlineCalls
  // call = one round): recomputing from the current IR each round —
  // instead of caching a pre-round size — means a callee shrunk by
  // scalar replacement or DCE becomes inlinable as soon as it actually
  // fits. An entry is reset when its function inlines something (its
  // own size just changed).
  std::vector<signed char> Fits(M.Functions.size(), -1);
  auto fits = [&](const IrFunction *G) {
    signed char &V = Fits[G->id()];
    if (V < 0)
      V = isInlinable(*G, InstrLimit);
    return V != 0;
  };
  for (IrFunction *F : Fns) {
    // One inline per block scan; repeated pass-manager rounds pick up
    // the rest. Bounded to keep a single round linear-ish.
    size_t BudgetPerFunction = 32;
    for (size_t BI = 0; BI != F->Blocks.size() && BudgetPerFunction; ++BI) {
      IrBlock *B = F->Blocks[BI];
      for (size_t Pos = 0; Pos != B->Instrs.size(); ++Pos) {
        IrInstr *I = B->Instrs[Pos];
        if (I->Op != Opcode::CallFunc || !I->Callee)
          continue;
        IrFunction *G = I->Callee;
        if (G == F || G->Blocks.empty())
          continue;
        if (!G->TypeParams.empty())
          continue; // Inline only monomorphic callees.
        if (I->Args.size() != G->NumParams)
          continue; // Shape-adapted interpreter-only call.
        if (!fits(G))
          continue;
        inlineAt(M, F, B, Pos);
        Fits[F->id()] = -1;
        ++Changes;
        ++Stats.CallsInlined;
        --BudgetPerFunction;
        break; // B's instruction list changed; move to the next block.
      }
    }
  }
  return Changes;
}
