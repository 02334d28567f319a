//===- opt/Dce.cpp - Dead code and unreachable block elimination ----------===//
///
/// Removes pure instructions whose results are never read anywhere in
/// the function (global liveness over registers, iterated to a
/// fixpoint) along with their registers, drops blocks unreachable from
/// the entry, and merges straight-line block chains.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"
#include "ssa/Ssa.h"

#include <vector>

using namespace virgil;

namespace {

size_t dceFunction(IrFunction *F, OptStats &Stats) {
  size_t Changes = 0;

  // 1. Unreachable blocks.
  numberBlocks(*F);
  std::vector<char> Reached(F->Blocks.size(), 0);
  std::vector<IrBlock *> Work{F->Blocks[0]};
  Reached[0] = 1;
  while (!Work.empty()) {
    IrBlock *B = Work.back();
    Work.pop_back();
    for (IrBlock *S : {B->Succ0, B->Succ1})
      if (S && !Reached[S->Pos]) {
        Reached[S->Pos] = 1;
        Work.push_back(S);
      }
  }
  std::vector<IrBlock *> Kept;
  Kept.reserve(F->Blocks.size());
  for (IrBlock *B : F->Blocks)
    if (Reached[B->Pos])
      Kept.push_back(B);
  if (Kept.size() != F->Blocks.size()) {
    Stats.BlocksRemoved += F->Blocks.size() - Kept.size();
    Changes += F->Blocks.size() - Kept.size();
    F->Blocks = std::move(Kept);
    numberBlocks(*F);
  }

  // 2. Merge straight-line chains: B -> S where S has exactly one
  // predecessor. Splicing S into B hands S's out-edges to B, so no
  // other block's predecessor count moves and one sweep (following
  // each B down its chain) reaches the fixpoint.
  std::vector<uint32_t> Preds(F->Blocks.size(), 0);
  for (IrBlock *B : F->Blocks) {
    if (B->Succ0)
      ++Preds[B->Succ0->Pos];
    if (B->Succ1)
      ++Preds[B->Succ1->Pos];
  }
  std::vector<char> Merged(F->Blocks.size(), 0);
  bool AnyMerged = false;
  for (IrBlock *B : F->Blocks) {
    if (Merged[B->Pos])
      continue;
    for (;;) {
      if (!B->Succ0 || B->Succ1 || B->Succ0 == B)
        break;
      IrBlock *S = B->Succ0;
      if (S == F->Blocks[0] || Preds[S->Pos] != 1)
        break;
      if (B->Instrs.empty() || B->Instrs.back()->Op != Opcode::Br)
        break;
      // Splice S into B.
      B->Instrs.pop_back();
      B->Instrs.insert(B->Instrs.end(), S->Instrs.begin(), S->Instrs.end());
      B->Succ0 = S->Succ0;
      B->Succ1 = S->Succ1;
      Merged[S->Pos] = 1;
      AnyMerged = true;
      ++Stats.BlocksRemoved;
      ++Changes;
    }
  }
  if (AnyMerged) {
    Kept.clear();
    for (IrBlock *B : F->Blocks)
      if (!Merged[B->Pos])
        Kept.push_back(B);
    F->Blocks = std::move(Kept);
  }

  // 3. Dead pure instructions (fixpoint). Use counts are kept current
  // as instructions die, and each sweep runs backwards so a chain of
  // straight-line definitions dies in one sweep; removal only lowers
  // counts, so the fixpoint is the same in any order.
  std::vector<uint32_t> Uses(F->RegTypes.size(), 0);
  for (IrBlock *B : F->Blocks)
    for (IrInstr *I : B->Instrs)
      for (Reg A : I->Args)
        ++Uses[A];
  for (bool Removed = true; Removed;) {
    Removed = false;
    for (auto BIt = F->Blocks.rbegin(); BIt != F->Blocks.rend(); ++BIt) {
      std::vector<IrInstr *> &Instrs = (*BIt)->Instrs;
      size_t Out = Instrs.size();
      for (size_t K = Instrs.size(); K-- != 0;) {
        IrInstr *I = Instrs[K];
        bool Dead = isPure(I->Op) && !I->Dsts.empty();
        if (Dead)
          for (Reg D : I->Dsts)
            if (Uses[D])
              Dead = false;
        // Self-moves are dead even though their dst is "used".
        if (I->Op == Opcode::Move && I->Args[0] == I->dst())
          Dead = true;
        if (!Dead) {
          Instrs[--Out] = I;
          continue;
        }
        for (Reg A : I->Args)
          --Uses[A];
        ++Stats.InstrsRemoved;
        ++Changes;
        Removed = true;
      }
      Instrs.erase(Instrs.begin(), Instrs.begin() + (ptrdiff_t)Out);
    }
  }
  // Drop the dead values' registers too, so the frame shrinks with the
  // code, and renumber what is left: removed instructions and merged
  // blocks both move registers' first appearances, and the next SSA
  // round trip should find the body already in canonical numbering.
  if (Changes)
    ssa::compactRegisters(*F);
  return Changes;
}

} // namespace

size_t virgil::eliminateDeadCode(FunctionSpan Fns, OptStats &Stats) {
  size_t Changes = 0;
  for (IrFunction *F : Fns)
    if (!F->Blocks.empty())
      Changes += dceFunction(F, Stats);
  return Changes;
}
