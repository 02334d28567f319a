//===- opt/DeadFunctions.cpp - Dead-function elimination ------------------===//
///
/// Monomorphization's price is code expansion (paper §4.3), and the
/// inliner doubles it: once a specialization has been copied into
/// every caller, its own body is dead, yet every later pass, the
/// sharing pass, the emitter, the serializer and BcPrepare would still
/// pay for it. This pass drops every function no root can reach. The
/// roots are the module's Main and Init and every class's vtable
/// entries (dispatch may select any of them); reachability follows
/// every instruction's Callee (CallFunc targets and MakeClosure
/// targets, wherever the closure is later stored or called).
/// Survivors are renumbered to their new table positions, as
/// specialization sharing does.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"

#include <cassert>
#include <vector>

using namespace virgil;

size_t virgil::eliminateDeadFunctions(IrModule &M) {
  // Pre-mono modules are interpreted with their generic bodies, and a
  // shared module's bodies stand for whole equivalence classes.
  if (!M.Monomorphized || M.Shared)
    return 0;
  size_t N = M.Functions.size();
  std::vector<char> Live(N, 0);
  std::vector<IrFunction *> Work;
  auto reach = [&](IrFunction *F) {
    if (!F)
      return;
    assert(F->id() < N && M.Functions[F->id()] == F &&
           "function ids must be table positions");
    if (!Live[F->id()]) {
      Live[F->id()] = 1;
      Work.push_back(F);
    }
  };
  reach(M.Main);
  reach(M.Init);
  for (IrClass *C : M.Classes)
    for (IrFunction *F : C->VTable)
      reach(F);
  while (!Work.empty()) {
    IrFunction *F = Work.back();
    Work.pop_back();
    for (IrBlock *B : F->Blocks)
      for (IrInstr *I : B->Instrs)
        reach(I->Callee);
  }

  std::vector<IrFunction *> Kept;
  Kept.reserve(N);
  for (IrFunction *F : M.Functions)
    if (Live[F->id()])
      Kept.push_back(F);
  size_t Removed = N - Kept.size();
  if (Removed == 0)
    return 0;
  for (size_t I = 0; I != Kept.size(); ++I)
    Kept[I]->renumber((uint32_t)I);
  M.Functions = std::move(Kept);
  return Removed;
}
