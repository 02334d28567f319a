//===- opt/CopyProp.cpp - Block-local copy propagation --------------------===//
///
/// Replaces uses of `Move` results by their sources within a block,
/// invalidating mappings when either side is redefined (registers are
/// not SSA). Normalization introduces large numbers of moves in place
/// of TupleCreate/TupleGet; this pass plus DCE removes almost all of
/// them, which is what makes flattened tuples genuinely free.
///
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"

#include <map>

using namespace virgil;

size_t virgil::propagateCopies(FunctionSpan Fns, OptStats &Stats) {
  size_t Changes = 0;
  for (IrFunction *F : Fns) {
    for (IrBlock *B : F->Blocks) {
      // Dst -> current source register.
      std::map<Reg, Reg> Copies;
      auto invalidate = [&](Reg R) {
        Copies.erase(R);
        for (auto It = Copies.begin(); It != Copies.end();) {
          if (It->second == R)
            It = Copies.erase(It);
          else
            ++It;
        }
      };
      for (IrInstr *I : B->Instrs) {
        // Rewrite uses first.
        for (Reg &A : I->Args) {
          auto It = Copies.find(A);
          if (It != Copies.end()) {
            A = It->second;
            ++Changes;
            ++Stats.CopiesPropagated;
          }
        }
        // Then account for definitions.
        for (Reg D : I->Dsts)
          invalidate(D);
        if (I->Op == Opcode::Move && I->Args[0] != I->dst())
          Copies[I->dst()] = I->Args[0];
      }
    }
  }
  return Changes;
}
