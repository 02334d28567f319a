//===- opt/Devirtualizer.cpp - CHA-based devirtualization -----------------===//
///
/// Class-hierarchy analysis: a virtual call whose receiver's static
/// class has exactly one implementation of the slot across its subtree
/// becomes a direct call (the paper lists CHA-style whole-program
/// optimization among the Virgil compiler's passes, and the §3
/// patterns rely on generic classes like Matcher being effectively
/// final after monomorphization).
///
/// Two strengthenings over the naive per-site scan:
///
///  * the subtree/implementer sets come from one precomputed
///    `ClassHierarchy` per pass invocation instead of an O(classes)
///    scan per call site;
///  * *exact-receiver* devirtualization: a receiver whose single
///    definition is a `new.object` that dominates the call (earlier in
///    the same block, or in a dominating block per the shared
///    dominator tree) has a known dynamic class, so the call resolves
///    through that class's vtable even when the hierarchy has many
///    implementers. This is what lets the inliner reach method bodies
///    on locally allocated objects, which in turn is what makes those
///    allocations scalar-replaceable by the escape pass.
///
/// A virtual call null-checks its receiver before dispatching; a
/// direct call does not. CHA-devirtualized sites therefore get an
/// explicit `null.check` so the trap survives the rewrite (the
/// exact-receiver form needs none — the receiver is a fresh
/// allocation and statically non-null).
///
//===----------------------------------------------------------------------===//

#include "opt/Escape.h"
#include "opt/PassManager.h"
#include "ssa/Ssa.h"
#include "support/Casting.h"

#include <map>
#include <vector>

using namespace virgil;

namespace {

/// Turns \p I into a direct call of \p Impl in place.
void makeDirect(IrInstr *I, IrFunction *Impl) {
  I->Op = Opcode::CallFunc;
  I->Callee = Impl;
  I->TypeOperand = nullptr;
  I->Index = -1;
}

/// A direct call passes the site's argument registers verbatim, but
/// virtual dispatch adapts between parameter-list shapes of the same
/// function type (§4.1: an override may take one tuple where the base
/// takes scalars). Only rewrite when the impl's register-level shape
/// matches the site exactly.
bool shapeMatches(const IrInstr *I, const IrFunction *Impl) {
  return I->Args.size() == Impl->NumParams &&
         I->Dsts.size() == Impl->RetTypes.size();
}

size_t devirtFunction(IrModule &M, IrFunction *F, const ClassHierarchy &CH,
                      const ssa::DomTree &DT, OptStats &Stats) {
  size_t Changes = 0;
  // Single-definition table: Defs[r] is r's last defining instruction
  // plus its block and index, meaningful when DefCount[r] == 1 (a
  // parameter counts as an implicit definition).
  struct DefSite {
    IrInstr *I = nullptr;
    IrBlock *B = nullptr;
    size_t Idx = 0;
  };
  std::vector<DefSite> Defs(F->RegTypes.size());
  std::vector<uint32_t> DefCount(F->RegTypes.size(), 0);
  for (Reg P = 0; P != F->NumParams; ++P)
    ++DefCount[P];
  for (IrBlock *B : F->Blocks)
    for (size_t I = 0; I != B->Instrs.size(); ++I)
      for (Reg D : B->Instrs[I]->Dsts) {
        ++DefCount[D];
        Defs[D] = {B->Instrs[I], B, I};
      }

  // Null checks to splice in front of CHA-devirtualized calls.
  std::map<IrInstr *, IrInstr *> CheckBefore;

  for (IrBlock *B : F->Blocks) {
    for (size_t Idx = 0; Idx != B->Instrs.size(); ++Idx) {
      IrInstr *I = B->Instrs[Idx];
      if (I->Op != Opcode::CallVirtual || I->Args.empty())
        continue;
      IrClass *Static = CH.resolve(I->TypeOperand);
      if (!Static || I->Index < 0 ||
          (size_t)I->Index >= Static->VTable.size())
        continue;

      // Exact receiver: the unique def is a new.object that dominates
      // this call (earlier in this block, or in a dominating block),
      // so the dynamic class — and thus the vtable entry — is known
      // regardless of how many implementers exist. Dominance also
      // proves the receiver non-null: the one def always runs first,
      // which is why this form needs no null.check.
      Reg Recv = I->Args[0];
      const DefSite &DS = Defs[Recv];
      bool DefDominates =
          DS.I && (DS.B == B ? DS.Idx < Idx : DT.dominates(DS.B, B));
      if (DefCount[Recv] == 1 && DS.I &&
          DS.I->Op == Opcode::NewObject && DefDominates) {
        IrClass *Exact = CH.resolve(DS.I->TypeOperand);
        if (Exact && (size_t)I->Index < Exact->VTable.size() &&
            Exact->VTable[I->Index] &&
            shapeMatches(I, Exact->VTable[I->Index])) {
          makeDirect(I, Exact->VTable[I->Index]);
          ++Changes;
          ++Stats.CallsDevirtualized;
          continue;
        }
      }

      IrFunction *Impl = CH.singleImpl(Static, I->Index);
      if (!Impl || !shapeMatches(I, Impl))
        continue;
      // If the static class's own slot is empty (abstract at the
      // root), an instance of the root would trap "abstract method"
      // under dispatch; a direct call to the lone subclass impl would
      // silently run instead. Only rewrite when the impl is inherited
      // by the whole subtree, i.e. it sits in the root's own vtable.
      if (Static->VTable[I->Index] != Impl)
        continue;
      // Preserve the virtual call's receiver null check.
      IrInstr *NC = M.Nodes.make<IrInstr>();
      NC->Op = Opcode::NullCheck;
      NC->Loc = I->Loc;
      NC->Args = {Recv};
      NC->Ty = F->RegTypes[Recv];
      CheckBefore[I] = NC;
      makeDirect(I, Impl);
      ++Changes;
      ++Stats.CallsDevirtualized;
      ++Stats.DevirtualizedByCha;
    }
  }

  if (!CheckBefore.empty()) {
    for (IrBlock *B : F->Blocks) {
      std::vector<IrInstr *> Out;
      Out.reserve(B->Instrs.size() + CheckBefore.size());
      for (IrInstr *I : B->Instrs) {
        auto It = CheckBefore.find(I);
        if (It != CheckBefore.end())
          Out.push_back(It->second);
        Out.push_back(I);
      }
      B->Instrs = std::move(Out);
    }
  }
  return Changes;
}

} // namespace

size_t virgil::devirtualize(IrModule &M, FunctionSpan Fns, OptStats &Stats,
                            ssa::DominatorAnalysis *DomA) {
  // Direct calls created here carry no type arguments, so this pass is
  // only sound once monomorphization has erased them.
  if (!M.Monomorphized)
    return 0;
  // After specialization sharing, vtable entries are equivalence
  // representatives: turning a virtual call into a direct call would be
  // behaviorally sound (identical bodies) but would bypass the shared
  // redirect invariants the verifier enforces, so the pass declines —
  // sharing runs after the optimizer by construction anyway.
  if (M.Shared)
    return 0;
  ClassHierarchy CH(M);
  // Standalone callers (tests) get a local throwaway analysis; the
  // pass manager threads its shared one through. The rewrite only
  // splices instructions, so the trees stay valid.
  ssa::DominatorAnalysis Local;
  ssa::DominatorAnalysis &DA = DomA ? *DomA : Local;
  size_t Changes = 0;
  for (IrFunction *F : Fns) {
    // Most bodies have no virtual call left: skip them before paying
    // for a dominator tree.
    bool HasVirtual = false;
    for (IrBlock *B : F->Blocks)
      for (IrInstr *I : B->Instrs)
        HasVirtual |= I->Op == Opcode::CallVirtual;
    if (HasVirtual)
      Changes += devirtFunction(M, F, CH, DA.get(F), Stats);
  }
  return Changes;
}
