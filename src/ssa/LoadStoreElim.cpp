//===- ssa/LoadStoreElim.cpp - Dominance-based load/store elimination -----===//
///
/// Three memory optimizations over the SSA form, all driven by the
/// shared dominator tree:
///
/// * Redundant load elimination: a FieldGet whose (SSA base, field)
///   was read or written by a dominating access — with no intervening
///   call or same-field store — reuses the dominating value; same for
///   GlobalGet per global index. Deleting the load is trap-safe: the
///   base is the *same SSA value* the dominating access already
///   null-checked, so the check it carried is provably redundant too.
///
/// * Same-block dead-store kill: a FieldSet/GlobalSet overwritten by a
///   later store to the same (base, index) with only pure instructions
///   between dies. The purity requirement excludes calls and loads
///   (which could observe the killed store) and trapping instructions
///   (removing the store's own null check must not let a *different*
///   trap fire first and change the reported failure).
///
/// * Redundant NullCheck removal: a check dominated by any null-
///   checking access of the same SSA value is a no-op.
///
/// The walk is EarlyCSE-style: availability tables are scoped to the
/// dominator subtree (undo logs restore them on exit), while clobber
/// clocks — per-field, per-global, and one for calls — are monotonic
/// and never rolled back, so a clobber inside an earlier sibling's
/// subtree correctly invalidates facts an ancestor recorded. Aliasing
/// is structural: distinct field indices never alias, arrays never
/// alias fields, fields never alias globals; any call clobbers all
/// memory.
///
/// Soundness of the clock scheme depends on visit order: dominator-
/// tree children are ordered by RPO (see DomTree::compute), so when a
/// block is entered every predecessor reached by a forward edge — and
/// therefore every store on an acyclic path from a dominating access —
/// has already been scanned and bumped its clocks. The one exception
/// is a back edge: its source is scanned *after* the loop header, so a
/// block with an unvisited predecessor treats the loop body as an
/// unknown clobber and raises the all-memory barrier on entry.
/// Non-null facts are exempt: they describe SSA values, which cannot
/// become null again once proven non-null.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

using namespace virgil;
using namespace virgil::ssa;

namespace {

struct Avail {
  Reg R = NoReg;
  uint64_t T = 0; ///< Clock at which the fact was established.
};

bool isCall(Opcode Op) {
  switch (Op) {
  case Opcode::CallFunc:
  case Opcode::CallVirtual:
  case Opcode::CallIndirect:
  case Opcode::CallBuiltin:
    return true;
  default:
    return false;
  }
}

/// Does executing \p Op prove Args[0] (its base operand) is non-null?
bool nullChecksBase(Opcode Op) {
  switch (Op) {
  case Opcode::FieldGet:
  case Opcode::FieldSet:
  case Opcode::NullCheck:
  case Opcode::ArrayGet:
  case Opcode::ArraySet:
  case Opcode::ArrayLen:
  case Opcode::BoundsCheck:
    return true;
  default:
    return false;
  }
}

/// Same-block dead-store kill (see file comment for the safety rule).
size_t killDeadStores(IrFunction &F, std::vector<IrInstr *> &Dead,
                      SsaPassStats &Stats) {
  size_t Killed = 0;
  for (IrBlock *B : F.Blocks) {
    std::map<std::pair<Reg, int>, IrInstr *> PendingField;
    std::map<int, IrInstr *> PendingGlobal;
    for (IrInstr *I : B->Instrs) {
      if (I->Op == Opcode::FieldSet) {
        auto Key = std::make_pair(I->Args[0], I->Index);
        auto It = PendingField.find(Key);
        IrInstr *Victim = It != PendingField.end() ? It->second : nullptr;
        // A store is impure: it invalidates every other pending kill
        // window before opening its own.
        PendingField.clear();
        PendingGlobal.clear();
        if (Victim) {
          Dead.push_back(Victim);
          ++Killed;
          ++Stats.StoresKilled;
        }
        PendingField[Key] = I;
        continue;
      }
      if (I->Op == Opcode::GlobalSet) {
        auto It = PendingGlobal.find(I->Index);
        IrInstr *Victim = It != PendingGlobal.end() ? It->second : nullptr;
        PendingField.clear();
        PendingGlobal.clear();
        if (Victim) {
          Dead.push_back(Victim);
          ++Killed;
          ++Stats.StoresKilled;
        }
        PendingGlobal[I->Index] = I;
        continue;
      }
      if (I->Op == Opcode::GlobalGet) {
        // Pure, but it observes the global: only that window closes.
        PendingGlobal.erase(I->Index);
        continue;
      }
      if (!isPure(I->Op)) {
        PendingField.clear();
        PendingGlobal.clear();
      }
    }
  }
  return Killed;
}

} // namespace

size_t virgil::ssa::runLoadStoreElim(IrModule &M, IrFunction &F,
                                     const DomTree &DT, SsaInfo &Info,
                                     SsaPassStats &Stats) {
  (void)M;
  if (F.Blocks.empty())
    return 0;

  std::vector<IrInstr *> Dead;
  size_t Changes = killDeadStores(F, Dead, Stats);
  // The killed stores, sorted for the walk's membership test; the walk
  // only appends the instruction it is looking at, never revisited.
  std::vector<IrInstr *> Killed = Dead;
  std::sort(Killed.begin(), Killed.end());
  RegRepl Repl(F.RegTypes.size());

  // Scoped state (undone on subtree exit).
  std::map<std::pair<Reg, int>, Avail> FieldAvail;
  std::map<int, Avail> GlobalAvail;
  std::set<Reg> NonNull;
  // Monotonic clobber clocks (never undone).
  std::map<int, uint64_t> FieldClobber, GlobalClobber;
  uint64_t CallClobber = 0;
  uint64_t Clock = 0;

  std::vector<std::function<void()>> Undo;

  auto setField = [&](std::pair<Reg, int> Key, Reg R) {
    auto It = FieldAvail.find(Key);
    if (It != FieldAvail.end()) {
      Avail Old = It->second;
      Undo.push_back([&FieldAvail, Key, Old] { FieldAvail[Key] = Old; });
    } else {
      Undo.push_back([&FieldAvail, Key] { FieldAvail.erase(Key); });
    }
    FieldAvail[Key] = {R, ++Clock};
  };
  auto setGlobal = [&](int Idx, Reg R) {
    auto It = GlobalAvail.find(Idx);
    if (It != GlobalAvail.end()) {
      Avail Old = It->second;
      Undo.push_back([&GlobalAvail, Idx, Old] { GlobalAvail[Idx] = Old; });
    } else {
      Undo.push_back([&GlobalAvail, Idx] { GlobalAvail.erase(Idx); });
    }
    GlobalAvail[Idx] = {R, ++Clock};
  };
  auto addNonNull = [&](Reg R) {
    if (NonNull.insert(R).second)
      Undo.push_back([&NonNull, R] { NonNull.erase(R); });
  };
  auto fieldValid = [&](const Avail &A, int Idx) {
    auto It = FieldClobber.find(Idx);
    uint64_t C = It == FieldClobber.end() ? 0 : It->second;
    return A.R != NoReg && A.T > C && A.T > CallClobber;
  };
  auto globalValid = [&](const Avail &A, int Idx) {
    auto It = GlobalClobber.find(Idx);
    uint64_t C = It == GlobalClobber.end() ? 0 : It->second;
    return A.R != NoReg && A.T > C && A.T > CallClobber;
  };

  struct Frame {
    int Block;
    size_t NextChild = 0;
    size_t UndoMark = 0;
  };
  std::vector<Frame> Stack;
  std::vector<char> Visited(DT.numBlocks(), 0);
  Stack.push_back({0, 0, 0});
  bool Enter = true;
  while (!Stack.empty()) {
    Frame &Fr = Stack.back();
    if (Enter) {
      Fr.UndoMark = Undo.size();
      Visited[(size_t)Fr.Block] = 1;
      // Loop header: some predecessor (the back edge's source) hasn't
      // been scanned yet, so its stores aren't in the clocks — treat
      // the loop body as clobbering all memory.
      for (const PredEdge &E : DT.preds(Fr.Block)) {
        int PI = DT.indexOf(E.Pred);
        if (PI >= 0 && DT.reachable(PI) && !Visited[(size_t)PI]) {
          CallClobber = ++Clock;
          break;
        }
      }
      IrBlock *B = F.Blocks[(size_t)Fr.Block];
      for (IrInstr *I : B->Instrs) {
        if (std::binary_search(Killed.begin(), Killed.end(), I))
          continue; // A killed store contributes no facts.
        switch (I->Op) {
        case Opcode::FieldGet: {
          Reg Base = I->Args[0];
          auto Key = std::make_pair(Base, I->Index);
          auto It = FieldAvail.find(Key);
          if (It != FieldAvail.end() && fieldValid(It->second, I->Index)) {
            Repl.set(I->Dsts[0], It->second.R);
            Dead.push_back(I);
            ++Stats.LoadsEliminated;
            ++Changes;
            break;
          }
          setField(Key, I->Dsts[0]);
          addNonNull(Base);
          break;
        }
        case Opcode::FieldSet: {
          FieldClobber[I->Index] = ++Clock;
          setField(std::make_pair(I->Args[0], I->Index), I->Args[1]);
          addNonNull(I->Args[0]);
          break;
        }
        case Opcode::GlobalGet: {
          auto It = GlobalAvail.find(I->Index);
          if (It != GlobalAvail.end() && globalValid(It->second, I->Index)) {
            Repl.set(I->Dsts[0], It->second.R);
            Dead.push_back(I);
            ++Stats.LoadsEliminated;
            ++Changes;
            break;
          }
          setGlobal(I->Index, I->Dsts[0]);
          break;
        }
        case Opcode::GlobalSet: {
          GlobalClobber[I->Index] = ++Clock;
          setGlobal(I->Index, I->Args[0]);
          break;
        }
        case Opcode::NullCheck: {
          Reg Base = I->Args[0];
          if (NonNull.count(Base)) {
            Dead.push_back(I);
            ++Stats.NullChecksRemoved;
            ++Changes;
            break;
          }
          addNonNull(Base);
          break;
        }
        case Opcode::NewObject:
        case Opcode::NewArray:
        case Opcode::ConstString:
          // Freshly allocated references are never null.
          addNonNull(I->Dsts[0]);
          break;
        default:
          if (isCall(I->Op))
            CallClobber = ++Clock;
          else if (nullChecksBase(I->Op) && !I->Args.empty())
            addNonNull(I->Args[0]);
          break;
        }
      }
      Enter = false;
    }
    const auto &Kids = DT.children(Stack.back().Block);
    if (Stack.back().NextChild < Kids.size()) {
      int C = Kids[Stack.back().NextChild++];
      Stack.push_back({C, 0, 0});
      Enter = true;
      continue;
    }
    while (Undo.size() > Stack.back().UndoMark) {
      Undo.back()();
      Undo.pop_back();
    }
    Stack.pop_back();
  }

  applyReplacements(F, Repl, Info);
  eraseInstrs(F, Dead);
  return Changes;
}
