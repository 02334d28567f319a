//===- ssa/SsaBuilder.cpp - Pruned-SSA construction and destruction -------===//
///
/// Construction: liveness-pruned phi placement at iterated dominance
/// frontiers, then a dominator-tree renaming walk that gives every
/// definition a fresh register. Uses of a register no definition
/// reaches keep the original register — the frame default — which
/// preserves the interpreter's uninitialized-variable semantics
/// without materializing explicit defaults.
///
/// Destruction: congruence-class out-of-SSA. Values map back to their
/// original variable's register unless tainted (an optimization
/// extended their live range via RAUW, breaking the conventional-SSA
/// non-interference of the class), in which case they get a fresh
/// singleton register. Phi copies are emitted per in-edge as a
/// sequentialized parallel copy (cycle-safe), with critical edges
/// split so a copy never executes on the wrong path. Because
/// untainted classes collapse to the original register, a loop
/// variable's phi and its backedge definition coalesce to zero copies
/// — the "copy-coalescing" that keeps round-tripping free.
///
//===----------------------------------------------------------------------===//

#include "ssa/SsaInternal.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

using namespace virgil;
using namespace virgil::ssa;

//===----------------------------------------------------------------------===//
// Verification toggle
//===----------------------------------------------------------------------===//

namespace {

int defaultVerify() {
#ifndef NDEBUG
  return 1;
#else
  const char *V = std::getenv("VIRGIL_SSA_VERIFY");
  return V && (!std::strcmp(V, "on") || !std::strcmp(V, "1")) ? 1 : 0;
#endif
}

std::atomic<int> &verifyFlag() {
  static std::atomic<int> Flag(defaultVerify());
  return Flag;
}

} // namespace

bool virgil::ssa::ssaVerifyEnabled() { return verifyFlag().load() != 0; }
void virgil::ssa::setSsaVerifyEnabled(bool Enabled) {
  verifyFlag().store(Enabled ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

void virgil::ssa::applyReplacements(IrFunction &F, const RegRepl &Repl,
                                    SsaInfo &Info) {
  if (!Repl.Any)
    return;
  const std::vector<Reg> &Map = Repl.Map;
  auto resolve = [&](Reg R) {
    // Chains are acyclic (a deleted definition never reappears as a
    // target), but bound the walk defensively.
    for (size_t Guard = 0; Guard <= Map.size(); ++Guard) {
      if (R >= Map.size() || Map[R] == NoReg)
        return R;
      R = Map[R];
    }
    return R;
  };
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs)
      for (Reg &A : I->Args) {
        Reg T = resolve(A);
        if (T != A) {
          A = T;
          Info.taint(T);
        }
      }
}

void virgil::ssa::eraseInstrs(IrFunction &F, std::vector<IrInstr *> &Dead) {
  if (Dead.empty())
    return;
  std::sort(Dead.begin(), Dead.end());
  for (IrBlock *B : F.Blocks)
    B->Instrs.erase(std::remove_if(B->Instrs.begin(), B->Instrs.end(),
                                   [&](IrInstr *I) {
                                     return std::binary_search(
                                         Dead.begin(), Dead.end(), I);
                                   }),
                    B->Instrs.end());
}

std::vector<char> virgil::ssa::reachableBlocks(const IrFunction &F) {
  numberBlocks(F);
  std::vector<char> Live(F.Blocks.size(), 0);
  if (F.Blocks.empty())
    return Live;
  std::vector<IrBlock *> Work{F.Blocks[0]};
  Live[0] = 1;
  while (!Work.empty()) {
    IrBlock *B = Work.back();
    Work.pop_back();
    for (IrBlock *S : {B->Succ0, B->Succ1})
      if (S && !Live[S->Pos]) {
        Live[S->Pos] = 1;
        Work.push_back(S);
      }
  }
  return Live;
}

size_t virgil::ssa::removeUnreachableBlocks(IrFunction &F) {
  std::vector<char> Live = reachableBlocks(F);
  size_t Before = F.Blocks.size();
  F.Blocks.erase(std::remove_if(F.Blocks.begin(), F.Blocks.end(),
                                [&](IrBlock *B) { return !Live[B->Pos]; }),
                 F.Blocks.end());
  return Before - F.Blocks.size();
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

namespace {

/// Dense per-block bitsets over the original register space.
struct BitMatrix {
  size_t Words;
  std::vector<uint64_t> Bits;
  BitMatrix(size_t Blocks, size_t Regs)
      : Words((Regs + 63) / 64), Bits(Blocks * Words, 0) {}
  uint64_t *row(size_t B) { return Bits.data() + B * Words; }
  bool test(size_t B, Reg R) const {
    return (Bits[B * Words + R / 64] >> (R % 64)) & 1;
  }
  void set(size_t B, Reg R) { Bits[B * Words + R / 64] |= 1ull << (R % 64); }
};

} // namespace

size_t virgil::ssa::buildSsa(IrModule &M, IrFunction &F, const DomTree &DT,
                             SsaInfo &Info) {
  size_t NumBlocks = F.Blocks.size();
  Reg NumRegs = (Reg)F.RegTypes.size();
  Info.FirstSsaReg = NumRegs;
  Info.OrigOfSsa.clear();
  Info.Tainted.clear();
  if (NumBlocks == 0)
    return 0;

  // Liveness for pruning: Gen = upward-exposed uses, Kill = defs.
  BitMatrix Gen(NumBlocks, NumRegs), Kill(NumBlocks, NumRegs);
  BitMatrix LiveIn(NumBlocks, NumRegs), LiveOut(NumBlocks, NumRegs);
  std::vector<std::vector<int>> DefBlocks(NumRegs);
  for (size_t BI = 0; BI != NumBlocks; ++BI) {
    IrBlock *B = F.Blocks[BI];
    for (IrInstr *I : B->Instrs) {
      for (Reg A : I->Args)
        if (!Kill.test(BI, A))
          Gen.set(BI, A);
      for (Reg D : I->Dsts) {
        if (!Kill.test(BI, D))
          Kill.set(BI, D);
        auto &DB = DefBlocks[D];
        if (DB.empty() || DB.back() != (int)BI)
          DB.push_back((int)BI);
      }
    }
  }
  // Parameters are defined on entry.
  for (Reg P = 0; P != F.NumParams && P != NumRegs; ++P) {
    auto &DB = DefBlocks[P];
    if (std::find(DB.begin(), DB.end(), 0) == DB.end())
      DB.push_back(0);
  }

  // Backward liveness fixpoint (iterate in postorder for fast
  // convergence).
  size_t W = Gen.Words;
  if (W != 0) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto It = DT.rpo().rbegin(); It != DT.rpo().rend(); ++It) {
        size_t BI = (size_t)*It;
        IrBlock *B = F.Blocks[BI];
        uint64_t *Out = LiveOut.row(BI);
        for (IrBlock *S : {B->Succ0, B->Succ1}) {
          if (!S)
            continue;
          int SI = DT.indexOf(S);
          if (SI < 0)
            continue;
          const uint64_t *SIn = LiveIn.row((size_t)SI);
          for (size_t K = 0; K != W; ++K)
            Out[K] |= SIn[K];
        }
        uint64_t *In = LiveIn.row(BI);
        const uint64_t *G = Gen.row(BI), *Kl = Kill.row(BI);
        for (size_t K = 0; K != W; ++K) {
          uint64_t V = G[K] | (Out[K] & ~Kl[K]);
          if (V != In[K]) {
            In[K] = V;
            Changed = true;
          }
        }
      }
    }
  }

  // Pruned phi placement: iterated dominance frontier of each
  // variable's definition blocks, kept only where the variable is
  // live-in. Placeholder args reference the original variable so the
  // slot of a never-renamed (unreachable) predecessor still reads a
  // well-typed value.
  size_t PhisPlaced = 0;
  std::vector<std::vector<IrInstr *>> NewPhis(NumBlocks);
  // Per-block "phi placed for V" / "V defined here" marks, stamped with
  // V + 1 so one pair of arrays serves every variable.
  std::vector<Reg> PlacedFor(NumBlocks, 0), DefdFor(NumBlocks, 0);
  std::vector<int> Work;
  for (Reg V = 0; V != NumRegs; ++V) {
    if (DefBlocks[V].empty())
      continue;
    Reg Stamp = V + 1;
    Work = DefBlocks[V];
    for (int D : Work)
      DefdFor[(size_t)D] = Stamp;
    while (!Work.empty()) {
      int N = Work.back();
      Work.pop_back();
      if (!DT.reachable(N))
        continue;
      for (int Y : DT.frontier(N)) {
        if (PlacedFor[(size_t)Y] == Stamp || !LiveIn.test((size_t)Y, V))
          continue;
        PlacedFor[(size_t)Y] = Stamp;
        auto *Phi = M.Nodes.make<IrInstr>();
        Phi->Op = Opcode::Phi;
        Phi->Dsts = {V};
        Phi->Args.assign(DT.preds(Y).size(), V);
        Phi->Ty = F.RegTypes[V];
        NewPhis[(size_t)Y].push_back(Phi);
        ++PhisPlaced;
        if (DefdFor[(size_t)Y] != Stamp) {
          DefdFor[(size_t)Y] = Stamp;
          Work.push_back(Y);
        }
      }
    }
  }
  for (size_t BI = 0; BI != NumBlocks; ++BI)
    if (!NewPhis[BI].empty()) {
      auto &Instrs = F.Blocks[BI]->Instrs;
      Instrs.insert(Instrs.begin(), NewPhis[BI].begin(), NewPhis[BI].end());
    }

  // Renaming: dominator-tree preorder walk. Top[V] is V's current
  // version (V itself when no definition reaches here: the use keeps
  // the original register); each frame undoes its pushes on exit from
  // one shared log. A phi's variable is origVar of its destination,
  // before renaming (V itself) and after (V's version).
  std::vector<Reg> Top(NumRegs);
  for (Reg V = 0; V != NumRegs; ++V)
    Top[V] = V;
  struct Pushed {
    Reg Var, Prev;
  };
  std::vector<Pushed> Log;
  auto define = [&](Reg V) {
    Reg R = F.newReg(F.RegTypes[V]);
    Info.OrigOfSsa.push_back(V);
    Log.push_back({V, Top[V]});
    Top[V] = R;
    return R;
  };

  struct Frame {
    int Block;
    size_t NextChild = 0;
    size_t LogMark = 0;
  };
  std::vector<Frame> Stack;
  Stack.push_back(Frame{0, 0, 0});
  bool EnterFrame = true;
  while (!Stack.empty()) {
    Frame &Fr = Stack.back();
    int BI = Fr.Block;
    IrBlock *B = F.Blocks[(size_t)BI];
    if (EnterFrame) {
      Fr.LogMark = Log.size();
      // Rename this block's instructions.
      for (IrInstr *I : B->Instrs) {
        if (I->Op == Opcode::Phi) {
          I->Dsts[0] = define(I->Dsts[0]);
          continue;
        }
        for (Reg &A : I->Args)
          A = Top[A];
        for (Reg &D : I->Dsts)
          D = define(D);
      }
      // Fill phi arguments in successors for this block's out-edges.
      for (int SuccIdx = 0; SuccIdx != 2; ++SuccIdx) {
        IrBlock *S = SuccIdx == 0 ? B->Succ0 : B->Succ1;
        if (!S)
          continue;
        int SI = DT.indexOf(S);
        if (SI < 0)
          continue;
        const auto &Preds = DT.preds(SI);
        for (size_t Pos = 0; Pos != Preds.size(); ++Pos) {
          if (Preds[Pos].Pred != B || Preds[Pos].SuccIdx != SuccIdx)
            continue;
          for (IrInstr *I : S->Instrs) {
            if (I->Op != Opcode::Phi)
              break;
            I->Args[Pos] = Top[Info.origVar(I->Dsts[0])];
          }
        }
      }
      EnterFrame = false;
    }
    const auto &Kids = DT.children(BI);
    if (Fr.NextChild < Kids.size()) {
      int C = Kids[Fr.NextChild++];
      Stack.push_back(Frame{C, 0, 0});
      EnterFrame = true;
      continue;
    }
    for (size_t K = Log.size(); K != Fr.LogMark; --K)
      Top[Log[K - 1].Var] = Log[K - 1].Prev;
    Log.resize(Fr.LogMark);
    Stack.pop_back();
  }
  return PhisPlaced;
}

//===----------------------------------------------------------------------===//
// SSA dead-value elimination
//===----------------------------------------------------------------------===//

size_t virgil::ssa::runSsaDce(IrFunction &F, SsaInfo &Info) {
  (void)Info;
  // Use counts over every argument (phi args included). A pure
  // definition with zero uses dies, releasing its operands' uses; the
  // worklist reaches the same fixpoint as rescanning until quiet.
  size_t NumRegs = F.RegTypes.size();
  std::vector<uint32_t> Uses(NumRegs, 0);
  std::vector<IrInstr *> Def(NumRegs, nullptr);
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs) {
      for (Reg A : I->Args)
        ++Uses[A];
      for (Reg D : I->Dsts)
        Def[D] = I;
    }
  std::vector<IrInstr *> Dead, Work;
  auto deadNow = [&](const IrInstr *I) {
    if (!isPure(I->Op) || I->Dsts.empty())
      return false;
    for (Reg D : I->Dsts)
      if (Uses[D] != 0)
        return false;
    return true;
  };
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs)
      if (deadNow(I))
        Work.push_back(I);
  while (!Work.empty()) {
    IrInstr *I = Work.back();
    Work.pop_back();
    Dead.push_back(I);
    for (Reg A : I->Args) {
      IrInstr *DI = Def[A];
      // Uses reaching zero marks the moment DI becomes dead, so each
      // instruction is queued at most once.
      if (--Uses[A] == 0 && DI && DI != I && deadNow(DI))
        Work.push_back(DI);
    }
  }
  size_t Removed = Dead.size();
  eraseInstrs(F, Dead);
  return Removed;
}

//===----------------------------------------------------------------------===//
// Destruction
//===----------------------------------------------------------------------===//

void virgil::ssa::destroySsa(IrModule &M, IrFunction &F, SsaInfo &Info,
                             SsaPassStats &Stats) {
  // Congruence-class register assignment. Untainted values collapse
  // onto their original variable's register; tainted values get a
  // fresh singleton.
  std::vector<Reg> Singleton(F.RegTypes.size(), NoReg);
  auto classReg = [&](Reg R) -> Reg {
    if (!Info.tainted(R))
      return Info.origVar(R);
    if (R < Singleton.size() && Singleton[R] != NoReg)
      return Singleton[R];
    Reg Fresh = F.newReg(F.RegTypes[R]);
    if (R < Singleton.size())
      Singleton[R] = Fresh;
    return Fresh;
  };

  // Tainted *parameters* still carry a caller-provided value, which a
  // fresh register wouldn't: copy it on entry. (A tainted non-param
  // original register is never written, so its fresh singleton reads
  // the same frame default and needs no copy.)
  std::vector<IrInstr *> EntryCopies;
  for (Reg P = 0; P != F.NumParams; ++P) {
    if (!Info.tainted(P))
      continue;
    Reg Fresh = classReg(P);
    auto *Mv = M.Nodes.make<IrInstr>();
    Mv->Op = Opcode::Move;
    Mv->Dsts = {Fresh};
    Mv->Args = {P};
    Mv->Ty = F.RegTypes[P];
    EntryCopies.push_back(Mv);
  }

  // Phi elimination: per in-edge parallel copies between class
  // registers, critical edges split, copies sequentialized. One
  // predecessor map serves every block: a split only redirects an edge
  // into a block already processed, so later blocks' lists stay exact.
  size_t OrigBlockCount = F.Blocks.size();
  auto AllPreds = computePredEdges(F);
  for (size_t BI = 0; BI != OrigBlockCount; ++BI) {
    IrBlock *B = F.Blocks[BI];
    std::vector<IrInstr *> Phis;
    for (IrInstr *I : B->Instrs) {
      if (I->Op != Opcode::Phi)
        break;
      Phis.push_back(I);
    }
    if (Phis.empty())
      continue;
    const auto &Preds = AllPreds[BI];
    for (size_t Pos = 0; Pos != Preds.size(); ++Pos) {
      IrBlock *P = Preds[Pos].Pred;
      struct Copy {
        Reg Dst, Src;
        Type *Ty;
      };
      std::vector<Copy> Copies;
      for (IrInstr *Phi : Phis) {
        assert(Phi->Args.size() == Preds.size() &&
               "phi arity out of sync with predecessors");
        Reg D = classReg(Phi->Dsts[0]);
        Reg S = classReg(Phi->Args[Pos]);
        if (D != S)
          Copies.push_back({D, S, Phi->Ty});
      }
      if (Copies.empty())
        continue;
      // Split the edge when the predecessor has another successor:
      // copies must run only on this edge.
      IrBlock *Site = P;
      if (P->Succ0 && P->Succ1) {
        auto *E = M.Nodes.make<IrBlock>((uint32_t)F.Blocks.size());
        F.Blocks.push_back(E);
        auto *Jump = M.Nodes.make<IrInstr>();
        Jump->Op = Opcode::Br;
        E->Instrs.push_back(Jump);
        E->Succ0 = B;
        if (Preds[Pos].SuccIdx == 0)
          P->Succ0 = E;
        else
          P->Succ1 = E;
        Site = E;
      }
      // Sequentialize the parallel copy: emit copies whose
      // destination no other pending copy still reads; break cycles
      // by saving a destination into a temp.
      std::vector<IrInstr *> Seq;
      auto emit = [&](Reg D, Reg S, Type *Ty) {
        auto *Mv = M.Nodes.make<IrInstr>();
        Mv->Op = Opcode::Move;
        Mv->Dsts = {D};
        Mv->Args = {S};
        Mv->Ty = Ty;
        Seq.push_back(Mv);
        ++Stats.EdgeCopies;
      };
      while (!Copies.empty()) {
        bool Progress = false;
        for (size_t I = 0; I != Copies.size();) {
          Reg D = Copies[I].Dst;
          bool Read = false;
          for (size_t J = 0; J != Copies.size(); ++J)
            if (J != I && Copies[J].Src == D)
              Read = true;
          if (Read) {
            ++I;
            continue;
          }
          emit(Copies[I].Dst, Copies[I].Src, Copies[I].Ty);
          Copies.erase(Copies.begin() + I);
          Progress = true;
        }
        if (!Progress) {
          // Cycle: free one destination via a temp.
          Reg D = Copies[0].Dst;
          Reg T = F.newReg(F.RegTypes[D]);
          emit(T, D, Copies[0].Ty);
          for (Copy &C : Copies)
            if (C.Src == D)
              C.Src = T;
        }
      }
      // Insert before the site's terminator.
      assert(!Site->Instrs.empty() && "block without terminator");
      Site->Instrs.insert(Site->Instrs.end() - 1, Seq.begin(), Seq.end());
    }
    // Drop the phis.
    B->Instrs.erase(B->Instrs.begin(),
                    B->Instrs.begin() + (ptrdiff_t)Phis.size());
  }

  // Rewrite every remaining register through its class.
  for (IrBlock *B : F.Blocks)
    for (IrInstr *I : B->Instrs) {
      for (Reg &A : I->Args)
        A = classReg(A);
      for (Reg &D : I->Dsts)
        D = classReg(D);
    }
  if (!EntryCopies.empty()) {
    auto &Entry = F.Blocks[0]->Instrs;
    Entry.insert(Entry.begin(), EntryCopies.begin(), EntryCopies.end());
  }
}

//===----------------------------------------------------------------------===//
// Register compaction
//===----------------------------------------------------------------------===//

namespace {

/// The trailing run of mutually independent moves before \p B's
/// terminator — a parallel copy, such as destruction places on an
/// edge — as [Begin, size - 1). Which moves form it does not depend on
/// their order.
size_t parallelCopyBegin(const IrBlock &B) {
  const std::vector<IrInstr *> &Instrs = B.Instrs;
  if (Instrs.size() < 2)
    return Instrs.size();
  size_t End = Instrs.size() - 1;
  size_t Begin = End;
  auto independent = [&](const IrInstr *I) {
    for (size_t K = Begin; K != End; ++K) {
      const IrInstr *J = Instrs[K];
      if (J->dst() == I->dst() || J->dst() == I->Args[0] ||
          J->Args[0] == I->dst())
        return false;
    }
    return true;
  };
  while (Begin != 0 && Instrs[Begin - 1]->Op == Opcode::Move &&
         independent(Instrs[Begin - 1]))
    --Begin;
  return Begin;
}

} // namespace

size_t virgil::ssa::compactRegisters(IrFunction &F) {
  // One layout-order pass numbers registers by first appearance
  // (parameters first), so the numbering depends only on the code and
  // not on the numbers it came in with. A parallel copy means the same
  // in any order, so before its registers are numbered it is sorted by
  // the numbers its operands already have (a register first appearing
  // in it sorts last): with that, a round trip that rebuilds the same
  // body under other SSA names and copy orders reproduces it exactly.
  size_t NumRegs = F.RegTypes.size();
  std::vector<Reg> Map(NumRegs, NoReg);
  std::vector<Type *> NewTypes;
  NewTypes.reserve(NumRegs);
  bool Moved = false;
  auto number = [&](Reg &R) {
    if (Map[R] == NoReg) {
      Map[R] = (Reg)NewTypes.size();
      NewTypes.push_back(F.RegTypes[R]);
    }
    Moved |= Map[R] != R;
    R = Map[R];
  };
  auto numberInstr = [&](IrInstr *I) {
    for (Reg &D : I->Dsts)
      number(D);
    for (Reg &A : I->Args)
      number(A);
  };
  for (Reg P = 0; P != F.NumParams && P < NumRegs; ++P) {
    Reg Q = P;
    number(Q);
  }
  for (IrBlock *B : F.Blocks) {
    std::vector<IrInstr *> &Instrs = B->Instrs;
    size_t Begin = parallelCopyBegin(*B);
    for (size_t K = 0; K != Begin; ++K)
      numberInstr(Instrs[K]);
    if (Instrs.size() - Begin > 2) {
      auto Key = [&](const IrInstr *I) {
        return std::pair(Map[I->dst()], Map[I->Args[0]]); // NoReg last.
      };
      std::stable_sort(Instrs.begin() + (ptrdiff_t)Begin, Instrs.end() - 1,
                       [&](const IrInstr *X, const IrInstr *Y) {
                         return Key(X) < Key(Y);
                       });
    }
    for (size_t K = Begin; K != Instrs.size(); ++K)
      numberInstr(Instrs[K]);
  }
  size_t Dropped = NumRegs - NewTypes.size();
  if (Dropped || Moved)
    F.RegTypes = std::move(NewTypes);
  return Dropped;
}
