//===- ssa/Dominators.cpp - CHK dominator tree + frontiers ----------------===//
///
/// Cooper/Harvey/Kennedy "A Simple, Fast Dominance Algorithm":
/// iterate idom intersection over reverse postorder until fixed, then
/// derive dominator-tree children, DFS intervals for O(1) dominance
/// queries, and dominance frontiers. This replaces the dense
/// per-invocation bitvector dominators the escape pass used to
/// compute: O(blocks^2) words per function became one shared tree.
///
//===----------------------------------------------------------------------===//

#include "ssa/Ssa.h"

#include <algorithm>
#include <cassert>

using namespace virgil;
using namespace virgil::ssa;

std::vector<std::vector<PredEdge>>
virgil::ssa::computePredEdges(const IrFunction &F) {
  numberBlocks(F);
  std::vector<std::vector<PredEdge>> Preds(F.Blocks.size());
  for (IrBlock *B : F.Blocks) {
    if (B->Succ0)
      Preds[B->Succ0->Pos].push_back({B, 0});
    if (B->Succ1)
      Preds[B->Succ1->Pos].push_back({B, 1});
  }
  return Preds;
}

void DomTree::compute(const IrFunction &F) {
  size_t N = F.Blocks.size();
  Blocks.assign(F.Blocks.begin(), F.Blocks.end());
  numberBlocks(F);

  // Structural predecessor edges in canonical order (pred position in
  // F.Blocks, Succ0 edge before Succ1) — phi arguments index into
  // this.
  Preds.assign(N, {});
  for (size_t I = 0; I != N; ++I) {
    IrBlock *B = Blocks[I];
    if (B->Succ0)
      Preds[B->Succ0->Pos].push_back({B, 0});
    if (B->Succ1)
      Preds[B->Succ1->Pos].push_back({B, 1});
  }

  // Postorder over the reachable subgraph (iterative DFS), then
  // reverse for RPO.
  Rpo.clear();
  RpoPos.assign(N, -1);
  if (N != 0) {
    std::vector<char> State(N, 0); // 0 unvisited, 1 on stack, 2 done.
    std::vector<std::pair<int, int>> Stack; // (block, next succ slot)
    Stack.push_back({0, 0});
    State[0] = 1;
    std::vector<int> Post;
    while (!Stack.empty()) {
      auto &[BI, Slot] = Stack.back();
      IrBlock *B = Blocks[(size_t)BI];
      IrBlock *Succ = Slot == 0 ? B->Succ0 : (Slot == 1 ? B->Succ1 : nullptr);
      if (Slot < 2) {
        ++Slot;
        if (Succ) {
          int SI = (int)Succ->Pos;
          if (!State[(size_t)SI]) {
            State[(size_t)SI] = 1;
            Stack.push_back({SI, 0});
          }
        }
        continue;
      }
      State[(size_t)BI] = 2;
      Post.push_back(BI);
      Stack.pop_back();
    }
    Rpo.assign(Post.rbegin(), Post.rend());
    for (size_t P = 0; P != Rpo.size(); ++P)
      RpoPos[(size_t)Rpo[P]] = (int)P;
  }

  // CHK idom fixpoint. Intersection walks up the current idom chain
  // by RPO position.
  Idom.assign(N, -1);
  auto intersect = [&](int A, int B) {
    while (A != B) {
      while (RpoPos[(size_t)A] > RpoPos[(size_t)B])
        A = Idom[(size_t)A];
      while (RpoPos[(size_t)B] > RpoPos[(size_t)A])
        B = Idom[(size_t)B];
    }
    return A;
  };
  if (N != 0) {
    Idom[0] = 0; // Sentinel: entry's idom is itself during iteration.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t P = 1; P < Rpo.size(); ++P) {
        int BI = Rpo[P];
        int NewIdom = -1;
        for (const PredEdge &E : Preds[(size_t)BI]) {
          int PI = (int)E.Pred->Pos;
          if (RpoPos[(size_t)PI] < 0 || Idom[(size_t)PI] < 0)
            continue; // Unreachable or unprocessed predecessor.
          NewIdom = NewIdom < 0 ? PI : intersect(PI, NewIdom);
        }
        if (NewIdom >= 0 && Idom[(size_t)BI] != NewIdom) {
          Idom[(size_t)BI] = NewIdom;
          Changed = true;
        }
      }
    }
    Idom[0] = -1; // Entry has no idom.
  }

  // Children + DFS intervals for O(1) dominance queries. Children are
  // ordered by RPO position: a preorder walk over the tree then visits
  // every forward-edge predecessor of a block before the block itself
  // (each pred sits in an earlier-RPO sibling subtree of the block's
  // idom), which is what lets LoadStoreElim's monotonic clobber clocks
  // see every path clobber in time — only back edges (loop headers)
  // need a separate barrier.
  Children.assign(N, {});
  for (int BI : Rpo)
    if (Idom[(size_t)BI] >= 0)
      Children[(size_t)Idom[(size_t)BI]].push_back(BI);
  DfsIn.assign(N, -1);
  DfsOut.assign(N, -1);
  if (N != 0 && !Rpo.empty()) {
    int Clock = 0;
    std::vector<std::pair<int, size_t>> Stack; // (block, next child)
    Stack.push_back({0, 0});
    DfsIn[0] = Clock++;
    while (!Stack.empty()) {
      auto &[BI, Next] = Stack.back();
      if (Next < Children[(size_t)BI].size()) {
        int C = Children[(size_t)BI][Next++];
        DfsIn[(size_t)C] = Clock++;
        Stack.push_back({C, 0});
        continue;
      }
      DfsOut[(size_t)BI] = Clock++;
      Stack.pop_back();
    }
  }

  // Dominance frontiers (CHK): for every join, walk each predecessor
  // up to the join's idom.
  Frontier.assign(N, {});
  for (size_t I = 0; I != N; ++I) {
    if (RpoPos[I] < 0 || Preds[I].size() < 2)
      continue;
    for (const PredEdge &E : Preds[I]) {
      int Runner = (int)E.Pred->Pos;
      if (RpoPos[(size_t)Runner] < 0)
        continue;
      while (Runner >= 0 && Runner != Idom[I]) {
        auto &DF = Frontier[(size_t)Runner];
        if (std::find(DF.begin(), DF.end(), (int)I) == DF.end())
          DF.push_back((int)I);
        Runner = Idom[(size_t)Runner];
      }
    }
  }
}
