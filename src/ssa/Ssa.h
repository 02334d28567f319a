//===- ssa/Ssa.h - SSA mid-tier over the three-address IR -------*- C++ -*-===//
///
/// \file
/// The SSA sandwich the optimizer pipeline runs between the dense
/// passes: a shared dominator analysis (Cooper/Harvey/Kennedy tree +
/// dominance frontiers), pruned-SSA construction over the existing
/// three-address IR, two sparse passes (SCCP and dominance-based
/// load/store elimination), and phi elimination back out of SSA.
///
/// SSA form is strictly internal to the sandwich: `Opcode::Phi`
/// appears after buildSsa() and is gone after destroySsa(), so the
/// interpreters, BcPrepare, and the bytecode emitter never see it.
/// Out-of-SSA uses variable congruence classes: values keep their
/// original variable's register unless an optimization extended their
/// live range (RAUW "taints" them into a fresh singleton class), which
/// preserves the conventional-SSA property the copy placement relies
/// on.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SSA_SSA_H
#define VIRGIL_SSA_SSA_H

#include "ir/Ir.h"

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

namespace virgil {
namespace ssa {

/// One CFG in-edge: \p Pred jumps here through its \p SuccIdx slot
/// (0 = Succ0, 1 = Succ1). Phi argument positions follow the canonical
/// enumeration order: predecessors by position in IrFunction::Blocks,
/// Succ0 edge before Succ1 edge for a block that branches here twice.
struct PredEdge {
  IrBlock *Pred = nullptr;
  int SuccIdx = 0;
};

/// Canonical predecessor-edge lists for every block of \p F (structural
/// edges — unreachable predecessors included, so phi arity stays in
/// sync with what the CFG says rather than with what executes), indexed
/// by block position: the call numbers \p F's blocks (IrBlock::Pos).
std::vector<std::vector<PredEdge>> computePredEdges(const IrFunction &F);

/// Dominator tree + dominance frontiers for one function, computed
/// with the Cooper/Harvey/Kennedy RPO-intersection algorithm. Block
/// identity is positional: indices are positions in F.Blocks at
/// compute() time, so any pass that adds or removes blocks or edges
/// must invalidate the tree (see DominatorAnalysis).
class DomTree {
public:
  void compute(const IrFunction &F);

  size_t numBlocks() const { return Blocks.size(); }
  IrBlock *block(int I) const { return Blocks[(size_t)I]; }
  /// \p B's index, or -1 when \p B is not one of this tree's blocks.
  /// O(1): compute() numbers the blocks (IrBlock::Pos), validated
  /// here against the tree's own list.
  int indexOf(const IrBlock *B) const {
    uint32_t P = B->Pos;
    return P < Blocks.size() && Blocks[P] == B ? (int)P : -1;
  }
  bool reachable(int I) const { return RpoPos[(size_t)I] >= 0; }
  bool reachable(const IrBlock *B) const {
    int I = indexOf(B);
    return I >= 0 && reachable(I);
  }
  /// Immediate dominator (block index), -1 for the entry and for
  /// unreachable blocks.
  int idom(int I) const { return Idom[(size_t)I]; }
  const std::vector<int> &children(int I) const {
    return Children[(size_t)I];
  }
  const std::vector<int> &frontier(int I) const {
    return Frontier[(size_t)I];
  }
  /// Structural predecessor edges in canonical phi-argument order.
  const std::vector<PredEdge> &preds(int I) const {
    return Preds[(size_t)I];
  }
  /// Reachable block indices in reverse postorder (entry first).
  const std::vector<int> &rpo() const { return Rpo; }

  /// Does block \p A dominate block \p B? Reflexive; false if either
  /// block is unreachable.
  bool dominates(int A, int B) const {
    if (!reachable(A) || !reachable(B))
      return false;
    return DfsIn[(size_t)A] <= DfsIn[(size_t)B] &&
           DfsOut[(size_t)B] <= DfsOut[(size_t)A];
  }
  bool dominates(const IrBlock *A, const IrBlock *B) const {
    int IA = indexOf(A), IB = indexOf(B);
    return IA >= 0 && IB >= 0 && dominates(IA, IB);
  }

private:
  std::vector<IrBlock *> Blocks;
  std::vector<std::vector<PredEdge>> Preds;
  std::vector<int> Rpo;
  std::vector<int> RpoPos; ///< Block index -> RPO position, -1 if unreachable.
  std::vector<int> Idom;
  std::vector<std::vector<int>> Children;
  std::vector<std::vector<int>> Frontier;
  std::vector<int> DfsIn, DfsOut; ///< Dom-tree intervals for O(1) queries.
};

/// Memoizing per-function dominator analysis shared across the passes
/// of one optimizeModule() invocation — Escape, the CHA devirtualizer,
/// and the SSA sandwich all consume the same tree instead of
/// re-deriving dominators per invocation. Passes that change the CFG
/// (inlining, DCE's block surgery, the sandwich itself) invalidate the
/// functions they touched; instruction-level rewrites don't disturb
/// block-level dominance and need no invalidation.
class DominatorAnalysis {
public:
  const DomTree &get(const IrFunction *F) {
    auto It = Cache.find(F);
    if (It != Cache.end())
      return *It->second;
    auto DT = std::make_unique<DomTree>();
    DT->compute(*F);
    return *Cache.emplace(F, std::move(DT)).first->second;
  }
  void invalidate(const IrFunction *F) { Cache.erase(F); }
  void invalidateAll() { Cache.clear(); }

private:
  std::map<const IrFunction *, std::unique_ptr<DomTree>> Cache;
};

/// Per-function SSA bookkeeping, alive from buildSsa() to
/// destroySsa().
struct SsaInfo {
  /// Registers >= FirstSsaReg were created by renaming; registers
  /// below it are the original variables (parameters keep their
  /// numbers; a use of an original non-parameter register means no
  /// definition reaches it on any path, i.e. the frame default).
  Reg FirstSsaReg = 0;
  /// For renamed registers: the original variable each is a version
  /// of (indexed by reg - FirstSsaReg).
  std::vector<Reg> OrigOfSsa;
  /// Values whose live range an optimization extended (RAUW targets).
  /// They leave their variable's congruence class and get a fresh
  /// singleton register at destruction; everything untainted keeps the
  /// conventional-SSA non-interference guarantee of its class.
  std::vector<char> Tainted;

  /// Registers created after renaming (destruction's fresh singletons
  /// and cycle temps) are not versions of anything: they map to
  /// themselves.
  Reg origVar(Reg R) const {
    if (R < FirstSsaReg)
      return R;
    size_t I = R - FirstSsaReg;
    return I < OrigOfSsa.size() ? OrigOfSsa[I] : R;
  }
  bool tainted(Reg R) const {
    return R < Tainted.size() && Tainted[R];
  }
  void taint(Reg R) {
    if (Tainted.size() <= R)
      Tainted.resize(R + 1, 0);
    Tainted[R] = 1;
  }
};

/// Counters the sandwich reports back into OptStats.
struct SsaPassStats {
  size_t PhisPlaced = 0;
  size_t SccpFolded = 0;
  size_t BranchesFolded = 0;
  size_t CopiesPropagated = 0;
  size_t LoadsEliminated = 0;
  size_t StoresKilled = 0;
  size_t NullChecksRemoved = 0;
  size_t EdgeCopies = 0;    ///< Copies materialized by phi elimination.
  size_t InstrsRemoved = 0; ///< Dead SSA values swept before exit.
};

/// Deletes blocks unreachable from the entry (the sandwich runs this
/// first so construction sees a clean CFG). Returns blocks removed.
size_t removeUnreachableBlocks(IrFunction &F);

/// Pruned-SSA construction: places phis at iterated dominance
/// frontiers of definitions, pruned by liveness, then renames every
/// definition to a fresh register via a dominator-tree walk. Returns
/// the number of phis placed.
size_t buildSsa(IrModule &M, IrFunction &F, const DomTree &DT,
                SsaInfo &Info);

/// Sparse conditional constant propagation over SSA form: folds the
/// post-specialization cast/query/branch chains (paper §3.3) in one
/// flow-sensitive pass, propagates copies globally (Move RAUW), and
/// rewires statically-decided branches. Returns rewrites performed.
size_t runSccp(IrModule &M, IrFunction &F, const DomTree &DT,
               SsaInfo &Info, SsaPassStats &Stats);

/// Dominance-based load/store elimination for fields and globals:
/// redundant FieldGet/GlobalGet reuse (scoped availability over the
/// dominator tree with monotonic clobber clocks), same-block dead
/// store kill, and redundant NullCheck removal. Returns rewrites.
size_t runLoadStoreElim(IrModule &M, IrFunction &F, const DomTree &DT,
                        SsaInfo &Info, SsaPassStats &Stats);

/// Deletes pure SSA definitions (including phis) with no remaining
/// uses. Run before destruction so dead values place no edge copies.
size_t runSsaDce(IrFunction &F, SsaInfo &Info);

/// Phi elimination back to three-address form: assigns every SSA value
/// its congruence-class register (original variable, or a fresh
/// singleton when tainted), splits critical edges that need copies,
/// and sequentializes each edge's parallel copy (cycle-safe). After
/// this no Opcode::Phi remains.
void destroySsa(IrModule &M, IrFunction &F, SsaInfo &Info,
                SsaPassStats &Stats);

/// Puts \p F in canonical form: renumbers live registers densely in
/// order of first appearance (parameters keep 0..NumParams-1), drops
/// dead RegTypes entries — bounding the frame growth SSA renaming
/// caused — and puts each block's trailing parallel copy in one order.
/// Returns registers dropped.
size_t compactRegisters(IrFunction &F);

/// The sandwich over \p Fns (the whole module: pass M.Functions):
/// build -> SCCP -> load/store elim -> SSA-DCE -> destruct -> compact
/// for each function. \p DumpAfter (optional) is invoked with "ssa",
/// "sccp", and "loadelim" while the module is still in SSA form, for
/// --dump-ir=<pass>. Returns the number of functions whose IR differs
/// afterwards (fingerprint() before construction vs. after compaction)
/// — a net count, so a round trip that rewrites and then restores a
/// body (copies propagated away and re-materialized as edge copies)
/// reports no change. \p Fps (optional, parallel to \p Fns) lets a
/// caller that already fingerprints its functions share the work: on
/// entry it holds each function's current fingerprint, on exit the
/// fingerprint after the sandwich.
size_t runSsaPasses(IrModule &M, std::span<IrFunction *const> Fns,
                    DominatorAnalysis &DomA, SsaPassStats &Stats,
                    const std::function<void(const char *)> &DumpAfter =
                        std::function<void(const char *)>(),
                    std::span<uint64_t> Fps = {});

/// Strict-SSA verification toggle: on by default in Debug builds (or
/// with VIRGIL_SSA_VERIFY=on), forced on by the differential-fuzz
/// oracle. When enabled the sandwich verifies every function after
/// every SSA-form pass and aborts on a violation.
bool ssaVerifyEnabled();
void setSsaVerifyEnabled(bool Enabled);

} // namespace ssa
} // namespace virgil

#endif // VIRGIL_SSA_SSA_H
