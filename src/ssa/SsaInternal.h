//===- ssa/SsaInternal.h - Helpers shared by the SSA passes -----*- C++ -*-===//
///
/// \file
/// Internal plumbing shared by SsaBuilder, Sccp, and LoadStoreElim:
/// batched replace-all-uses (which taints targets, see Ssa.h) and
/// batched instruction deletion.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_SSA_SSAINTERNAL_H
#define VIRGIL_SSA_SSAINTERNAL_H

#include "ssa/Ssa.h"

#include <vector>

namespace virgil {
namespace ssa {

/// A batched replace-all-uses table, dense over a function's
/// registers: Map[r] is r's replacement, NoReg when r stays.
struct RegRepl {
  explicit RegRepl(size_t NumRegs) : Map(NumRegs, NoReg) {}
  void set(Reg From, Reg To) {
    Map[From] = To;
    Any = true;
  }
  std::vector<Reg> Map;
  bool Any = false;
};

/// Rewrites every argument (including phi arguments) of \p F through
/// \p Repl, resolving chains (a->b, b->c applies a->c). Each final
/// replacement target is tainted in \p Info: the replacement extended
/// its live range, so it must leave its variable's congruence class
/// at destruction.
void applyReplacements(IrFunction &F, const RegRepl &Repl, SsaInfo &Info);

/// Marks, by block position (numbering \p F's blocks), the blocks
/// reachable from the entry.
std::vector<char> reachableBlocks(const IrFunction &F);

/// Erases the listed instructions from their blocks (\p Dead is
/// sorted in place for lookup).
void eraseInstrs(IrFunction &F, std::vector<IrInstr *> &Dead);

} // namespace ssa
} // namespace virgil

#endif // VIRGIL_SSA_SSAINTERNAL_H
