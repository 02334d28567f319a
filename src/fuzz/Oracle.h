//===- fuzz/Oracle.h - Four-strategy differential oracle --------*- C++ -*-===//
///
/// \file
/// Runs one program through all four execution strategies (the
/// polymorphic interpreter, the monomorphized interpreter, the
/// normalized interpreter, and the VM) and classifies the combined
/// outcome. The paper's claim that classes, functions, tuples, and
/// type parameters compose without corner cases makes every pipeline
/// stage a potential divergence point; this oracle is the automated
/// check that no stage silently changes semantics.
///
/// Outcome classes:
///   Agree            all strategies produced the same result, output,
///                    and trap state (identical traps count as
///                    agreement — a guarded program traps nowhere, an
///                    unguarded one must trap everywhere the same way)
///   CompileError     the program did not compile (generator bug or
///                    front-end divergence; always reported)
///   ValueDivergence  results or captured output differ
///   DiagDivergence   trap state or trap message differs
///   Timeout          a strategy exhausted its instruction budget
///   Crash            a strategy threw out of the execution engine
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_FUZZ_ORACLE_H
#define VIRGIL_FUZZ_ORACLE_H

#include "vm/Vm.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace virgil {
namespace fuzz {

enum class Outcome : uint8_t {
  Agree,
  CompileError,
  ValueDivergence,
  DiagDivergence,
  Timeout,
  Crash,
};

const char *outcomeName(Outcome Kind);

/// One strategy's observation.
struct StrategyRun {
  std::string Name;
  bool Trapped = false;
  bool TimedOut = false;
  bool Crashed = false;
  std::string TrapMessage;
  bool HasResult = false;
  int64_t Result = 0;
  std::string Output;
  /// VM legs only: executed-instruction count and the pipeline it ran
  /// under ("" optimized, "/no-opt", ...). VM legs of the same
  /// pipeline must agree exactly on Instrs — the JIT's accounting
  /// contract — while different pipelines legitimately differ.
  bool HasInstrs = false;
  uint64_t Instrs = 0;
  std::string Pipeline;

  /// One line, e.g. "vm: result 42" or "poly-interp: trap: ...".
  std::string toString() const;
};

struct OracleReport {
  Outcome Kind = Outcome::Agree;
  /// Human-readable description of what diverged (empty when Agree).
  std::string Detail;
  /// Rendered diagnostics when Kind == CompileError.
  std::string CompileError;
  /// Per-strategy observations: the optimized pipeline first, then
  /// each requested compile leg's pipeline ("/share", "/escape",
  /// "/ssa"), then (when enabled) "/no-opt" and "/no-opt/share".
  std::vector<StrategyRun> Runs;

  bool diverged() const { return Kind != Outcome::Agree; }
};

struct OracleConfig {
  /// Instruction budget per strategy (0 = unlimited). Exhausting it
  /// classifies the run as Timeout.
  uint64_t MaxInstrs = 50'000'000;
  /// Also compile with the optimizer disabled and require agreement
  /// across the two pipelines.
  bool CompareNoOpt = true;
  /// Engine configuration for the VM strategy (GC mode, nursery size,
  /// dispatch, fusion). MaxInstrs above overrides Vm.MaxInstrs so the
  /// Timeout classification stays uniform across strategies. Lets the
  /// sweep run with e.g. a tiny nursery to stress minor collections
  /// while the interpreters remain the reference.
  VmOptions Vm;
  /// Adds a "vm+pool" strategy: the same VM run twice through the
  /// warm-pool reuse protocol (snapshot, run, resetForReuse, run),
  /// reporting the *second* run. Any divergence from the plain vm leg
  /// is a violation of the pool's observational-invisibility contract
  /// (src/exec/VmPool.h).
  bool VmPooled = false;
  /// Feature knobs (core/Features.h) whose forced-on legs to add:
  ///
  ///  - A compile-layer knob (Share, Escape, Ssa) recompiles the
  ///    program with the knob forced ON while the baseline legs force
  ///    every requested knob OFF, and runs the new pipeline's
  ///    norm-interp and VM strategies under the knob's leg suffix
  ///    ("/share"). They must agree with everything else: the knob's
  ///    observational-invisibility contract. Optimizer passes join only
  ///    the optimized pipeline; Share also joins "/no-opt". The /ssa
  ///    compile arms strict-SSA verification, so malformed SSA fails at
  ///    the pass boundary rather than as a downstream divergence.
  ///  - Jit adds "vm+jit" strategies: the same bytecode re-run with the
  ///    baseline JIT forced ON at hotness threshold 0 (everything
  ///    compiles before its first instruction) and at a mid threshold
  ///    (functions tier up mid-run, exercising OSR and deopt), while the
  ///    plain vm leg forces the JIT OFF so it stays the interpreter
  ///    reference. With VmPooled it also adds "vm+pool+jit": the reuse
  ///    protocol with the JIT live at the mid threshold, the
  ///    configuration virgild serves (compiled code and IC patches
  ///    survive resetForReuse). The tiers must agree on result, output,
  ///    trap diagnostics, *and* the executed-instruction count — the
  ///    JIT's exact-accounting contract. Inline-cache hit/miss counters
  ///    are deliberately not compared (tier-heuristic stats). On hosts
  ///    without JIT support the legs run interpreted and the comparison
  ///    is vacuous.
  std::vector<Feature> Legs;

  bool wants(Feature F) const {
    return std::find(Legs.begin(), Legs.end(), F) != Legs.end();
  }
};

/// Mid hotness threshold used by the second vm+jit leg: small enough
/// that generated loops cross it, large enough that the interpreter
/// runs a warm-up window first (seeding inline caches and forcing
/// OSR entries at loop back-edges).
constexpr uint32_t kOracleJitMidThreshold = 16;

class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleConfig Config = OracleConfig())
      : Config(Config) {}

  /// Compiles and runs \p Source under every strategy.
  OracleReport check(const std::string &Source) const;

  const OracleConfig &config() const { return Config; }

private:
  OracleConfig Config;
};

} // namespace fuzz
} // namespace virgil

#endif // VIRGIL_FUZZ_ORACLE_H
