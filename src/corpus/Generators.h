//===- corpus/Generators.h - Parametric workload generators -----*- C++ -*-===//
///
/// \file
/// Generates Virgil-core source for the benchmark sweeps: each
/// generator is parameterized the way the corresponding experiment in
/// EXPERIMENTS.md varies its workload (tuple width, handler count,
/// instantiation count, program size).
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_CORPUS_GENERATORS_H
#define VIRGIL_CORPUS_GENERATORS_H

#include <cstdint>
#include <string>

namespace virgil {
namespace corpus {

/// E1: indirect calls through `(int, int) -> int` values where half
/// the targets take scalars and half take a tuple — every call needs
/// the §4.1 dynamic check in the interpreter and none in the VM.
std::string genCallConvWorkload(int Calls);

/// E2: creates, passes, and consumes tuples of \p Width through
/// non-inlinable call chains, \p Iters times.
std::string genTupleWorkload(int Width, int Iters);

/// E3: a generic pipeline (id/pair/select over T) instantiated at one
/// type, executed \p Iters times — measures type-argument passing.
std::string genPolyCallWorkload(int Iters);

/// E4: the print1 cast-chain with \p Cases type cases, dispatched
/// \p Iters times; plus a direct-call control.
std::string genAdhocWorkload(int Cases, int Iters, bool Direct);

/// E5: \p Generics generic functions each instantiated at \p Insts
/// distinct types (drives code-expansion measurements). \p Reps wraps
/// main's instantiation calls in a loop so runtime sweeps can size the
/// executed-instruction count independently of the static expansion.
std::string genExpansionWorkload(int Generics, int Insts, int Reps = 1);

/// E16: \p Generics generic list traversers (no allocation inside the
/// generic code) each instantiated at \p Insts distinct *class* types.
/// Every ref instantiation of one traverser normalizes to the same
/// body, so specialization sharing collapses the Generics x Insts
/// specializations back to Generics. The optimizer inlines every
/// traverser into main and then drops the bodies as dead, so the
/// code_expansion_ratio gate measures genLiveShareWorkload instead.
/// \p Reps wraps main's traversal calls in a loop for runtime sweeps
/// (the hot loop allocates nothing, so throughput isolates call/body
/// effects of sharing from GC noise).
std::string genShareWorkload(int Generics, int Insts, int Reps = 1);

/// E16: genShareWorkload's sharing pressure on code that stays live.
/// Each of the \p Generics traversers is a generic subclass of one
/// `Walker` base overriding its virtual `walk()`, allocated at \p Insts
/// distinct class types into one `Array<Walker>` that main dispatches
/// through, so every specialization is a vtable entry the optimizer can
/// neither devirtualize nor delete. Every ref instantiation of one
/// traverser normalizes to the same body: sharing collapses the
/// Generics x Insts overrides back to Generics — the workload behind
/// the code_expansion_ratio gate. \p Reps wraps the dispatch loop for
/// runtime sweeps (the loop allocates nothing).
std::string genLiveShareWorkload(int Generics, int Insts, int Reps = 1);

/// E6: a polymorphic matcher with \p Handlers handlers dispatched
/// \p Iters times.
std::string genMatcherWorkload(int Handlers, int Iters);

/// E7: list traversal through a contravariant function argument vs a
/// monomorphic hand-written loop.
std::string genVarianceWorkload(int Len, int Iters, bool Functional);

/// E8: GC churn with \p Rounds rounds of garbage and a persistent set.
std::string genGcWorkload(int Rounds, int LiveNodes);

/// E17: allocation churn built to be scalar-replaceable: each of
/// \p Rounds x \p Width inner steps allocates a short-lived object,
/// calls a method on it, and creates + calls a bound-method closure
/// over another local object. None of the allocations escape, so with
/// escape analysis on the VM's nursery only sees the persistent
/// \p LiveNodes list; with it off every step allocates. The on/off
/// nursery-byte ratio is the escape_nursery_reduction gate's metric.
std::string genEscapeChurn(int Rounds, int Width, int LiveNodes);

/// E19: field- and branch-heavy kernels built so the SSA mid-tier
/// wins where the dense passes cannot. Each of \p Units kernels
/// re-reads the same object fields on both arms of a diamond *and
/// after the join* — redundant FieldGet/NullCheck chains that only
/// dominance-scoped load elimination forwards — and drives a
/// classify<T> type-query chain that SCCP folds to a straight line
/// after specialization (the paper's §3.3 claim). \p Rounds is the
/// hot-loop trip count in main, so the retired-instruction ratio
/// ssa-off/ssa-on is measured on exactly the code the sparse passes
/// rewrote — the ssa_instr_reduction gate's metric.
std::string genSsaWorkload(int Units, int Rounds);

/// E9: a well-formed program of roughly \p Classes classes with
/// methods and call chains (compiler throughput).
std::string genThroughputProgram(int Classes);

/// Feature toggles for the random-program grammar. Every language
/// feature the fuzzer can emit is gated by one flag so coverage gaps
/// are explicit: turning a flag off removes that construct from every
/// generated program, and the fuzz CLI records the active config next
/// to each reproducer.
struct GenConfig {
  /// Virtual dispatch through a base-typed Cell/WeightedCell pair.
  bool VirtualDispatch = true;
  /// Nested tuples stored in `Array<(int, int)>` elements and in
  /// object fields (`((int, int), int)`), read back via projections.
  bool NestedTuples = true;
  /// First-class functions: pointers to top-level functions, unbound
  /// class methods (`Cell.sum`), constructors (`Cell.new`), and a
  /// higher-order combinator applied to them.
  bool HigherOrder = true;
  /// Generic helpers instantiated at type-parameter nesting depth >= 3
  /// (`Box<Box<Box<int>>>`, `id<((int, int), int)>`).
  bool DeepGenerics = true;
  /// `==`, `!=`, and `?` used as first-class operator values
  /// (`int.==`, `(int, int).!=`, `int.?<int>`).
  bool OperatorValues = true;
  /// §3-style ad-hoc polymorphism: a cast-chain `classify<T>` probed
  /// with every pool type.
  bool CastChains = true;
  /// Bounded `for` loops with data-dependent bodies.
  bool Loops = true;
  /// Upper bound on random helper functions (min 2).
  int MaxFuncs = 5;
  /// Maximum random expression nesting depth.
  int MaxExprDepth = 3;

  /// Compact "feature1,feature2,..." list of the enabled toggles (for
  /// reproducer metadata).
  std::string summary() const;
};

/// Differential fuzzing: a deterministic, type-correct random program
/// (ints, bools, nested tuples, function calls, bounded loops, guarded
/// division — no intentional traps). The same seed and config always
/// yield the same program; all four execution strategies must agree on
/// its result.
std::string genRandomProgram(uint32_t Seed, const GenConfig &Config);
std::string genRandomProgram(uint32_t Seed);

} // namespace corpus
} // namespace virgil

#endif // VIRGIL_CORPUS_GENERATORS_H
