//===- core/Features.h - The engine feature knobs, one table ----*- C++ -*-===//
///
/// \file
/// Every engine knob a user can flip is one row of features():
/// specialization sharing, escape analysis, the SSA mid-tier, the JIT
/// tier (mode and hotness threshold) and the GC (mode and nursery
/// size). A row names the knob's CLI flag (virgilc and virgild share
/// spellings), the environment variable that sets its process default,
/// its accepted values and default, the layer it lives in, its bit in
/// BytecodeCache::keyFor and how the differential oracle exercises it.
///
/// CLI parsing, process defaults, the cache key, the warm-pool key,
/// virgild STATS and the oracle's forced-on legs all go through this
/// table; adding a knob means adding a row, its field in
/// CompilerOptions or VmOptions and that field's case in Features.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef VIRGIL_CORE_FEATURES_H
#define VIRGIL_CORE_FEATURES_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace virgil {

struct CompilerOptions;
struct VmOptions;

enum class Feature : uint8_t {
  Share,
  Escape,
  Ssa,
  Jit,
  JitThreshold,
  Gc,
  NurseryBytes,
};

/// Where a knob's value lives: CompilerOptions (it changes the emitted
/// module, so it feeds the cache key) or VmOptions (it changes how a
/// module runs, so it feeds the warm-pool key).
enum class FeatureLayer : uint8_t { Compile, Vm };

/// How `virgilc fuzz` takes the knob's flag.
enum class FuzzFlag : uint8_t {
  None,  ///< not accepted
  Value, ///< with a value, configuring the oracle's VM strategy
  Leg,   ///< bare, adding the knob's forced-on oracle legs
};

/// One accepted spelling of a named value.
struct FeatureValue {
  const char *Name;
  uint32_t Value;
};

struct FeatureInfo {
  Feature Id;
  const char *Flag; ///< e.g. "--mono-share"
  const char *Env;  ///< e.g. "VIRGIL_MONO_SHARE"
  FeatureLayer Layer;
  /// Named spellings, first spelling per value canonical; empty means
  /// a decimal number in [Min, Max].
  std::span<const FeatureValue> Values;
  uint32_t Min, Max;
  uint32_t Default;
  /// Bit of BytecodeCache::keyFor's option word; -1 for none. These
  /// values are an on-disk format: changing one orphans every cache.
  int KeyBit;
  /// Pipeline suffix of the oracle's forced-on compile legs ("/share");
  /// null for knobs without compile legs.
  const char *Leg;
  FuzzFlag Fuzz;
  /// The knob is an optimizer pass: a --no-opt compile never runs it.
  bool OptPass;
};

/// The table, in Feature order.
std::span<const FeatureInfo> features();
const FeatureInfo &featureInfo(Feature F);
/// The row whose Flag is \p Flag, or null.
const FeatureInfo *findFeature(std::string_view Flag);

/// The process default for \p F: its environment variable when set to
/// an accepted spelling (on/off knobs also take 1/true and 0/false),
/// else the table default. Read once per process, so a CI lane can flip
/// the default for every compile and VM in a binary.
uint32_t featureDefault(Feature F);

/// Strict decimal parse: the whole string must be a number in
/// [Min, Max]. False (with *Out untouched) otherwise.
bool parseUnsigned(std::string_view S, uint64_t Min, uint64_t Max,
                   uint64_t *Out);

/// The canonical spelling of \p Value ("auto"), or its decimal digits.
std::string featureValueName(Feature F, uint32_t Value);

/// Reads and writes a knob where it lives; \p F must be a knob of the
/// options' layer (callers filter on FeatureInfo::Layer).
uint32_t featureValue(Feature F, const CompilerOptions &C);
uint32_t featureValue(Feature F, const VmOptions &V);
void setFeature(CompilerOptions &C, Feature F, uint32_t Value);
void setFeature(VmOptions &V, Feature F, uint32_t Value);

/// Whether a compile with \p C actually runs compile-layer knob \p F
/// (optimizer passes are off under --no-opt whatever their setting).
bool featureEnabled(Feature F, const CompilerOptions &C);

/// Parses the flag at Argv[I] if it is a table flag whose layer has a
/// target (\p C or \p V non-null): consumes its value and stores it.
/// Returns 1 when consumed, 0 when Argv[I] is no such flag, and -1 on a
/// missing or bad value, after printing "<Tool>: ..." to stderr.
int parseFeatureFlag(const char *Tool, int &I, int Argc, char **Argv,
                     CompilerOptions *C, VmOptions *V);

} // namespace virgil

#endif // VIRGIL_CORE_FEATURES_H
