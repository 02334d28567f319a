//===- core/Features.cpp --------------------------------------------------===//

#include "core/Features.h"

#include "core/Compiler.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

using namespace virgil;

namespace {

constexpr FeatureValue OnOff[] = {{"on", 1}, {"off", 0}};
// VmOptions::JitMode order: Auto, On, Off.
constexpr FeatureValue JitModes[] = {{"on", 1}, {"off", 2}, {"auto", 0}};
constexpr FeatureValue GcModes[] = {
    {"gen", 1}, {"semi", 0}, {"generational", 1}, {"semispace", 0}};

using L = FeatureLayer;

constexpr FeatureInfo Table[] = {
    // Id, Flag, Env, Layer, Values, Min, Max, Default, KeyBit, Leg,
    // Fuzz, OptPass
    {Feature::Share, "--mono-share", "VIRGIL_MONO_SHARE", L::Compile, OnOff,
     0, 1, 1, 9, "/share", FuzzFlag::Leg, false},
    {Feature::Escape, "--opt-escape", "VIRGIL_OPT_ESCAPE", L::Compile,
     OnOff, 0, 1, 1, 10, "/escape", FuzzFlag::Leg, true},
    {Feature::Ssa, "--opt-ssa", "VIRGIL_OPT_SSA", L::Compile, OnOff, 0, 1,
     1, 11, "/ssa", FuzzFlag::Leg, true},
    {Feature::Jit, "--vm-jit", "VIRGIL_VM_JIT", L::Vm, JitModes, 0, 2, 0,
     -1, nullptr, FuzzFlag::Leg, false},
    // 64 entries/backward-branches: small enough that a benchmark's hot
    // loop tiers up within its first few thousand instructions, large
    // enough that one-shot code never pays a compile.
    {Feature::JitThreshold, "--jit-threshold", "VIRGIL_VM_JIT_THRESHOLD",
     L::Vm, {}, 0, 0xFFFFFFFEu, 64, -1, nullptr, FuzzFlag::None, false},
    {Feature::Gc, "--vm-gc", "VIRGIL_VM_GC", L::Vm, GcModes, 0, 1, 1, -1,
     nullptr, FuzzFlag::Value, false},
    // 64 KiB: large enough that minor pauses amortize (thousands of slots
    // between collections), small enough that the zero-filled per-Vm
    // heap stays at 128 KiB (see heapOptionsFor in Vm.cpp).
    {Feature::NurseryBytes, "--vm-nursery-bytes", "VIRGIL_VM_NURSERY_BYTES",
     L::Vm, {}, 128, 1u << 30, 64 * 1024, -1, nullptr, FuzzFlag::Value,
     false},
};
constexpr size_t NumFeatures = sizeof(Table) / sizeof(Table[0]);
static_assert(
    [] {
      for (size_t I = 0; I != NumFeatures; ++I)
        if ((size_t)Table[I].Id != I)
          return false;
      return true;
    }(),
    "featureInfo indexes Table by Feature: keep rows in Feature order");

bool parseValue(const FeatureInfo &F, std::string_view S, uint32_t *Out) {
  if (F.Values.empty()) {
    uint64_t N = 0;
    if (!parseUnsigned(S, F.Min, F.Max, &N))
      return false;
    *Out = (uint32_t)N;
    return true;
  }
  for (const FeatureValue &V : F.Values)
    if (S == V.Name) {
      *Out = V.Value;
      return true;
    }
  return false;
}

/// "on|off", or "N in [128, 1073741824]" for numbers.
std::string valueSyntax(const FeatureInfo &F) {
  if (F.Values.empty())
    return "N in [" + std::to_string(F.Min) + ", " + std::to_string(F.Max) +
           "]";
  std::string S;
  for (const FeatureValue &V : F.Values) {
    if (!S.empty())
      S += '|';
    S += V.Name;
  }
  return S;
}

/// Calls \p Do on the field knob \p F lives in: a member of *C for
/// compile-layer knobs, of *V for vm-layer ones.
template <class COpts, class VOpts, class Fn>
void onField(Feature F, COpts *C, VOpts *V, Fn Do) {
  switch (F) {
  case Feature::Share:
    return Do(C->ShareSpecializations);
  case Feature::Escape:
    return Do(C->Opt.Escape);
  case Feature::Ssa:
    return Do(C->Opt.Ssa);
  case Feature::Jit:
    return Do(V->Jit);
  case Feature::JitThreshold:
    return Do(V->JitThreshold);
  case Feature::Gc:
    return Do(V->Generational);
  case Feature::NurseryBytes:
    return Do(V->NurseryBytes);
  }
}

template <class COpts, class VOpts>
uint32_t readField(Feature F, COpts *C, VOpts *V) {
  uint32_t R = 0;
  onField(F, C, V, [&](auto &X) { R = (uint32_t)X; });
  return R;
}

void writeField(Feature F, CompilerOptions *C, VmOptions *V,
                uint32_t Value) {
  onField(F, C, V, [&](auto &X) {
    X = (std::remove_reference_t<decltype(X)>)Value;
  });
}

} // namespace

std::span<const FeatureInfo> virgil::features() { return Table; }

const FeatureInfo &virgil::featureInfo(Feature F) {
  return Table[(size_t)F];
}

const FeatureInfo *virgil::findFeature(std::string_view Flag) {
  for (const FeatureInfo &F : Table)
    if (Flag == F.Flag)
      return &F;
  return nullptr;
}

uint32_t virgil::featureDefault(Feature F) {
  static const std::array<uint32_t, NumFeatures> Defaults = [] {
    std::array<uint32_t, NumFeatures> D{};
    for (const FeatureInfo &Info : Table) {
      uint32_t &V = D[(size_t)Info.Id];
      V = Info.Default;
      const char *E = std::getenv(Info.Env);
      if (!E)
        continue;
      std::string_view S(E);
      bool Named = !Info.Values.empty();
      if (Named && (S == "1" || S == "true"))
        S = "on";
      else if (Named && (S == "0" || S == "false"))
        S = "off";
      (void)parseValue(Info, S, &V);
    }
    return D;
  }();
  return Defaults[(size_t)F];
}

bool virgil::parseUnsigned(std::string_view S, uint64_t Min, uint64_t Max,
                           uint64_t *Out) {
  if (S.empty())
    return false;
  uint64_t N = 0;
  for (char C : S) {
    uint64_t Digit = (uint64_t)(C - '0');
    if (C < '0' || C > '9' || N > (UINT64_MAX - Digit) / 10)
      return false;
    N = N * 10 + Digit;
  }
  if (N < Min || N > Max)
    return false;
  *Out = N;
  return true;
}

std::string virgil::featureValueName(Feature F, uint32_t Value) {
  for (const FeatureValue &V : featureInfo(F).Values)
    if (V.Value == Value)
      return V.Name;
  return std::to_string(Value);
}

uint32_t virgil::featureValue(Feature F, const CompilerOptions &C) {
  return readField(F, &C, (const VmOptions *)nullptr);
}

uint32_t virgil::featureValue(Feature F, const VmOptions &V) {
  return readField(F, (const CompilerOptions *)nullptr, &V);
}

void virgil::setFeature(CompilerOptions &C, Feature F, uint32_t Value) {
  writeField(F, &C, (VmOptions *)nullptr, Value);
}

void virgil::setFeature(VmOptions &V, Feature F, uint32_t Value) {
  writeField(F, (CompilerOptions *)nullptr, &V, Value);
}

bool virgil::featureEnabled(Feature F, const CompilerOptions &C) {
  return featureValue(F, C) && (C.Optimize || !featureInfo(F).OptPass);
}

int virgil::parseFeatureFlag(const char *Tool, int &I, int Argc,
                             char **Argv, CompilerOptions *C,
                             VmOptions *V) {
  const FeatureInfo *F = findFeature(Argv[I]);
  bool Compile = F && F->Layer == FeatureLayer::Compile;
  if (!F || (Compile ? !C : !V))
    return 0;
  uint32_t Value = 0;
  if (I + 1 >= Argc) {
    std::fprintf(stderr, "%s: %s needs %s\n", Tool, F->Flag,
                 valueSyntax(*F).c_str());
    return -1;
  }
  if (!parseValue(*F, Argv[++I], &Value)) {
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", Tool, F->Flag,
                 valueSyntax(*F).c_str(), Argv[I]);
    return -1;
  }
  writeField(F->Id, C, V, Value);
  return 1;
}
