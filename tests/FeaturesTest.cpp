//===- tests/FeaturesTest.cpp - The feature-knob table --------------------===//
///
/// \file
/// The table in core/Features.h is the one place the engine knobs are
/// spelled, defaulted and keyed. These tests pin what other programs
/// depend on: the cache-key bits (an on-disk format), every accepted
/// CLI spelling, and the strict value parser virgilc and virgild share.
///
//===----------------------------------------------------------------------===//

#include "core/Features.h"
#include "service/BytecodeCache.h"

#include <gtest/gtest.h>

#include <vector>

using namespace virgil;

namespace {

TEST(FeaturesTest, CacheKeysArePinned) {
  // Keys of one source under all share x escape x SSA combinations.
  // A changed value orphans every persistent cache, so a reordered or
  // renumbered key bit must fail here rather than slip through tests
  // that only check keys differ.
  const std::string Src = "def main() -> int { return 1; }\n";
  const uint64_t Want[8] = {
      0x8564f50f08c8a969ull, 0x32ab4124990602b7ull, 0x3b0179ba8bdc824dull,
      0x17543a9397261dbbull, 0x8c542e3f5308c581ull, 0x2604295acf7525efull,
      0xdcdb0ddb52289385ull, 0x2131383f066088b3ull};
  for (int M = 0; M != 8; ++M) {
    CompilerOptions O;
    O.ShareSpecializations = M & 1;
    O.Opt.Escape = (M >> 1) & 1;
    O.Opt.Ssa = (M >> 2) & 1;
    EXPECT_EQ(BytecodeCache::keyFor(Src, O, 1), Want[M]) << "combination " << M;
  }
}

/// Runs parseFeatureFlag over one flag and its value.
int parse(std::vector<const char *> Args, CompilerOptions *C, VmOptions *V,
          int *Consumed = nullptr) {
  int I = 0;
  int R = parseFeatureFlag("test", I, (int)Args.size(),
                           const_cast<char **>(Args.data()), C, V);
  if (Consumed)
    *Consumed = I;
  return R;
}

TEST(FeaturesTest, EverySpellingParsesToItsValue) {
  struct Case {
    const char *Flag, *Value;
    Feature F;
    uint32_t Want;
  } Cases[] = {
      {"--mono-share", "on", Feature::Share, 1},
      {"--mono-share", "off", Feature::Share, 0},
      {"--opt-escape", "on", Feature::Escape, 1},
      {"--opt-escape", "off", Feature::Escape, 0},
      {"--opt-ssa", "on", Feature::Ssa, 1},
      {"--opt-ssa", "off", Feature::Ssa, 0},
      {"--vm-jit", "on", Feature::Jit, (uint32_t)VmOptions::JitMode::On},
      {"--vm-jit", "off", Feature::Jit, (uint32_t)VmOptions::JitMode::Off},
      {"--vm-jit", "auto", Feature::Jit, (uint32_t)VmOptions::JitMode::Auto},
      {"--jit-threshold", "0", Feature::JitThreshold, 0},
      {"--jit-threshold", "4294967294", Feature::JitThreshold, 0xFFFFFFFEu},
      {"--vm-gc", "gen", Feature::Gc, 1},
      {"--vm-gc", "generational", Feature::Gc, 1},
      {"--vm-gc", "semi", Feature::Gc, 0},
      {"--vm-gc", "semispace", Feature::Gc, 0},
      {"--vm-nursery-bytes", "128", Feature::NurseryBytes, 128},
      {"--vm-nursery-bytes", "1073741824", Feature::NurseryBytes, 1u << 30},
  };
  for (const Case &K : Cases) {
    CompilerOptions C;
    VmOptions V;
    int Consumed = -1;
    ASSERT_EQ(parse({K.Flag, K.Value}, &C, &V, &Consumed), 1) << K.Flag;
    EXPECT_EQ(Consumed, 1) << K.Flag << " consumes its value";
    uint32_t Got = featureInfo(K.F).Layer == FeatureLayer::Compile
                       ? featureValue(K.F, C)
                       : featureValue(K.F, V);
    EXPECT_EQ(Got, K.Want) << K.Flag << " " << K.Value;
  }
}

TEST(FeaturesTest, ParserRejectsBadValues) {
  CompilerOptions C;
  VmOptions V;
  for (std::vector<const char *> Bad : std::vector<std::vector<const char *>>{
           {"--vm-nursery-bytes", "4096x"},
           {"--vm-nursery-bytes", "127"},
           {"--vm-nursery-bytes", "1073741825"},
           {"--vm-nursery-bytes", "-4096"},
           {"--vm-nursery-bytes", " 4096"},
           {"--jit-threshold", "4294967295"},
           {"--jit-threshold", "12ms"},
           {"--jit-threshold", ""},
           {"--vm-jit", "maybe"},
           {"--vm-gc", "copying"},
           {"--mono-share", "1"},
           {"--opt-escape", "true"},
           {"--opt-ssa"}})
    EXPECT_EQ(parse(Bad, &C, &V), -1) << Bad[0] << " " << Bad.back();
  EXPECT_EQ(V.NurseryBytes, VmOptions().NurseryBytes) << "left untouched";
}

TEST(FeaturesTest, ParserTakesOnlyLayersWithATarget) {
  // virgilc batch passes no VmOptions: VM knobs are not its options.
  CompilerOptions C;
  VmOptions V;
  EXPECT_EQ(parse({"--vm-jit", "on"}, &C, nullptr), 0);
  EXPECT_EQ(parse({"--opt-ssa", "off"}, nullptr, &V), 0);
  EXPECT_EQ(parse({"--frobnicate", "on"}, &C, &V), 0);
  EXPECT_EQ(parse({"--opt-ssa", "off"}, &C, nullptr), 1);
  EXPECT_FALSE(C.Opt.Ssa);
}

TEST(FeaturesTest, NumbersParseStrictly) {
  uint64_t N = 7;
  EXPECT_TRUE(parseUnsigned("18446744073709551615", 0, UINT64_MAX, &N));
  EXPECT_EQ(N, UINT64_MAX);
  EXPECT_FALSE(parseUnsigned("18446744073709551616", 0, UINT64_MAX, &N));
  EXPECT_FALSE(parseUnsigned("+5", 0, UINT64_MAX, &N));
  EXPECT_FALSE(parseUnsigned("5", 6, 9, &N));
  EXPECT_EQ(N, UINT64_MAX) << "a rejected parse leaves *Out untouched";
}

TEST(FeaturesTest, StatsNamesComeFromTheTable) {
  EXPECT_EQ(featureValueName(Feature::Jit,
                             (uint32_t)VmOptions::JitMode::Auto), "auto");
  EXPECT_EQ(featureValueName(Feature::JitThreshold, 64), "64");
  CompilerOptions C;
  C.Opt.Escape = true;
  C.ShareSpecializations = true;
  C.Optimize = false;
  EXPECT_FALSE(featureEnabled(Feature::Escape, C)) << "an optimizer pass";
  EXPECT_TRUE(featureEnabled(Feature::Share, C));
}

} // namespace
