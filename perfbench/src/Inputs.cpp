//===- perfbench/src/Inputs.cpp - Seeded workload inputs --------------------===//

#include "Inputs.h"

#include "core/Compiler.h"
#include "corpus/Generators.h"
#include "vm/BytecodeSerializer.h"

#include <algorithm>
#include <random>

using namespace perfbench;

namespace {

/// Random base programs per serve-cold run. Each request draws one and
/// adds a unique suffix; enough bases that the latency median does not
/// hang on a few programs.
constexpr uint32_t kColdRandomBases = 255;
constexpr size_t kColdHeavyEvery = 50;
/// serve-cold's set-up warm-ups: random programs of fixed generator
/// seeds, so set-up does the same work whatever the workload seed.
constexpr uint32_t kColdWarmups = 4;
/// Schedule lengths (serve-cold's in whole blocks); runs that outlast
/// them cycle.
constexpr size_t kServeSchedule = kColdHeavyEvery * 5000;
constexpr size_t kHotRounds = 4096;

std::string randomProgramName(uint32_t S) {
  return "random-" + std::to_string(S);
}

void makeServeCold(InputSet &S, std::mt19937_64 &Rng) {
  // Random programs (every grammar feature on, deep generics included)
  // compile in one 10-20 ms band, so the latency median sits in one
  // hump; the corpus' 1-2 ms programs would split it in two. Exactly
  // one request in every kColdHeavyEvery is the generics-heavy
  // expansion program (~35 ms): the traffic's large requests. At 2% of
  // traffic they leave the median alone and put p99 in the middle of
  // their own latencies instead of on a few stragglers.
  for (int I = 0; I != kColdRandomBases; ++I) {
    uint32_t ProgSeed = (uint32_t)Rng();
    S.Programs.push_back({randomProgramName(ProgSeed),
                          virgil::corpus::genRandomProgram(ProgSeed),
                          "seeded random program: full front end per "
                          "request",
                          {}});
  }
  S.Programs.push_back(
      {"expansion-8x8", virgil::corpus::genExpansionWorkload(8, 8),
       "generics-heavy: 8 generics x 8 instantiations, 1 request in " +
           std::to_string(kColdHeavyEvery),
       {}});
  for (uint32_t ProgSeed = 1; ProgSeed <= kColdWarmups; ++ProgSeed) {
    S.WarmUps.push_back((uint32_t)S.Programs.size());
    S.Programs.push_back({"warm-up-" + randomProgramName(ProgSeed),
                          virgil::corpus::genRandomProgram(ProgSeed),
                          "set-up warm-up, fixed generator seed: the "
                          "server's first compile and first VM",
                          {}});
  }
  std::uniform_int_distribution<uint32_t> PickRandom(0,
                                                     kColdRandomBases - 1);
  std::uniform_int_distribution<size_t> PickSlot(0, kColdHeavyEvery - 1);
  S.Schedule.resize(kServeSchedule);
  for (size_t Block = 0; Block < kServeSchedule; Block += kColdHeavyEvery) {
    size_t Heavy = Block + PickSlot(Rng);
    for (size_t I = Block; I != Block + kColdHeavyEvery; ++I)
      S.Schedule[I] = I == Heavy ? kColdRandomBases : PickRandom(Rng);
  }
}

void makeRunHot(InputSet &S, std::mt19937_64 &Rng) {
  // The E-series kernels, each sized to about 10 ms of VM time on a
  // 4-core x86-64 host, so a run holds the >= 1000 samples p99 needs.
  using namespace virgil::corpus;
  const char *Why = "long-running kernel: VM, JIT, GC and optimizer output";
  S.Programs = {
      {"callconv", genCallConvWorkload(360000), Why, {}},
      {"matcher", genMatcherWorkload(8, 64000), Why, {}},
      {"gc", genGcWorkload(500, 100), Why, {}},
      {"escape", genEscapeChurn(44000, 8, 256), Why, {}},
      {"ssa", genSsaWorkload(4, 50000), Why, {}},
      {"share", genShareWorkload(4, 8, 16000), Why, {}},
      {"tuple", genTupleWorkload(4, 740000), Why, {}},
  };
  // Every round runs each kernel once, in a seeded order.
  std::vector<uint32_t> Round(S.Programs.size());
  for (uint32_t I = 0; I != Round.size(); ++I)
    Round[I] = I;
  for (size_t R = 0; R != kHotRounds; ++R) {
    std::shuffle(Round.begin(), Round.end(), Rng);
    S.Schedule.insert(S.Schedule.end(), Round.begin(), Round.end());
  }
}

uint64_t hashInputs(const InputSet &S) {
  uint64_t H = virgil::fnv1a64(S.Workload);
  for (const InputProgram &P : S.Programs) {
    H = virgil::fnv1a64(P.Name, H);
    H = virgil::fnv1a64(P.Reason, H);
    H = virgil::fnv1a64(P.Source, H);
  }
  for (const std::vector<uint32_t> *V : {&S.Schedule, &S.WarmUps})
    H = virgil::fnv1a64(std::string_view((const char *)V->data(),
                                         V->size() * sizeof(uint32_t)),
                        H);
  return H;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"serve-cold", "run-hot"};
  return Names;
}

bool perfbench::makeInputs(const std::string &Workload, uint64_t Seed,
                           InputSet *Out, std::string *Err) {
  InputSet S;
  S.Workload = Workload;
  S.Seed = Seed;
  std::mt19937_64 Rng(Seed);
  if (Workload == "serve-cold") {
    makeServeCold(S, Rng);
  } else if (Workload == "run-hot") {
    makeRunHot(S, Rng);
  } else {
    *Err = "unknown workload '" + Workload + "'";
    return false;
  }
  S.Hash = hashInputs(S);
  *Out = std::move(S);
  return true;
}

std::string perfbench::sourceFor(const InputSet &S, size_t Op,
                                 const char *Tag) {
  const std::string &Base = S.programOf(Op).Source;
  if (S.Workload != "serve-cold")
    return Base;
  return Base + "\n// " + Tag + " request " + std::to_string(Op) + "\n";
}

bool perfbench::computeReferences(InputSet &S, std::string *Err) {
  virgil::CompilerOptions Opts;
  Opts.StopAfterLower = true;
  virgil::Compiler C(Opts);
  for (InputProgram &P : S.Programs) {
    std::string CompileErr;
    auto Prog = C.compile(P.Name, P.Source, &CompileErr);
    if (!Prog) {
      *Err = P.Name + ": does not compile: " + CompileErr;
      return false;
    }
    virgil::InterpResult R = Prog->interpret();
    if (R.Trapped || R.Result.kind() != virgil::Value::Kind::Int) {
      *Err = P.Name + ": reference run did not return an int" +
             (R.Trapped ? " (trap: " + R.TrapMessage + ")" : "");
      return false;
    }
    P.Ref.Result = R.Result.asInt();
    P.Ref.Output = R.Output;
  }
  return true;
}
