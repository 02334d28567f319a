//===- tests/CorpusTest.cpp - Differential tests over the corpus ----------===//
///
/// Every paper-example program must produce its expected result and
/// output under all four execution strategies.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "fuzz/Oracle.h"

#include <ostream>

using namespace virgil;
using namespace virgil::testing;

namespace virgil::corpus {
// Prints a program by its expected result, keeping its source pointers
// out of the test IDs; the program's name is already the test suffix.
static void PrintTo(const CorpusProgram &P, std::ostream *OS) {
  *OS << "returns " << P.ExpectedResult;
}
} // namespace virgil::corpus

namespace {

class CorpusTest : public ::testing::TestWithParam<corpus::CorpusProgram> {};

TEST_P(CorpusTest, AllStrategiesAgree) {
  const corpus::CorpusProgram &P = GetParam();
  RunOutcome O = runAllStrategies(P.Source);
  ASSERT_FALSE(O.Trapped) << P.Name << ": " << O.TrapMessage;
  EXPECT_EQ(O.Result, P.ExpectedResult) << P.Name;
  EXPECT_EQ(O.Output, P.ExpectedOutput) << P.Name;
}

TEST_P(CorpusTest, UnoptimizedPipelineAgrees) {
  const corpus::CorpusProgram &P = GetParam();
  CompilerOptions Options;
  Options.Optimize = false;
  RunOutcome O = runAllStrategies(P.Source, Options);
  ASSERT_FALSE(O.Trapped) << P.Name << ": " << O.TrapMessage;
  EXPECT_EQ(O.Result, P.ExpectedResult) << P.Name;
  EXPECT_EQ(O.Output, P.ExpectedOutput) << P.Name;
}

std::string corpusName(
    const ::testing::TestParamInfo<corpus::CorpusProgram> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Paper, CorpusTest,
                         ::testing::ValuesIn(corpus::allPrograms()),
                         corpusName);

// Dead-function elimination's roots: a function reachable only
// through a closure stored in a global, only through a closure stored
// in an object field, only through a vtable slot (the receivers come
// out of an array, so CHA cannot devirtualize), or only from a global
// initializer ($init) must survive; a helper inlined into its only
// caller must not.
const char *RootsProgram = R"(
def squared(x: int) -> int { return x * x; }
def tripled(x: int) -> int { return x * 3; }
def fact(n: int) -> int { if (n <= 1) return 1; return n * fact(n - 1); }
def helper(x: int) -> int { return x + 1; }
class Holder { var f: int -> int; new(f) { } }
class Shape { def area() -> int { return 0; } }
class Sq extends Shape { var s: int; new(s) { } def area() -> int { return s * s; } }
class Rect extends Shape {
  var w: int;
  var h: int;
  new(w, h) { }
  def area() -> int { return w * h; }
}
var g: int -> int = squared;
var holder: Holder = Holder.new(tripled);
var f5: int = fact(5);
def main() -> int {
  var shapes = Array<Shape>.new(2);
  shapes[0] = Sq.new(3);
  shapes[1] = Rect.new(2, 5);
  var a = 0;
  for (i = 0; i < shapes.length; i = i + 1) a = a + shapes[i].area();
  return g(7) + holder.f(4) + f5 + helper(a) - 1;
}
)";

TEST(DeadFunctionRoots, ReachableFunctionsSurviveAndRunIdentically) {
  CompilerOptions Options;
  Options.ShareSpecializations = false; // Keep every body's own name.
  auto P = compileOk(RootsProgram, Options);
  ASSERT_NE(P, nullptr);
  auto has = [&](const char *Name) {
    for (const IrFunction *F : P->normIr().Functions)
      if (F->Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(has("squared")) << "closure stored in a global";
  EXPECT_TRUE(has("tripled")) << "closure stored in a field";
  EXPECT_TRUE(has("Sq.area")) << "vtable slot";
  EXPECT_TRUE(has("Rect.area")) << "vtable slot";
  EXPECT_TRUE(has("fact")) << "called only from $init";
  EXPECT_FALSE(has("helper")) << "inlined into main, so dead";
  EXPECT_GT(P->stats().OptAfterMono.FunctionsRemoved +
                P->stats().OptAfterNorm.FunctionsRemoved,
            0u);

  // 49 + 12 + 120 + (9 + 10 + 1) - 1.
  RunOutcome O = runAllStrategies(RootsProgram);
  ASSERT_FALSE(O.Trapped) << O.TrapMessage;
  EXPECT_EQ(O.Result, 200);

  // Every oracle leg: the interpreters, the VM with and without the
  // pool and the JIT, and each compile-layer knob forced on.
  fuzz::OracleConfig Config;
  Config.VmPooled = true;
  for (const FeatureInfo &F : features())
    if (F.Fuzz == FuzzFlag::Leg)
      Config.Legs.push_back(F.Id);
  fuzz::OracleReport R = fuzz::DifferentialOracle(Config).check(RootsProgram);
  EXPECT_FALSE(R.diverged()) << R.Detail;
  EXPECT_GE(R.Runs.size(), 8u);
}

} // namespace
