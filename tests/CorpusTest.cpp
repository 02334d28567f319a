//===- tests/CorpusTest.cpp - Differential tests over the corpus ----------===//
///
/// Every paper-example program must produce its expected result and
/// output under all four execution strategies.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"

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

} // namespace
