//===- perfbench/tests/SelfTest.cpp - Harness self-tests --------------------===//
///
/// \file
/// Checks the benchmark's own measuring code: percentiles, geometric
/// mean, span self time, failure accounting, reference matching and
/// seeded input generation:
///
///   perfbench_selftest
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #Cond);              \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> ramp(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I != 0; --I) // descending: the helper must sort
    V.push_back((double)I);
  return V;
}

void testPercentile() {
  Percentile Short = percentile(ramp(999), 0.99);
  CHECK(!Short.Ok);
  CHECK(Short.Samples == 999);
  CHECK(Short.Beyond == 9);

  Percentile P99 = percentile(ramp(1000), 0.99);
  CHECK(P99.Ok);
  CHECK(P99.Samples == 1000);
  CHECK(P99.Beyond == 10);
  CHECK(near(P99.Value, 990));

  Percentile P50 = percentile(ramp(100), 0.5);
  CHECK(P50.Ok);
  CHECK(near(P50.Value, 50));
  CHECK(!percentile({}, 0.5).Ok);

  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
}

void testGeomean() {
  CHECK(near(geomean({1, 4, 16}), 4));
  CHECK(near(geomean({2, 8}), 4));
  CHECK(near(geomean({7}), 7));
  CHECK(geomean({}) == 0);
  CHECK(geomean({1, 0, 4}) == 0);
}

void testSelfTime() {
  Span P{"parent", 0, 100, -1, 1};
  CHECK(selfTimeNs(P, {}) == 100);
  // Disjoint children.
  CHECK(selfTimeNs(P, {{10, 20}, {30, 50}}) == 70);
  // Overlapping children count their union once: [10,50) + [70,80).
  CHECK(selfTimeNs(P, {{20, 50}, {10, 30}, {70, 80}}) == 50);
  // Nested child inside a sibling.
  CHECK(selfTimeNs(P, {{10, 60}, {20, 30}}) == 50);
  // Children are clipped to the parent.
  CHECK(selfTimeNs(P, {{-10, 10}, {90, 130}}) == 80);
  CHECK(selfTimeNs(P, {{0, 100}}) == 0);

  // Through the tracer: the parent's self time excludes its child.
  Tracer T;
  int Root = T.begin("root", -1, 7);
  int Kid = T.begin("kid", Root, 7);
  T.end(Kid);
  T.end(Root);
  std::vector<int64_t> Self = T.selfTimesNs();
  const auto &S = T.spans();
  CHECK(Self[(size_t)Root] == (S[(size_t)Root].EndNs -
                               S[(size_t)Root].StartNs) -
                                  (S[(size_t)Kid].EndNs -
                                   S[(size_t)Kid].StartNs));
}

void testFailedPct() {
  OpTally T;
  for (int I = 0; I != 8; ++I)
    T.record(OpStatus::Ok);
  T.record(OpStatus::Refused);   // BUSY after every retry
  T.record(OpStatus::Transport); // connection or decode failure
  CHECK(T.Attempted == 10);
  CHECK(T.failed() == 2);
  CHECK(near(T.failedPct(), 20));
  T.record(OpStatus::Mismatch);
  T.record(OpStatus::ProgramError);
  CHECK(T.failed() == 4);
  CHECK(OpTally().failedPct() == 0);
}

void testReferenceMatch() {
  Expected Ref{5, "five\n"};
  CHECK(matches(Ref, true, 5, "five\n"));
  // A deliberately wrong expectation is reported as a mismatch.
  Expected Wrong = Ref;
  Wrong.Result += 1;
  CHECK(!matches(Wrong, true, 5, "five\n"));
  CHECK(!matches(Ref, true, 5, "four\n"));
  CHECK(!matches(Ref, false, 5, "five\n"));
  // Only the low 32 bits carry an int main's result.
  CHECK(matches(Expected{-1, ""}, true, 0xFFFFFFFFll, ""));
}

void testSeededInputs() {
  for (const std::string &W : workloadNames()) {
    InputSet A, B, C;
    std::string Err;
    bool Ok = makeInputs(W, 11, &A, &Err) && makeInputs(W, 11, &B, &Err) &&
              makeInputs(W, 12, &C, &Err);
    if (!Ok) {
      std::printf("FAIL %s: %s\n", W.c_str(), Err.c_str());
      ++Failures;
      continue;
    }
    CHECK(A.Hash == B.Hash);
    CHECK(A.Hash != C.Hash);
    CHECK(!A.Programs.empty() && !A.Schedule.empty());
    if (W == "serve-cold") // every request a distinct source
      CHECK(sourceFor(A, 0, "t") != sourceFor(A, A.Programs.size(), "t"));
  }
  InputSet X;
  std::string Err;
  CHECK(!makeInputs("no-such-workload", 1, &X, &Err));
}

} // namespace

int main() {
  testPercentile();
  testGeomean();
  testSelfTime();
  testFailedPct();
  testReferenceMatch();
  testSeededInputs();
  if (Failures) {
    std::printf("perfbench self-test: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
