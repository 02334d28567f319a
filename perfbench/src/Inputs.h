//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
///
/// \file
/// Every source the benchmark sends to the system under test is built
/// here from the workload seed, together with the reference each
/// operation is checked against: the result and output of the
/// polymorphic interpreter, the semantics-defining baseline.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What a correct run of one program returns and prints. Every input
/// program's main returns int.
struct Expected {
  int32_t Result = 0;
  std::string Output;
};

struct InputProgram {
  std::string Name;
  std::string Source;
  /// Why the program is in the workload (printed with the inputs).
  std::string Reason;
  Expected Ref;
};

struct InputSet {
  std::string Workload;
  uint64_t Seed = 0;
  std::vector<InputProgram> Programs;
  /// Program index of operation I (cycled when a run outlasts it).
  std::vector<uint32_t> Schedule;
  /// Program indices the set-up sends once each before timing starts
  /// (serve-cold), so the first compile and first VM stay out of the
  /// timed region.
  std::vector<uint32_t> WarmUps;
  /// FNV-1a over the workload name, every program's name, reason and
  /// source, the schedule and the warm-ups.
  uint64_t Hash = 0;

  const InputProgram &programOf(size_t Op) const {
    return Programs[Schedule[Op % Schedule.size()]];
  }
};

/// The workloads perfbench knows, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Builds the inputs of \p Workload from \p Seed. False with \p Err
/// for an unknown workload.
bool makeInputs(const std::string &Workload, uint64_t Seed, InputSet *Out,
                std::string *Err);

/// The source text of operation \p Op. serve-cold appends a comment
/// unique to the operation, so every request misses every cache while
/// the program, and hence its reference, stays the base program's.
/// \p Tag separates operation streams (timed run, warm-up, replay).
std::string sourceFor(const InputSet &S, size_t Op, const char *Tag);

/// Fills Ref of every program by running it in the polymorphic
/// interpreter. False with \p Err if a program fails to
/// compile or does not return an int: the workload would then contain
/// an operation that fails by construction.
bool computeReferences(InputSet &S, std::string *Err);

/// Does a completed run match \p Ref?
inline bool matches(const Expected &Ref, bool HasResult, int64_t ResultBits,
                    const std::string &Output) {
  return HasResult && (int32_t)ResultBits == Ref.Result &&
         Output == Ref.Output;
}

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
