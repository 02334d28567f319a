//===- perfbench/src/Replay.h - Traced per-layer replay ---------*- C++ -*-===//
///
/// \file
/// Replays a workload's programs through each layer's public entry
/// point in turn (parse, sema, lower, mono, opt, normalize, opt, share,
/// emit, cache store/load, prepare, VM construct/run/reset, protocol
/// codec), with a span around every call, and derives the per-layer
/// metrics from the spans and the stats each layer returns.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Harness.h"
#include "Inputs.h"

#include <map>
#include <string>

namespace perfbench {

struct ReplayOp {
  std::string Name;
  std::string Source;
  const Expected *Ref = nullptr;
};

/// Replays \p Ops \p Passes times into \p T, storing cache entries
/// under \p CacheDir. Every replayed run is checked against its
/// reference and counted in \p Tally. Adds the per-layer metrics it
/// measures to \p Out, keyed by BENCHMARK.json name.
void replayLayers(const std::vector<ReplayOp> &Ops, int Passes,
                  const std::string &CacheDir, Tracer &T, OpTally &Tally,
                  std::map<std::string, double> &Out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
