//===- perfbench/src/Harness.h - Measurement helpers ------------*- C++ -*-===//
///
/// \file
/// The statistics, span tracing and failure accounting the repo
/// benchmark reports with. Header-only so the self-test links the same
/// code perfbench measures with.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the tail it claims to describe is a handful of
/// outliers.
constexpr size_t kMinTailSamples = 10;

struct Percentile {
  bool Ok = false;
  double Value = 0;
  size_t Samples = 0;
  /// Samples strictly above the nearest-rank position.
  size_t Beyond = 0;
};

/// Nearest-rank percentile \p Q (0 < Q < 1) of \p V. Refuses (Ok =
/// false) when fewer than kMinTailSamples samples lie beyond the rank;
/// Samples and Beyond are filled either way so the caller can say why.
inline Percentile percentile(std::vector<double> V, double Q) {
  Percentile P;
  P.Samples = V.size();
  if (V.empty() || Q <= 0 || Q >= 1)
    return P;
  size_t Rank = (size_t)std::ceil(Q * (double)V.size());
  if (Rank == 0)
    Rank = 1;
  P.Beyond = V.size() - Rank;
  if (P.Beyond < kMinTailSamples)
    return P;
  std::nth_element(V.begin(), V.begin() + (Rank - 1), V.end());
  P.Value = V[Rank - 1];
  P.Ok = true;
  return P;
}

/// The middle value (mean of the middle two for even sizes); 0 when
/// empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t H = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + H, V.end());
  double Hi = V[H];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + H);
  return (Lo + Hi) / 2;
}

/// Geometric mean of positive values; 0 when empty or when any value
/// is not positive (a ratio of zero has no logarithm).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / (double)V.size());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Index of the span that caused this one; -1 for a root.
  int Parent = -1;
  /// Shared by every span of one request (or replayed program).
  uint64_t Req = 0;
};

/// Self time of \p Parent: its duration minus the union of its
/// children's intervals, each clipped to the parent. Overlapping
/// children (work fanned out in parallel) count once.
inline int64_t selfTimeNs(const Span &Parent,
                          std::vector<std::pair<int64_t, int64_t>> Kids) {
  for (auto &K : Kids) {
    K.first = std::max(K.first, Parent.StartNs);
    K.second = std::min(K.second, Parent.EndNs);
  }
  std::sort(Kids.begin(), Kids.end());
  int64_t Covered = 0, CurLo = 0, CurHi = 0;
  bool Open = false;
  for (const auto &K : Kids) {
    if (K.second <= K.first)
      continue;
    if (Open && K.first <= CurHi) {
      CurHi = std::max(CurHi, K.second);
      continue;
    }
    if (Open)
      Covered += CurHi - CurLo;
    CurLo = K.first;
    CurHi = K.second;
    Open = true;
  }
  if (Open)
    Covered += CurHi - CurLo;
  return (Parent.EndNs - Parent.StartNs) - Covered;
}

/// In-memory span recorder for the traced run. Spans are appended on
/// begin() and closed by end(); nothing is written until
/// writeChromeTrace(). Single-threaded by design: perfbench records
/// spans only from its own thread, around calls into the library.
class Tracer {
public:
  int begin(const char *Name, int Parent, uint64_t Req) {
    Spans.push_back(Span{Name, nowNs(), 0, Parent, Req});
    return (int)Spans.size() - 1;
  }
  void end(int Id) { Spans[(size_t)Id].EndNs = nowNs(); }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span, indexed like spans().
  std::vector<int64_t> selfTimesNs() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Kids[(size_t)S.Parent].emplace_back(S.StartNs, S.EndNs);
    std::vector<int64_t> Out(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[I] = selfTimeNs(Spans[I], std::move(Kids[I]));
    return Out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    int64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fputs("{\"traceEvents\":[", F);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%llu}}",
                   I ? "," : "", S.Name, (double)(S.StartNs - T0) / 1e3,
                   (double)(S.EndNs - S.StartNs) / 1e3, I, S.Parent,
                   (unsigned long long)S.Req);
    }
    std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", F);
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it free, so one code path serves traced and untraced
/// runs.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, int Parent, uint64_t Req)
      : T(T), Id(T ? T->begin(Name, Parent, Req) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Operation accounting
//===----------------------------------------------------------------------===//

enum class OpStatus {
  Ok,
  /// Completed, but result or output differs from the reference.
  Mismatch,
  /// The program did not complete normally (compile error, trap,
  /// exhausted quota).
  ProgramError,
  /// Still answered BUSY after every retry.
  Refused,
  /// The connection failed or a frame could not be decoded.
  Transport,
};

inline const char *statusName(OpStatus S) {
  switch (S) {
  case OpStatus::Ok:
    return "ok";
  case OpStatus::Mismatch:
    return "mismatch";
  case OpStatus::ProgramError:
    return "program_error";
  case OpStatus::Refused:
    return "refused";
  case OpStatus::Transport:
    return "transport";
  }
  return "?";
}

/// Counts attempted and failed operations. Everything but Ok is a
/// failure: a refused or broken request missed its answer just as a
/// wrong one did.
struct OpTally {
  uint64_t Attempted = 0;
  uint64_t ByStatus[5] = {};

  void record(OpStatus S) {
    ++Attempted;
    ++ByStatus[(int)S];
  }
  uint64_t failed() const { return Attempted - ByStatus[(int)OpStatus::Ok]; }
  double failedPct() const {
    return Attempted ? 100.0 * (double)failed() / (double)Attempted : 0;
  }
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
