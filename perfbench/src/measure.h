//===-- perfbench/src/measure.h - Clocks, statistics, spans -----*- C++ -*-===//
//
// Part of miniself, a reproduction of Chambers & Ungar, PLDI '90.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement plumbing every workload shares: thread-CPU and wall
/// clocks, a seeded generator, order statistics, the per-layer counter
/// snapshot read at call boundaries, the span recorder of the traced run,
/// and the result a workload hands back to main().
///
//===----------------------------------------------------------------------===//

#ifndef MINISELF_PERFBENCH_MEASURE_H
#define MINISELF_PERFBENCH_MEASURE_H

#include "driver/vm.h"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds of CPU time consumed by the calling thread.
double threadCpu();
/// Seconds on the monotonic wall clock since the first call in the process.
double wallNow();
/// Peak resident set size of the process, in MiB.
double peakRssMb();

/// splitmix64: small, fully specified, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform integer in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);
  /// Fisher-Yates shuffle driven by next().
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[static_cast<size_t>(range(0, I - 1))]);
  }

private:
  uint64_t State;
};

/// Linear-interpolated quantile, 0 <= Q <= 1 (copies and sorts).
double quantile(std::vector<double> V, double Q);
double median(const std::vector<double> &V);
double geomean(const std::vector<double> &V);
/// The median of each non-empty row: one value per repeated unit of work.
std::vector<double> mediansOf(const std::vector<std::vector<double>> &Rows);

/// Runs a fixed native C++ kernel (four rounds of the richards and
/// deltablue twins) and \returns its thread-CPU seconds: how fast the host
/// runs the calling thread right now. On a shared host this moves by 1.5x
/// from second to second, and VM code moves with it.
double hostProbe();
/// The probe's time on the reference host (4-CPU Xeon VM) when quiet.
constexpr double kProbeReferenceSeconds = 250e-6;
/// \p Seconds measured next to a probe that took \p Probe, scaled to the
/// reference host: every reported time is host-normalized this way.
inline double normalized(double Seconds, double Probe) {
  return Seconds * kProbeReferenceSeconds / Probe;
}

/// Log-linear histogram of durations: exact below 128 ns, then 128
/// sub-buckets per octave (0.8% resolution). A storm run records millions
/// of evals; the histogram keeps that at fixed memory, so the run's peak
/// RSS does not grow with its eval count.
class Histogram {
public:
  void add(double Seconds);
  void merge(const Histogram &O);
  uint64_t count() const { return N; }
  /// Quantile in seconds, interpolated within the bucket.
  double quantile(double Q) const;

private:
  static constexpr int kSub = 128;
  std::vector<uint64_t> Buckets = std::vector<uint64_t>(64 * kSub, 0);
  uint64_t N = 0;
};

/// Per-layer counters read from one VM through its public surface. Cheap
/// enough to read at every program boundary; the per-eval hot path of the
/// traced run reads only compileSeconds/gcPauseSeconds.
struct LayerCounters {
  uint64_t Instructions = 0, Sends = 0, TypeTests = 0, PrimCalls = 0;
  uint64_t BlocksMade = 0, PicHits = 0, QuickSends = 0, SendsMega = 0;
  uint64_t FullLookups = 0;
  uint64_t Scavenges = 0, FullCollections = 0;
  uint64_t AllocBytes = 0, PromotedBytes = 0, ArenaBytes = 0;
  double GcPauseSeconds = 0;
  double CompileSeconds = 0;
  uint64_t Compiles = 0;      ///< Functions compiled (every tier).
  uint64_t CodeBytes = 0;     ///< Resident compiled code.
  uint64_t InternerLookups = 0;

  /// Snapshot through VirtualMachine::telemetry().
  static LayerCounters read(const mself::VirtualMachine &VM);
  LayerCounters operator-(const LayerCounters &O) const;
  LayerCounters &operator+=(const LayerCounters &O);
};

/// The compile phase split, summed from the VM's bounded compilation event
/// log. absorb() reads only events it has not seen; events the log evicted
/// before they could be read are counted in Missed, and the split then
/// covers the rest only. The phase clocks are process CPU time, so the
/// split is exact only while one thread runs.
struct PhaseTally {
  double AnalyzeSeconds = 0, SplitSeconds = 0, LowerSeconds = 0,
         EmitSeconds = 0;
  uint64_t Missed = 0;

  void absorb(mself::VirtualMachine &VM);
  /// Marks every event logged so far as seen without counting it.
  void skipSeen(mself::VirtualMachine &VM);
  PhaseTally &operator+=(const PhaseTally &O);

private:
  uint64_t NextSeq = 0;
};

double compileSeconds(mself::VirtualMachine &VM);
double gcPauseSeconds(mself::VirtualMachine &VM);

/// The layers spans are named after (the src/ modules).
enum Layer { Driver, Parser, Compiler, Interp, VmLayer, Runtime, NumLayers };
const char *layerName(Layer L);

/// One recorded span: Chrome trace-event "complete" event.
struct Span {
  const char *Name = "";
  Layer L = Driver;
  uint64_t Id = 0, Parent = 0, Request = 0;
  int Tid = 0;
  double StartUs = 0, DurUs = 0;
  bool Attributed = false; ///< Duration from counters, position nominal.
};

/// Per-thread span buffer plus the self-time roll-up of the traced run.
/// A disabled recorder does nothing, so the untraced code path is the
/// same code with every call a no-op.
class SpanRecorder {
public:
  SpanRecorder(bool On, int Tid) : On(On), Tid(Tid) {}
  bool on() const { return On; }

  /// Opens a request: spans recorded until the next begin share its id.
  void beginRequest() { Request += On; }
  /// Records a span with explicit times; \returns its id (0 when off).
  uint64_t span(const char *Name, Layer L, double StartWall, double EndWall,
                double SelfSeconds, uint64_t Parent = 0,
                bool Attributed = false);
  /// Records the counter-attributed children of a driver call: compile,
  /// GC and (the rest) interpreter time, laid end to end in the parent.
  void attributeCall(uint64_t Parent, double StartWall, double CpuSeconds,
                     double CompileSeconds, double GcSeconds);

  double SelfSeconds[NumLayers] = {};
  std::vector<Span> Spans;
  uint64_t Dropped = 0;

private:
  bool On;
  int Tid;
  uint64_t Request = 0;
  uint64_t NextId = 1;
};

/// Times of one call into the VM.
struct CallTimes {
  double Cpu = 0, Wall = 0;   ///< Thread CPU and wall seconds.
  double Compile = 0, Gc = 0; ///< Compiler and GC-pause seconds inside.
};

/// Runs \p Fn — one call into the VM — under the thread-CPU and wall
/// clocks, reading the compile and GC-pause counters of \p VM (if any) at
/// the same boundaries. A \p WallBasis call reads the thread-CPU clock only
/// when tracing (CallTimes::Cpu is 0 otherwise). With tracing on it records
/// the call as a driver span; with \p Attribute its compile, GC and
/// interpreter time become attributed child spans, and with \p WallBasis
/// the time it spent off the CPU becomes a runtime.blocked child.
template <typename F>
CallTimes timeCall(SpanRecorder &Rec, const char *Name,
                   mself::VirtualMachine *VM, bool Attribute, bool WallBasis,
                   F &&Fn) {
  // The thread-CPU clock is a system call: too dear per storm eval.
  const bool Cpu = !WallBasis || Rec.on();
  double K0 = VM ? compileSeconds(*VM) : 0, G0 = VM ? gcPauseSeconds(*VM) : 0;
  double W0 = wallNow(), C0 = Cpu ? threadCpu() : 0;
  Fn();
  double C1 = Cpu ? threadCpu() : 0, W1 = wallNow();
  CallTimes T;
  T.Cpu = C1 - C0;
  T.Wall = W1 - W0;
  if (VM) {
    T.Compile = compileSeconds(*VM) - K0;
    T.Gc = gcPauseSeconds(*VM) - G0;
  }
  if (Rec.on()) {
    uint64_t Id = Rec.span(Name, Driver, W0, W1, Attribute ? 0 : T.Cpu);
    if (Attribute)
      Rec.attributeCall(Id, W0, T.Cpu, T.Compile, T.Gc);
    if (WallBasis && T.Wall > T.Cpu)
      Rec.span("runtime.blocked", Runtime, W0 + T.Cpu, W1, T.Wall - T.Cpu, Id,
               /*Attributed=*/true);
  }
  return T;
}

/// Writes every recorder's spans as one Chrome trace-event JSON file.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanRecorder *> &Recs,
                      const std::string &Workload, uint64_t Seed);

/// Prints the per-layer self-time table: each layer's self time and its
/// share of \p EndToEnd, the unaccounted remainder, and the overhead of
/// tracing measured as traced over untraced time per unit of work.
/// \returns the unaccounted share of \p EndToEnd.
double printSelfTimeTable(const std::vector<const SpanRecorder *> &Recs,
                          double EndToEnd, double Overhead,
                          const char *TimeBasis);

/// What a workload hands back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Determinism or configuration errors: the run is invalid.
  std::vector<std::string> Errors;
  /// metric name -> (value, unit), in the order they were set.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Sample counts printed next to the end-to-end metrics.
  std::map<std::string, uint64_t> Samples;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  void fail(const std::string &What); ///< One failed operation (counted).
  void error(const std::string &What); ///< Invalidates the run.
};

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceDir; ///< Where the traced run writes its trace file.
};

/// Totals of the parse probes: Parser::parseTopLevel run beside the VM on
/// the texts an eval hands it, into a throwaway program and interner.
struct ParseTally {
  double Seconds = 0, Bytes = 0;
  double Calls = 0; ///< Evals whose texts were probed.
};

/// Parse-probes the texts of one eval as one parser span.
/// \returns the probe's wall seconds.
double probeParse(SpanRecorder &Rec, ParseTally &T,
                  std::initializer_list<const std::string *> Texts);

/// The exact counts two runs of the same work must reproduce.
struct ExactCounts {
  uint64_t Instructions = 0, Sends = 0, Compiles = 0, CodeBytes = 0;
  bool operator==(const ExactCounts &O) const = default;
};
ExactCounts exactCounts(const LayerCounters &C);
/// Records a benchmark error (not a failed operation) unless \p A == \p B.
void checkSame(Result &R, const std::string &What, const ExactCounts &A,
               const ExactCounts &B);

/// \returns "" when an eval of \p What answered \p Want, else the failure.
std::string answerError(const std::string &What, bool Ok,
                        const std::string &Err, int64_t Got, int64_t Want);

/// Everything the per-layer metrics are computed from. Counts and times
/// cover the measured phase and are reported per eval — the workload's
/// timed call: one cold program run, one steady-state sample, or one
/// session eval. Driver times are medians per call.
struct LayerReport {
  double Evals = 0;
  LayerCounters D;
  PhaseTally Phases;
  double ExecSeconds = 0;   ///< Eval CPU minus compile minus GC pauses.
  double OffCpuSeconds = 0; ///< Eval wall minus eval thread CPU.
  std::vector<double> VmNew, Load, IsolateNew; ///< Seconds per call.
  ParseTally Parse;
  double CodeGrowthBytes = 0;
  double AstHitRate = 0, CodeHitRate = 0;
  uint64_t CodeWaits = 0, InternedStrings = 0;
  double InternerLookups = 0;
  double Overhead = 0, Unaccounted = 0; ///< Shares, from the span table.
};
void emitLayerMetrics(Result &R, const LayerReport &L);

} // namespace perfbench

#endif // MINISELF_PERFBENCH_MEASURE_H
