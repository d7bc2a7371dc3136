//===-- perfbench/src/evals.cpp - repl_evals and isolate_storm ------------===//
//
// The two session workloads over the E15 scripts. repl_evals runs seeded
// evals, most with new source texts, through one standalone VM per round;
// isolate_storm runs the fixed E15 texts, all repeating, through three
// isolates of one SharedRuntime on three closed-loop worker threads.
//
//===----------------------------------------------------------------------===//

#include "scripts.h"
#include "workloads.h"

#include "driver/isolate.h"
#include "runtime/shared_tier.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <thread>

using namespace mself;

namespace perfbench {

namespace {

/// Evals per repl_evals round. Every round replays the same seeded
/// sequence in a fresh VM, so rounds are identical units of work: their
/// exact counts must agree and memory peaks at one round's growth.
constexpr size_t kEvalsPerRound = 2000;
/// repl_evals runs a host probe before every this many evals (a probe
/// costs about two evals) and normalizes them by it.
constexpr size_t kHostProbeStride = 32;

/// isolate_storm workers: nproc - 1 on the 4-CPU reference box, so the
/// workers do not compete with the rest of the system for a CPU.
constexpr int kStormWorkers = 3;
/// Length of each storm worker's seeded script sequence (cycled).
constexpr size_t kStormSequence = 4096;

void checkAnswer(Result &R, const EvalCase &C, bool Ok, const std::string &Err,
                 int64_t Got) {
  std::string Bad = answerError(C.Text, Ok, Err, Got, C.Expected);
  if (!Bad.empty())
    R.fail(Bad);
}

double repeatedShare(const std::vector<EvalCase> &Seq) {
  std::set<std::string> Seen;
  size_t Repeats = 0;
  for (const EvalCase &C : Seq)
    Repeats += !Seen.insert(C.Text).second;
  return Seq.empty() ? 0 : double(Repeats) / double(Seq.size());
}

} // namespace

//===----------------------------------------------------------------------===//
// repl_evals
//===----------------------------------------------------------------------===//

void runReplEvals(const Options &O, Result &R) {
  const std::string Prelude = scriptPrelude();
  const int Families = int(scriptFamilies().size());
  // A fixed prefix — every family once with its E15 arguments — gives
  // each round a seed-independent first answer per family; the seeded
  // evals follow.
  Rng G(O.Seed);
  std::vector<EvalCase> Seq;
  for (int F = 0; F < Families; ++F)
    Seq.push_back(fixedCase(F));
  for (size_t I = 0; I < kEvalsPerRound; ++I)
    Seq.push_back(seededCase(int(G.range(0, Families - 1)), G));
  const double Repeated = repeatedShare(Seq);

  LayerReport L;
  SpanRecorder Off(false, 0), On(O.Trace, 0);
  std::vector<double> Setup, CodeKb;
  std::vector<std::vector<double>> PerPosition(Seq.size());
  double SegTime[2] = {0, 0}, SegEvals[2] = {0, 0};
  ExactCounts First;

  const double Start = wallNow();
  const double Split = Start + (O.Trace ? O.Seconds / 3 : 0);
  const double Deadline = Start + O.Seconds;
  for (int Round = 0;
       Round < 2 || wallNow() < Deadline || (O.Trace && SegEvals[1] == 0);
       ++Round) {
    const bool Traced = O.Trace && Round > 0 && wallNow() >= Split;
    SpanRecorder &Rec = Traced ? On : Off;
    std::unique_ptr<VirtualMachine> VM;
    std::string Err;
    bool Ok = false;
    Rec.beginRequest();
    double Probe = hostProbe();
    double C0 = threadCpu();
    CallTimes New = timeCall(Rec, "driver.vm_new", nullptr, false, false, [&] {
      VM = std::make_unique<VirtualMachine>(Policy::newSelf());
    });
    CallTimes Load = timeCall(Rec, "driver.load", VM.get(), true, false,
                              [&] { Ok = VM->load(Prelude, Err); });
    Setup.push_back(normalized(threadCpu() - C0, Probe));
    L.VmNew.push_back(New.Cpu);
    L.Load.push_back(Load.Cpu);
    if (!Ok) {
      ++R.Attempted;
      R.fail("prelude: " + Err);
      break;
    }

    LayerCounters Before = LayerCounters::read(*VM);
    PhaseTally Phases;
    Phases.skipSeen(*VM);
    for (size_t K = 0; K < Seq.size(); ++K) {
      const EvalCase &C = Seq[K];
      if (K % kHostProbeStride == 0)
        Probe = hostProbe();
      Rec.beginRequest();
      if (Traced)
        probeParse(Rec, L.Parse, {&C.Text});
      int64_t Got = 0;
      CallTimes T = timeCall(Rec, "driver.eval", VM.get(), true, false,
                             [&] { Ok = VM->evalInt(C.Text, Got, Err); });
      ++R.Attempted;
      checkAnswer(R, C, Ok, Err, Got);
      PerPosition[K].push_back(normalized(T.Cpu, Probe));
      SegTime[Traced] += T.Cpu;
      SegEvals[Traced] += 1;
      L.Evals += 1;
      L.ExecSeconds += T.Cpu - T.Compile - T.Gc;
      L.OffCpuSeconds += std::max(0.0, T.Wall - T.Cpu);
      if (O.Trace)
        Phases.absorb(*VM);
    }
    LayerCounters After = LayerCounters::read(*VM);
    LayerCounters D = After - Before;
    CodeKb.push_back(double(After.CodeBytes) / 1024);
    if (Round == 0)
      First = exactCounts(D);
    else
      checkSame(R, "round " + std::to_string(Round), First, exactCounts(D));
    L.D += D;
    L.Phases += Phases;
    L.CodeGrowthBytes += double(D.CodeBytes);
    L.InternerLookups += double(D.InternerLookups);
    L.InternedStrings = VM->world().interner().size();
  }

  // Median over the rounds per position of the (identical) sequence; the
  // prefix is the cold part, the seeded evals the rest.
  const std::vector<double> Lat = mediansOf(PerPosition);
  const size_t Prefix = size_t(Families);
  if (Lat.size() != Seq.size()) {
    R.error("no complete round");
    return;
  }
  std::vector<double> Evals(Lat.begin() + Prefix, Lat.end());
  std::vector<std::vector<double>> PerFamily(static_cast<size_t>(Families));
  for (size_t K = Prefix; K < Lat.size(); ++K)
    PerFamily[size_t(Seq[K].Family)].push_back(Lat[K]);
  std::vector<double> FamilyMedians;
  for (const std::vector<double> &V : PerFamily)
    if (!V.empty())
      FamilyMedians.push_back(median(V) * 1e6);
  printf("repl_evals: %zu rounds x (%zu fixed + %zu seeded) evals, one "
         "standalone VM per round, %.1f%% of source texts repeated within a "
         "round, host-normalized thread CPU time, median round\n",
         Setup.size(), Prefix, kEvalsPerRound, 100 * Repeated);
  R.Samples["setup_s"] = Setup.size();
  R.Samples["cold_total_s"] = Setup.size();
  R.Samples["eval"] = size_t(SegEvals[0] + SegEvals[1]);

  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = median(Setup);
    E.ColdTotalS = std::accumulate(Lat.begin(), Lat.begin() + Prefix, 0.0);
    E.CodeKb = median(CodeKb);
    E.SteadyGeomeanUs = geomean(FamilyMedians);
    E.EvalsPerS = double(Evals.size()) /
                  std::accumulate(Evals.begin(), Evals.end(), 0.0);
    E.EvalP50Us = quantile(Evals, 0.5) * 1e6;
    E.EvalP99Us = quantile(Evals, 0.99) * 1e6;
    E.PeakRssMb = peakRssMb();
    emitEndToEnd(R, E);
    return;
  }
  for (int K = 0; K < 3; ++K)
    L.IsolateNew.push_back(isolateProbe());
  double Untraced = SegTime[0] / std::max(1.0, SegEvals[0]);
  double TracedMean = SegTime[1] / std::max(1.0, SegEvals[1]);
  L.Overhead = SegEvals[0] > 0 ? TracedMean / Untraced - 1 : 0;
  L.Unaccounted =
      printSelfTimeTable({&On}, SegTime[1], L.Overhead, "thread CPU");
  emitLayerMetrics(R, L);
  if (!writeChromeTrace(O.TraceDir + "/repl_evals.trace.json", {&On},
                        "repl_evals", O.Seed))
    R.error("cannot write the trace file");
}

//===----------------------------------------------------------------------===//
// isolate_storm
//===----------------------------------------------------------------------===//

namespace {

/// Evals each storm worker runs per round. An isolate keeps every program
/// it loads (one per eval), so a fixed round size keeps peak memory from
/// growing with the eval rate.
constexpr size_t kStormEvalsPerWorker = 100000;
/// The traced storm parse-probes one eval in this many: a parse costs
/// about as much as an eval, and parsing beside every eval would halve the
/// load the workers put on the shared tier.
constexpr size_t kStormParseStride = 64;

/// What one storm worker measured: latencies of the current round, the
/// rest summed over all rounds.
struct WorkerLog {
  std::vector<int> Order; ///< Seeded script sequence, cycled.
  size_t Next = 0;
  Histogram Lat; ///< Eval wall seconds, current round.
  std::vector<Histogram> PerScript; ///< The same, per script.
  uint64_t Attempted = 0, Failed = 0;
  std::string FirstFailure;
  double End = 0; ///< Wall time the worker finished its current round.
  double HostProbe = 0; ///< hostProbe() at the start of the current round.
  double SegWall[2] = {0, 0}, SegEvals[2] = {0, 0};
  double ParseWall = 0;
  ParseTally Parse;
  double ExecSeconds = 0, OffCpuSeconds = 0;
};

/// Creates one isolate per worker on \p RT, loads the prelude into each and
/// evaluates every script once (isolate 0 compiles and publishes, the
/// others rehydrate). Per-call times go to \p L; \p ColdSum gets isolate
/// 0's eval CPU times. \returns false if an isolate could not load.
bool makeIsolates(SharedRuntime &RT,
                  std::vector<std::unique_ptr<Isolate>> &Isos,
                  const std::string &Prelude,
                  const std::vector<EvalCase> &Cases, Result &R,
                  LayerReport &L, double &ColdSum) {
  SpanRecorder Off(false, 0);
  for (int W = 0; W < kStormWorkers; ++W) {
    CallTimes New = timeCall(Off, "driver.isolate_new", nullptr, false, false,
                             [&] {
                               Isos.push_back(
                                   RT.createIsolate(Policy::newSelf()));
                             });
    L.IsolateNew.push_back(New.Cpu);
    VirtualMachine &VM = Isos.back()->vm();
    std::string Err;
    bool Ok = false;
    CallTimes Load = timeCall(Off, "driver.load", &VM, false, false,
                              [&] { Ok = VM.load(Prelude, Err); });
    L.Load.push_back(Load.Cpu);
    if (!Ok) {
      ++R.Attempted;
      R.fail("prelude: " + Err);
      return false;
    }
    for (const EvalCase &C : Cases) {
      int64_t Got = 0;
      CallTimes T = timeCall(Off, "driver.eval", &VM, false, false,
                             [&] { Ok = VM.evalInt(C.Text, Got, Err); });
      ++R.Attempted;
      checkAnswer(R, C, Ok, Err, Got);
      if (W == 0)
        ColdSum += T.Cpu;
    }
  }
  return true;
}

/// One worker's closed loop for one round.
void stormRound(WorkerLog &Log, VirtualMachine &VM, SpanRecorder &Rec,
                bool Traced, PhaseTally &Phases,
                const std::vector<EvalCase> &Cases) {
  std::string Err;
  Log.HostProbe = hostProbe();
  Log.Lat = Histogram();
  for (Histogram &H : Log.PerScript)
    H = Histogram();
  for (size_t K = 0; K < kStormEvalsPerWorker; ++K) {
    const EvalCase &C = Cases[size_t(Log.Order[Log.Next++ % Log.Order.size()])];
    Rec.beginRequest();
    if (Traced && Log.Next % kStormParseStride == 0)
      Log.ParseWall += probeParse(Rec, Log.Parse, {&C.Text});
    int64_t Got = 0;
    bool Ok = false;
    CallTimes T = timeCall(Rec, "driver.eval", &VM, true, true,
                           [&] { Ok = VM.evalInt(C.Text, Got, Err); });
    ++Log.Attempted;
    if ((!Ok || Got != C.Expected) && Log.Failed++ == 0)
      Log.FirstFailure = answerError(C.Text, Ok, Err, Got, C.Expected);
    Log.Lat.add(T.Wall);
    Log.PerScript[size_t(C.Family)].add(T.Wall);
    Log.SegWall[Traced] += T.Wall;
    Log.SegEvals[Traced] += 1;
    if (Traced) {
      Log.ExecSeconds += T.Cpu - T.Compile - T.Gc;
      Log.OffCpuSeconds += std::max(0.0, T.Wall - T.Cpu);
      Phases.absorb(VM);
    }
  }
  Log.End = wallNow();
}

} // namespace

void runIsolateStorm(const Options &O, Result &R) {
  const std::string Prelude = scriptPrelude();
  const int Scripts = int(scriptFamilies().size());
  std::vector<EvalCase> Cases;
  for (int F = 0; F < Scripts; ++F)
    Cases.push_back(fixedCase(F));

  std::vector<WorkerLog> Logs(kStormWorkers);
  std::vector<std::unique_ptr<SpanRecorder>> Recs;
  for (int W = 0; W < kStormWorkers; ++W) {
    WorkerLog &Log = Logs[size_t(W)];
    Rng G(O.Seed * 1000003u + uint64_t(W));
    Log.Order.resize(kStormSequence);
    for (int &F : Log.Order)
      F = int(G.range(0, Scripts - 1));
    Log.PerScript.resize(size_t(Scripts));
    Recs.push_back(std::make_unique<SpanRecorder>(O.Trace, W + 1));
  }

  // Every round sets up a fresh runtime — isolates, preludes, one warm-up
  // eval of every script in every isolate, the only compiles of the round
  // — and then runs the closed loop. With one long-lived runtime per run,
  // throughput moved by up to 1.5x from run to run (each run measured one
  // memory layout); the median of fresh-runtime rounds repeats within a
  // few percent. The set-up runs on this one thread, so like the other
  // single-threaded measurements it is timed in thread CPU time.
  LayerReport L;
  SharedTierStats Shared;
  std::vector<double> Setup, Cold, Throughput, P50, P99, CodeKb;
  std::vector<std::vector<double>> ScriptP50(static_cast<size_t>(Scripts));
  std::vector<ExactCounts> FirstSetup(kStormWorkers);
  uint64_t Evals = 0;
  double TracedWall = 0;
  const double Start = wallNow();
  const double Split = Start + (O.Trace ? O.Seconds / 3 : 0);
  const double Deadline = Start + O.Seconds;
  bool TracedAny = false;
  for (int Round = 0;
       Round < 3 || wallNow() < Deadline || (O.Trace && !TracedAny);
       ++Round) {
    std::unique_ptr<SharedRuntime> RT;
    std::vector<std::unique_ptr<Isolate>> Isos;
    SpanRecorder Off(false, 0);
    const double SetupProbe = hostProbe();
    double C0 = threadCpu(), ColdSum = 0;
    CallTimes New = timeCall(Off, "driver.vm_new", nullptr, false, false,
                             [&] { RT = std::make_unique<SharedRuntime>(1); });
    L.VmNew.push_back(New.Cpu);
    if (!makeIsolates(*RT, Isos, Prelude, Cases, R, L, ColdSum))
      break;
    Setup.push_back(normalized(threadCpu() - C0, SetupProbe));
    Cold.push_back(normalized(ColdSum, SetupProbe));
    double Code = 0;
    for (int W = 0; W < kStormWorkers; ++W) {
      LayerCounters C = LayerCounters::read(Isos[size_t(W)]->vm());
      Code += double(C.CodeBytes) / 1024;
      if (Round == 0)
        FirstSetup[size_t(W)] = exactCounts(C);
      else
        checkSame(R, "warm-up of isolate " + std::to_string(W),
                  FirstSetup[size_t(W)], exactCounts(C));
    }
    CodeKb.push_back(Code);

    const bool Traced = O.Trace && Round > 0 && wallNow() >= Split;
    TracedAny |= Traced;
    // Per-layer window: the whole round, set-up included (the set-up runs
    // on this one thread, so the compile phase split is valid there).
    std::vector<PhaseTally> Phases(kStormWorkers);
    std::atomic<bool> Go{false};
    std::vector<std::thread> Workers;
    for (int W = 0; W < kStormWorkers; ++W)
      Workers.emplace_back([&, W] {
        SpanRecorder WorkerOff(false, W + 1);
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        stormRound(Logs[size_t(W)], Isos[size_t(W)]->vm(),
                   Traced ? *Recs[size_t(W)] : WorkerOff, Traced,
                   Phases[size_t(W)], Cases);
      });
    const double RoundStart = wallNow();
    Go.store(true, std::memory_order_release);
    for (std::thread &T : Workers)
      T.join();

    double RoundEnd = RoundStart;
    Histogram RoundLat;
    std::vector<Histogram> RoundScript(static_cast<size_t>(Scripts));
    std::vector<double> Probes;
    for (WorkerLog &Log : Logs) {
      Probes.push_back(Log.HostProbe);
      RoundEnd = std::max(RoundEnd, Log.End);
      if (Traced)
        TracedWall += Log.End - RoundStart;
      RoundLat.merge(Log.Lat);
      for (int F = 0; F < Scripts; ++F)
        RoundScript[size_t(F)].merge(Log.PerScript[size_t(F)]);
    }
    // The round's times, host-normalized by its workers' median probe.
    const double Probe = median(Probes);
    Evals += RoundLat.count();
    Throughput.push_back(double(RoundLat.count()) /
                         normalized(RoundEnd - RoundStart, Probe));
    P50.push_back(normalized(RoundLat.quantile(0.5), Probe));
    P99.push_back(normalized(RoundLat.quantile(0.99), Probe));
    for (int F = 0; F < Scripts; ++F)
      if (RoundScript[size_t(F)].count())
        ScriptP50[size_t(F)].push_back(
            normalized(RoundScript[size_t(F)].quantile(0.5), Probe));

    if (!O.Trace)
      continue;
    for (int W = 0; W < kStormWorkers; ++W) {
      VirtualMachine &VM = Isos[size_t(W)]->vm();
      LayerCounters D = LayerCounters::read(VM);
      // The interner is the runtime's: every isolate reports the same
      // process-wide probe count, so take it once.
      if (W == 0)
        L.InternerLookups += double(D.InternerLookups);
      D.InternerLookups = 0;
      L.D += D;
      L.CodeGrowthBytes += double(D.CodeBytes);
      Phases[size_t(W)].absorb(VM);
      L.Phases += Phases[size_t(W)];
    }
    SharedTierStats S = RT->tier().statsSnapshot();
    Shared.AstHits += S.AstHits;
    Shared.AstMisses += S.AstMisses;
    Shared.CodeHits += S.CodeHits;
    Shared.CodeMisses += S.CodeMisses;
    Shared.CodeUnportableProbes += S.CodeUnportableProbes;
    Shared.CodeWaits += S.CodeWaits;
    Shared.InternedStrings = S.InternedStrings;
  }

  double SegWall[2] = {0, 0}, SegEvals[2] = {0, 0}, ParseWall = 0;
  for (WorkerLog &Log : Logs) {
    R.Attempted += Log.Attempted;
    for (uint64_t I = 0; I < Log.Failed; ++I)
      R.fail(Log.FirstFailure);
    for (int S = 0; S < 2; ++S) {
      SegWall[S] += Log.SegWall[S];
      SegEvals[S] += Log.SegEvals[S];
    }
    ParseWall += Log.ParseWall;
    L.Parse.Seconds += Log.Parse.Seconds;
    L.Parse.Bytes += Log.Parse.Bytes;
    L.Parse.Calls += Log.Parse.Calls;
    L.ExecSeconds += Log.ExecSeconds;
    L.OffCpuSeconds += Log.OffCpuSeconds;
  }
  if (Cold.empty()) {
    R.error("no complete round");
    return;
  }
  std::vector<double> ScriptMedians;
  for (const std::vector<double> &V : ScriptP50)
    if (!V.empty())
      ScriptMedians.push_back(median(V) * 1e6);
  printf("isolate_storm: %zu rounds, each a fresh SharedRuntime with %d "
         "closed-loop workers (one isolate each) running %zu evals per "
         "worker of the %d fixed E15 texts (all repeat); host-normalized "
         "wall time, median round\n",
         Throughput.size(), kStormWorkers, kStormEvalsPerWorker, Scripts);
  R.Samples["setup_s"] = Setup.size();
  R.Samples["cold_total_s"] = Cold.size();
  R.Samples["eval"] = Evals;

  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = median(Setup);
    E.ColdTotalS = median(Cold);
    E.CodeKb = median(CodeKb);
    E.SteadyGeomeanUs = geomean(ScriptMedians);
    E.EvalsPerS = median(Throughput);
    E.EvalP50Us = median(P50) * 1e6;
    E.EvalP99Us = median(P99) * 1e6;
    E.PeakRssMb = peakRssMb();
    emitEndToEnd(R, E);
    return;
  }
  // Counters cover every eval; the CPU split only the traced ones.
  L.Evals = double(Evals);
  const double CpuScale = SegEvals[1] > 0 ? L.Evals / SegEvals[1] : 0;
  L.ExecSeconds *= CpuScale;
  L.OffCpuSeconds *= CpuScale;
  uint64_t AstProbes = Shared.AstHits + Shared.AstMisses;
  uint64_t CodeProbes =
      Shared.CodeHits + Shared.CodeMisses + Shared.CodeUnportableProbes;
  L.AstHitRate = AstProbes ? double(Shared.AstHits) / double(AstProbes) : 0;
  L.CodeHitRate =
      CodeProbes ? double(Shared.CodeHits) / double(CodeProbes) : 0;
  L.CodeWaits = Shared.CodeWaits;
  L.InternedStrings = Shared.InternedStrings;
  double Untraced = SegWall[0] / std::max(1.0, SegEvals[0]);
  double TracedMean = SegWall[1] / std::max(1.0, SegEvals[1]);
  L.Overhead = SegEvals[0] > 0 ? TracedMean / Untraced - 1 : 0;
  std::vector<const SpanRecorder *> RecPtrs;
  for (const std::unique_ptr<SpanRecorder> &Rec : Recs)
    RecPtrs.push_back(Rec.get());
  L.Unaccounted = printSelfTimeTable(RecPtrs, TracedWall - ParseWall,
                                     L.Overhead, "wall, summed over workers");
  emitLayerMetrics(R, L);
  if (!writeChromeTrace(O.TraceDir + "/isolate_storm.trace.json", RecPtrs,
                        "isolate_storm", O.Seed))
    R.error("cannot write the trace file");
}

} // namespace perfbench
