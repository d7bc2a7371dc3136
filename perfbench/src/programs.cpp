//===-- perfbench/src/programs.cpp - cold_start and steady_state ----------===//
//
// The two workloads over the program registry (bench/suites.h: Stanford,
// Stanford-OO, small, richards, the workload pack and the closure
// kernels). Every answer is checked against the program's native C++
// twin. cold_start pays compilation for every program on every pass;
// steady_state pays it once in set-up and then times only iterations.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "suites.h"

#include "driver/isolate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

using namespace mself;
using mself::bench::allBenchmarks;
using mself::bench::BenchmarkDef;

namespace perfbench {

namespace {

std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  Rng G(Seed);
  G.shuffle(Order);
  return Order;
}

void checkAnswer(Result &R, const std::string &Name, bool Ok,
                 const std::string &Err, int64_t Got, int64_t Want) {
  std::string Bad = answerError(Name, Ok, Err, Got, Want);
  if (!Bad.empty())
    R.fail(Bad);
}

} // namespace

double isolateProbe() {
  SharedRuntime RT(1);
  std::unique_ptr<Isolate> I;
  double C0 = threadCpu();
  I = RT.createIsolate(Policy::newSelf());
  return threadCpu() - C0;
}

//===----------------------------------------------------------------------===//
// cold_start
//===----------------------------------------------------------------------===//

void runColdStart(const Options &O, Result &R) {
  const std::vector<BenchmarkDef> &All = allBenchmarks();
  const size_t N = All.size();
  std::vector<int64_t> Expected(N);
  for (size_t I = 0; I < N; ++I)
    Expected[I] = All[I].Native();

  LayerReport L;
  if (O.Trace)
    for (int K = 0; K < 3; ++K)
      L.IsolateNew.push_back(isolateProbe());
  // Set-up is what every program pays before its own source is touched:
  // constructing its VM. It is sampled at every program of every pass, so
  // its median spans the whole run.
  std::vector<double> Setup;

  const std::vector<size_t> Order = seededOrder(N, O.Seed);
  SpanRecorder Off(false, 0), On(O.Trace, 0);
  std::vector<ExactCounts> FirstPass(N);
  std::vector<std::vector<double>> PerProg(N);
  double CodeKb = 0;
  int Passes = 0;
  double SegTime[2] = {0, 0}, SegEvals[2] = {0, 0};

  const double Start = wallNow();
  const double Split = Start + (O.Trace ? O.Seconds / 3 : 0);
  const double Deadline = Start + O.Seconds;
  for (int Pass = 0;
       Pass < 2 || wallNow() < Deadline || (O.Trace && SegEvals[1] == 0);
       ++Pass, ++Passes) {
    const bool Traced = O.Trace && Pass > 0 && wallNow() >= Split;
    SpanRecorder &Rec = Traced ? On : Off;
    double PassCode = 0;
    for (size_t I : Order) {
      const BenchmarkDef &B = All[I];
      Rec.beginRequest();
      if (Traced)
        probeParse(Rec, L.Parse, {&B.Source, &B.RunExpr});
      std::unique_ptr<VirtualMachine> VM;
      std::string Err;
      bool Ok = false;
      int64_t Got = 0;
      const double Probe = hostProbe();
      double C0 = threadCpu();
      CallTimes New = timeCall(Rec, "driver.vm_new", nullptr, false, false,
                               [&] { VM = std::make_unique<VirtualMachine>(
                                         Policy::newSelf()); });
      CallTimes Load = timeCall(Rec, "driver.load", VM.get(), true, false,
                                [&] { Ok = VM->load(B.Source, Err); });
      CallTimes Eval = timeCall(Rec, "driver.eval", VM.get(), true, false,
                                [&] {
                                  if (Ok)
                                    Ok = VM->evalInt(B.RunExpr, Got, Err);
                                });
      double Cold = threadCpu() - C0;
      ++R.Attempted;
      checkAnswer(R, B.Name, Ok, Err, Got, Expected[I]);
      PerProg[I].push_back(normalized(Cold, Probe));
      SegTime[Traced] += Cold;
      SegEvals[Traced] += 1;

      LayerCounters C = LayerCounters::read(*VM);
      PassCode += double(C.CodeBytes) / 1024;
      ExactCounts Ex = exactCounts(C);
      if (Pass == 0)
        FirstPass[I] = Ex;
      else
        checkSame(R, "cold run of " + B.Name, FirstPass[I], Ex);

      PhaseTally P;
      P.absorb(*VM);
      L.Phases += P;
      L.D += C;
      L.Evals += 1;
      Setup.push_back(normalized(New.Cpu, Probe));
      L.VmNew.push_back(New.Cpu);
      L.Load.push_back(Load.Cpu);
      L.ExecSeconds += Load.Cpu + Eval.Cpu - Load.Compile - Load.Gc -
                       Eval.Compile - Eval.Gc;
      L.OffCpuSeconds += std::max(0.0, Load.Wall + Eval.Wall - Load.Cpu -
                                           Eval.Cpu);
      L.CodeGrowthBytes += double(C.CodeBytes);
      L.InternerLookups += double(C.InternerLookups);
      L.InternedStrings += VM->world().interner().size();
    }
    CodeKb = PassCode;
  }
  L.InternedStrings /= std::max<uint64_t>(1, uint64_t(L.Evals));

  const std::vector<double> Cold = mediansOf(PerProg);
  const double ColdTotal = std::accumulate(Cold.begin(), Cold.end(), 0.0);

  printf("cold_start: %zu programs x %d passes in seeded order, fresh VM "
         "per program, host-normalized thread CPU time, median pass per "
         "program\n",
         N, Passes);
  R.Samples["cold_total_s"] = uint64_t(Passes);
  R.Samples["eval"] = N * uint64_t(Passes);
  R.Samples["setup_s"] = Setup.size();

  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = median(Setup);
    E.ColdTotalS = ColdTotal;
    E.CodeKb = CodeKb;
    E.SteadyGeomeanUs = geomean(Cold) * 1e6;
    E.EvalsPerS = double(N) / ColdTotal;
    E.EvalP50Us = quantile(Cold, 0.5) * 1e6;
    E.EvalP99Us = quantile(Cold, 0.99) * 1e6;
    E.PeakRssMb = peakRssMb();
    emitEndToEnd(R, E);
    return;
  }
  double Untraced = SegTime[0] / std::max(1.0, SegEvals[0]);
  double Traced = SegTime[1] / std::max(1.0, SegEvals[1]);
  L.Overhead = SegEvals[0] > 0 ? Traced / Untraced - 1 : 0;
  L.Unaccounted = printSelfTimeTable({&On}, SegTime[1], L.Overhead,
                                     "thread CPU");
  emitLayerMetrics(R, L);
  if (!writeChromeTrace(O.TraceDir + "/cold_start.trace.json", {&On},
                        "cold_start", O.Seed))
    R.error("cannot write the trace file");
}

//===----------------------------------------------------------------------===//
// steady_state
//===----------------------------------------------------------------------===//

namespace {

/// Bytecode instructions one timed sample should execute: about 15 ms of
/// work on the reference box, so a 20-second run draws ~40 samples of each
/// program.
constexpr double kSampleInstructions = 2.0e6;

/// The harness wrapper (as in bench/harness.cpp): `[ ^ r ] value` keeps
/// the method from inlining into the tiny doIt each timed eval compiles.
std::string harnessSource(const BenchmarkDef &B) {
  return B.Source + "\nbenchHarnessRun: n = ( | r | n timesRepeat: [ r: (" +
         B.RunExpr + ") ]. [ ^ r ] value )\n";
}

struct WarmProgram {
  std::unique_ptr<VirtualMachine> VM;
  std::string TimedText; ///< "benchHarnessRun: <n>"
  int64_t Iterations = 1;
};

} // namespace

void runSteadyState(const Options &O, Result &R) {
  const std::vector<BenchmarkDef> &All = allBenchmarks();
  const size_t N = All.size();
  std::vector<int64_t> Expected(N);
  for (size_t I = 0; I < N; ++I)
    Expected[I] = All[I].Native();
  const std::vector<size_t> Order = seededOrder(N, O.Seed);

  // Set-up, five times over, in registry order (the seed orders only the
  // timed phase): construct, load, first checked answer (the cold part),
  // then calibrate the sample size and compile its doIt.
  LayerReport L;
  SpanRecorder Off(false, 0);
  std::vector<WarmProgram> Warm;
  std::vector<ExactCounts> FirstSetup(N);
  std::vector<double> Setup;
  std::vector<std::vector<double>> Cold(N);
  double CodeKb = 0;
  for (int K = 0; K < 5; ++K) {
    Warm.clear(); // One set of VMs alive at a time.
    std::vector<WarmProgram> Progs(N);
    double SetupTotal = 0, SetupCode = 0;
    for (size_t I = 0; I < N; ++I) {
      const BenchmarkDef &B = All[I];
      WarmProgram &W = Progs[I];
      std::string Err;
      int64_t Got = 0;
      const double Probe = hostProbe();
      double C0 = threadCpu();
      CallTimes New = timeCall(Off, "driver.vm_new", nullptr, false, false,
                               [&] { W.VM = std::make_unique<VirtualMachine>(
                                         Policy::newSelf()); });
      bool Ok = false;
      CallTimes Load =
          timeCall(Off, "driver.load", W.VM.get(), false, false,
                   [&] { Ok = W.VM->load(harnessSource(B), Err); });
      Ok = Ok && W.VM->evalInt("benchHarnessRun: 1", Got, Err) &&
           Got == Expected[I];
      Cold[I].push_back(normalized(threadCpu() - C0, Probe));
      // Calibrate on executed instructions, not time, so the sample size
      // is the same on every run and every machine.
      uint64_t I0 = W.VM->interp().counters().Instructions;
      Ok = Ok && W.VM->evalInt("benchHarnessRun: 1", Got, Err) &&
           Got == Expected[I];
      uint64_t PerIter =
          std::max<uint64_t>(1, W.VM->interp().counters().Instructions - I0);
      W.Iterations = std::max<int64_t>(
          1, std::llround(kSampleInstructions / double(PerIter)));
      W.TimedText = "benchHarnessRun: " + std::to_string(W.Iterations);
      Ok = Ok && W.VM->evalInt(W.TimedText, Got, Err);
      SetupTotal += normalized(threadCpu() - C0, Probe);
      ++R.Attempted;
      checkAnswer(R, B.Name + " (warm-up)", Ok, Err, Got, Expected[I]);
      LayerCounters C = LayerCounters::read(*W.VM);
      SetupCode += double(C.CodeBytes) / 1024;
      if (K == 0)
        FirstSetup[I] = exactCounts(C);
      else
        checkSame(R, "warm-up of " + B.Name, FirstSetup[I], exactCounts(C));
      if (O.Trace) {
        L.VmNew.push_back(New.Cpu);
        L.Load.push_back(Load.Cpu);
      }
    }
    Setup.push_back(SetupTotal);
    CodeKb = SetupCode;
    Warm = std::move(Progs);
  }
  // Each timed sample keeps its doIt resident, so memory keeps growing
  // with the number of samples, which grows with speed: the peak that
  // stays comparable is that of the warmed programs.
  const double SetupPeakRssMb = peakRssMb();
  if (O.Trace)
    for (int K = 0; K < 3; ++K)
      L.IsolateNew.push_back(isolateProbe());

  // Measured phase: timed samples round-robin in the seeded order.
  SpanRecorder On(O.Trace, 0);
  std::vector<LayerCounters> Before(N);
  std::vector<PhaseTally> Phases(N);
  for (size_t I = 0; I < N; ++I) {
    Before[I] = LayerCounters::read(*Warm[I].VM);
    Phases[I].skipSeen(*Warm[I].VM);
  }
  std::vector<std::vector<double>> PerIter(N), SegPerIter[2];
  SegPerIter[0].resize(N);
  SegPerIter[1].resize(N);
  size_t Samples = 0;
  double SegTime[2] = {0, 0};
  const double Start = wallNow();
  const double Split = Start + (O.Trace ? O.Seconds / 3 : 0);
  const double Deadline = Start + O.Seconds;
  bool TracedAny = false;
  for (size_t Round = 0;
       Round < 1 || wallNow() < Deadline || (O.Trace && !TracedAny); ++Round) {
    for (size_t I : Order) {
      if (Round > 0 && wallNow() >= Deadline && (!O.Trace || TracedAny))
        break;
      const bool Traced = O.Trace && wallNow() >= Split;
      TracedAny |= Traced;
      SpanRecorder &Rec = Traced ? On : Off;
      WarmProgram &W = Warm[I];
      Rec.beginRequest();
      if (Traced)
        probeParse(Rec, L.Parse, {&W.TimedText});
      std::string Err;
      int64_t Got = 0;
      bool Ok = false;
      const double Probe = hostProbe();
      CallTimes T = timeCall(Rec, "driver.eval", W.VM.get(), true, false, [&] {
        Ok = W.VM->evalInt(W.TimedText, Got, Err);
      });
      ++R.Attempted;
      checkAnswer(R, All[I].Name, Ok, Err, Got, Expected[I]);
      double Iter = std::max(1e-12, normalized(T.Cpu - T.Compile, Probe) /
                                        double(W.Iterations));
      PerIter[I].push_back(Iter);
      SegPerIter[Traced][I].push_back(Iter);
      ++Samples;
      SegTime[Traced] += T.Cpu;
      L.Evals += 1;
      L.ExecSeconds += T.Cpu - T.Compile - T.Gc;
      L.OffCpuSeconds += std::max(0.0, T.Wall - T.Cpu);
      if (O.Trace)
        Phases[I].absorb(*W.VM);
    }
  }

  const std::vector<double> Iter = mediansOf(PerIter);
  double RoundTime = 0; // One median sample of every program.
  for (size_t I = 0; I < N; ++I)
    RoundTime += Iter[I] * double(Warm[I].Iterations);
  printf("steady_state: %zu pre-warmed programs, %zu timed samples "
         "(~%.0f instructions each), host-normalized thread CPU time per "
         "iteration, median sample per program\n",
         N, Samples, kSampleInstructions);
  R.Samples["setup_s"] = Setup.size();
  R.Samples["cold_total_s"] = Setup.size();
  R.Samples["eval"] = Samples;

  if (!O.Trace) {
    EndToEnd E;
    E.SetupS = median(Setup);
    const std::vector<double> ColdMedians = mediansOf(Cold);
    E.ColdTotalS =
        std::accumulate(ColdMedians.begin(), ColdMedians.end(), 0.0);
    E.CodeKb = CodeKb;
    E.SteadyGeomeanUs = geomean(Iter) * 1e6;
    E.EvalsPerS = double(N) / RoundTime;
    E.EvalP50Us = quantile(Iter, 0.5) * 1e6;
    E.EvalP99Us = quantile(Iter, 0.99) * 1e6;
    E.PeakRssMb = SetupPeakRssMb;
    emitEndToEnd(R, E);
    return;
  }
  for (size_t I = 0; I < N; ++I) {
    LayerCounters C = LayerCounters::read(*Warm[I].VM);
    L.D += C - Before[I];
    L.CodeGrowthBytes += double(C.CodeBytes) - double(Before[I].CodeBytes);
    L.InternerLookups +=
        double(C.InternerLookups) - double(Before[I].InternerLookups);
    L.InternedStrings += Warm[I].VM->world().interner().size();
    L.Phases += Phases[I];
  }
  L.InternedStrings /= N;
  // Overhead: geomean over programs of traced / untraced median iteration.
  std::vector<double> Ratios;
  for (size_t I = 0; I < N; ++I)
    if (!SegPerIter[0][I].empty() && !SegPerIter[1][I].empty())
      Ratios.push_back(median(SegPerIter[1][I]) / median(SegPerIter[0][I]));
  L.Overhead = Ratios.empty() ? 0 : geomean(Ratios) - 1;
  L.Unaccounted = printSelfTimeTable({&On}, SegTime[1], L.Overhead,
                                     "thread CPU");
  emitLayerMetrics(R, L);
  if (!writeChromeTrace(O.TraceDir + "/steady_state.trace.json", {&On},
                        "steady_state", O.Seed))
    R.error("cannot write the trace file");
}

} // namespace perfbench
