//===-- perfbench/src/workloads.h - The four workloads ----------*- C++ -*-===//
//
// Part of miniself, a reproduction of Chambers & Ungar, PLDI '90.
//
//===----------------------------------------------------------------------===//

#ifndef MINISELF_PERFBENCH_WORKLOADS_H
#define MINISELF_PERFBENCH_WORKLOADS_H

#include "measure.h"

namespace perfbench {

/// Each program of the registry once in a fresh VM, construction to first
/// checked answer (compile-bound).
void runColdStart(const Options &O, Result &R);
/// The same programs pre-warmed; only timed iterations count (run-bound).
void runSteadyState(const Options &O, Result &R);
/// One standalone VM per round, a closed loop of short seeded evals.
void runReplEvals(const Options &O, Result &R);
/// One SharedRuntime, three closed-loop workers with one isolate each.
void runIsolateStorm(const Options &O, Result &R);

/// Thread-CPU seconds SharedRuntime::createIsolate takes, measured on a
/// throwaway runtime: the standalone workloads' driver.isolate_new_s.
double isolateProbe();

/// Prints the end-to-end metrics shared by every workload and records
/// them in \p R. Units: setup_s and cold_total_s in s, code_kb in KB,
/// the latencies in us, evals_per_s in 1/s, peak_rss_mb in MB.
struct EndToEnd {
  double SetupS = 0, ColdTotalS = 0, CodeKb = 0, SteadyGeomeanUs = 0;
  double EvalsPerS = 0, EvalP50Us = 0, EvalP99Us = 0;
  double PeakRssMb = 0;
};
void emitEndToEnd(Result &R, const EndToEnd &E);

} // namespace perfbench

#endif // MINISELF_PERFBENCH_WORKLOADS_H
