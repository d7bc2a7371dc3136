//===-- perfbench/src/main.cpp - The miniself benchmark -------------------===//
//
// Usage: miniself_perfbench --workload <name> --seed <n> --seconds <s>
//                           --trace <0|1> [--trace-dir <dir>]
//
// Runs one workload against the Policy::newSelf() system through its
// public API and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// records spans around every call into the VM, writes them as a Chrome
// trace-event file into --trace-dir, prints the per-layer self-time table
// and reports the per-layer metrics. See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "driver/isolate.h"
#include "driver/telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace mself;
using namespace perfbench;

namespace perfbench {

void emitEndToEnd(Result &R, const EndToEnd &E) {
  R.metric("setup_s", E.SetupS, "s");
  R.metric("cold_total_s", E.ColdTotalS, "s");
  R.metric("code_kb", E.CodeKb, "KB");
  R.metric("steady_geomean_us", E.SteadyGeomeanUs, "us");
  R.metric("evals_per_s", E.EvalsPerS, "1/s");
  R.metric("eval_p50_us", E.EvalP50Us, "us");
  R.metric("eval_p99_us", E.EvalP99Us, "us");
  R.metric("peak_rss_mb", E.PeakRssMb, "MB");
}

} // namespace perfbench

namespace {

/// Environment overrides Policy::fromEnv folds into every VM. Any of them
/// changes the measured configuration, so the benchmark refuses to run.
const char *const kPolicyEnv[] = {"MINISELF_GC_STRESS", "MINISELF_BG_COMPILE",
                                  "MINISELF_GC_CONCURRENT"};

bool configurationGuard() {
  bool Ok = true;
  for (const char *Var : kPolicyEnv)
    if (std::getenv(Var)) {
      fprintf(stderr, "refusing to run: %s is set and would change the "
                      "measured policy\n", Var);
      Ok = false;
    }
  // Catch any other override: the VM's effective policy must be newSelf.
  VirtualMachine VM(Policy::newSelf());
  if (VM.policy().fingerprint() != Policy::newSelf().fingerprint()) {
    fprintf(stderr, "refusing to run: the VM's effective policy differs "
                    "from Policy::newSelf()\n");
    Ok = false;
  }
  return Ok;
}

void usage() {
  fprintf(stderr, "usage: miniself_perfbench --workload "
                  "cold_start|steady_state|repl_evals|isolate_storm "
                  "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.TraceDir = ".";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Key == "--trace")
      O.Trace = Val != "0";
    else if (Key == "--trace-dir")
      O.TraceDir = Val;
    else {
      usage();
      return 2;
    }
  }
  void (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "cold_start")
    Run = runColdStart;
  else if (O.Workload == "steady_state")
    Run = runSteadyState;
  else if (O.Workload == "repl_evals")
    Run = runReplEvals;
  else if (O.Workload == "isolate_storm")
    Run = runIsolateStorm;
  if (!Run || !(O.Seconds > 0)) {
    usage();
    return 2;
  }
  if (!configurationGuard())
    return 3;

  printf("configuration: policy=%s telemetry_schema=%d server_schema=%d "
         "build=%s computed_goto=%s workload=%s seed=%llu seconds=%g "
         "trace=%d\n",
         Policy::newSelf().Name.c_str(), VmTelemetry::kSchemaVersion,
         ServerTelemetry::kSchemaVersion, PERFBENCH_BUILD_TYPE,
         threadedDispatchSupported() ? "on" : "off", O.Workload.c_str(),
         (unsigned long long)O.Seed, O.Seconds, O.Trace ? 1 : 0);
  fflush(stdout);

  Result R;
  Run(O, R);

  const double FailShare =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0;
  printf("\n%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto &[Name, VU] : R.Metrics) {
    const char *Key = Name.rfind("eval_", 0) == 0 || Name == "evals_per_s" ||
                              Name == "steady_geomean_us"
                          ? "eval"
                          : Name.c_str();
    auto It = R.Samples.find(Key);
    printf("%-34s %16.6f  %-6s %s\n", Name.c_str(), VU.first,
           VU.second.c_str(),
           It == R.Samples.end() ? "" : std::to_string(It->second).c_str());
  }
  const bool Correct = R.Failed == 0 && R.Errors.empty() && R.Attempted > 0;
  printf("verdict: %s (attempted %llu, failed %llu, fail_share %.6f, "
         "benchmark errors %zu)\n",
         Correct ? "correct" : "INCORRECT", (unsigned long long)R.Attempted,
         (unsigned long long)R.Failed, FailShare, R.Errors.size());

  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    char Buf[64];
    snprintf(Buf, sizeof Buf, "%.17g", VU.first);
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + VU.second + "\"}";
    First = false;
  }
  Json += "}}";
  printf("%s\n", Json.c_str());
  return 0;
}
