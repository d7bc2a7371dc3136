//===-- perfbench/src/measure.cpp - Clocks, statistics, spans -------------===//

#include "measure.h"

#include "native.h"
#include "parser/parser.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <ctime>

using namespace mself;

namespace perfbench {

double threadCpu() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double wallNow() {
  static const auto T0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

double peakRssMb() {
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  return double(Ru.ru_maxrss) / 1024.0; // Linux reports KiB.
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

int64_t Rng::range(int64_t Lo, int64_t Hi) {
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<int64_t>(next() % Span);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t I = static_cast<size_t>(Pos);
  if (I + 1 >= V.size())
    return V.back();
  double Frac = Pos - double(I);
  return V[I] + (V[I + 1] - V[I]) * Frac;
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(std::max(X, 1e-12));
  return std::exp(S / double(V.size()));
}

void Histogram::add(double Seconds) {
  uint64_t Ns = Seconds > 0 ? uint64_t(Seconds * 1e9 + 0.5) : 0;
  size_t I = Ns;
  if (Ns >= kSub) {
    int E = 63 - __builtin_clzll(Ns);
    I = size_t(E - 6) * kSub + ((Ns >> (E - 7)) & (kSub - 1));
  }
  ++Buckets[I];
  ++N;
}

void Histogram::merge(const Histogram &O) {
  for (size_t I = 0; I < Buckets.size(); ++I)
    Buckets[I] += O.Buckets[I];
  N += O.N;
}

double Histogram::quantile(double Q) const {
  if (N == 0)
    return 0;
  double Rank = Q * double(N - 1);
  double Below = 0;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    if (!Buckets[I] || Below + double(Buckets[I]) <= Rank) {
      Below += double(Buckets[I]);
      continue;
    }
    double Lo = double(I), Width = 1;
    if (I >= size_t(kSub)) {
      int E = int(I / kSub) + 6;
      Lo = double((kSub + I % kSub) << (E - 7));
      Width = double(uint64_t(1) << (E - 7));
    }
    double Frac = (Rank - Below + 0.5) / double(Buckets[I]);
    return (Lo + Width * Frac) * 1e-9;
  }
  return 0;
}

std::vector<double> mediansOf(const std::vector<std::vector<double>> &Rows) {
  std::vector<double> Out;
  for (const std::vector<double> &Row : Rows)
    if (!Row.empty())
      Out.push_back(median(Row));
  return Out;
}

double hostProbe() {
  static std::atomic<int64_t> Sink;
  double C0 = threadCpu();
  int64_t S = 0;
  for (int I = 0; I < 4; ++I)
    S += mself::bench::native::richards() + mself::bench::native::deltablue();
  Sink.store(S, std::memory_order_relaxed); // Keeps the kernel alive.
  return threadCpu() - C0;
}

//===----------------------------------------------------------------------===//
// Layer counters
//===----------------------------------------------------------------------===//

LayerCounters LayerCounters::read(const VirtualMachine &VM) {
  VmTelemetry T = VM.telemetry();
  LayerCounters C;
  C.Instructions = T.Exec.Instructions;
  C.Sends = T.Dispatch.Sends;
  C.TypeTests = T.Exec.TypeTests;
  C.PrimCalls = T.Exec.PrimCalls;
  C.BlocksMade = T.Exec.BlocksMade;
  C.PicHits = T.Dispatch.PicHits;
  C.QuickSends = T.Dispatch.QuickSends;
  C.SendsMega = T.Dispatch.SendsMega;
  C.FullLookups = T.Dispatch.FullLookups;
  C.Scavenges = T.Gc.Scavenges;
  C.FullCollections = T.Gc.FullCollections;
  C.AllocBytes = T.Gc.BytesAllocatedNursery + T.Gc.BytesAllocatedOld;
  C.PromotedBytes = T.Gc.BytesPromoted;
  C.ArenaBytes = T.Escape.ArenaBytes;
  C.GcPauseSeconds = T.Gc.totalPauseSeconds();
  C.CompileSeconds = T.Tier.BaselineCompileSeconds +
                     T.Tier.OptimizedCompileSeconds +
                     T.Tier.BbvCompileSeconds;
  C.Compiles =
      T.Tier.BaselineCompiles + T.Tier.OptimizedCompiles + T.Tier.BbvCompiles;
  C.CodeBytes = T.Tier.LiveCodeBytes + T.Tier.RetiredCodeBytes +
                T.Tier.InvalidatedCodeBytes;
  C.InternerLookups = T.Dispatch.InternerLookups;
  return C;
}

LayerCounters LayerCounters::operator-(const LayerCounters &O) const {
  LayerCounters D = *this;
  D.Instructions -= O.Instructions;
  D.Sends -= O.Sends;
  D.TypeTests -= O.TypeTests;
  D.PrimCalls -= O.PrimCalls;
  D.BlocksMade -= O.BlocksMade;
  D.PicHits -= O.PicHits;
  D.QuickSends -= O.QuickSends;
  D.SendsMega -= O.SendsMega;
  D.FullLookups -= O.FullLookups;
  D.Scavenges -= O.Scavenges;
  D.FullCollections -= O.FullCollections;
  D.AllocBytes -= O.AllocBytes;
  D.PromotedBytes -= O.PromotedBytes;
  D.ArenaBytes -= O.ArenaBytes;
  D.GcPauseSeconds -= O.GcPauseSeconds;
  D.CompileSeconds -= O.CompileSeconds;
  D.Compiles -= O.Compiles;
  D.CodeBytes -= O.CodeBytes;
  D.InternerLookups -= O.InternerLookups;
  return D;
}

LayerCounters &LayerCounters::operator+=(const LayerCounters &O) {
  Instructions += O.Instructions;
  Sends += O.Sends;
  TypeTests += O.TypeTests;
  PrimCalls += O.PrimCalls;
  BlocksMade += O.BlocksMade;
  PicHits += O.PicHits;
  QuickSends += O.QuickSends;
  SendsMega += O.SendsMega;
  FullLookups += O.FullLookups;
  Scavenges += O.Scavenges;
  FullCollections += O.FullCollections;
  AllocBytes += O.AllocBytes;
  PromotedBytes += O.PromotedBytes;
  ArenaBytes += O.ArenaBytes;
  GcPauseSeconds += O.GcPauseSeconds;
  CompileSeconds += O.CompileSeconds;
  Compiles += O.Compiles;
  CodeBytes += O.CodeBytes;
  InternerLookups += O.InternerLookups;
  return *this;
}

void PhaseTally::absorb(VirtualMachine &VM) {
  const CompilationEventLog &Log = VM.code().eventLog();
  const auto &Ev = Log.events();
  // Walk back to the first unseen event, then forward: O(new events).
  auto It = Ev.end();
  while (It != Ev.begin() && std::prev(It)->Seq >= NextSeq)
    --It;
  for (; It != Ev.end(); ++It) {
    Missed += It->Seq - NextSeq;
    NextSeq = It->Seq + 1;
    AnalyzeSeconds += It->AnalyzeSeconds;
    SplitSeconds += It->SplitSeconds;
    LowerSeconds += It->LowerSeconds;
    EmitSeconds += It->EmitSeconds;
  }
  Missed += Log.totalRecorded() - NextSeq;
  NextSeq = Log.totalRecorded();
}

void PhaseTally::skipSeen(VirtualMachine &VM) {
  NextSeq = VM.code().eventLog().totalRecorded();
}

PhaseTally &PhaseTally::operator+=(const PhaseTally &O) {
  AnalyzeSeconds += O.AnalyzeSeconds;
  SplitSeconds += O.SplitSeconds;
  LowerSeconds += O.LowerSeconds;
  EmitSeconds += O.EmitSeconds;
  Missed += O.Missed;
  return *this;
}

double compileSeconds(VirtualMachine &VM) {
  return VM.code().totalCompileSeconds();
}

double gcPauseSeconds(VirtualMachine &VM) {
  return VM.heap().stats().totalPauseSeconds();
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

const char *layerName(Layer L) {
  static const char *const Names[] = {"driver", "parser", "compiler",
                                      "interp", "vm",     "runtime"};
  return Names[L];
}

namespace {
/// Spans kept in memory per recorder; later spans still count toward the
/// self-time table, they are just not written to the trace file.
constexpr size_t kMaxSpansPerRecorder = 20000;
} // namespace

uint64_t SpanRecorder::span(const char *Name, Layer L, double StartWall,
                            double EndWall, double SelfSec, uint64_t Parent,
                            bool Attributed) {
  if (!On)
    return 0;
  SelfSeconds[L] += SelfSec;
  uint64_t Id = NextId++;
  if (Spans.size() >= kMaxSpansPerRecorder) {
    ++Dropped;
    return Id;
  }
  Span S;
  S.Name = Name;
  S.L = L;
  S.Id = Id;
  S.Parent = Parent;
  S.Request = Request;
  S.Tid = Tid;
  S.StartUs = StartWall * 1e6;
  S.DurUs = (EndWall - StartWall) * 1e6;
  S.Attributed = Attributed;
  Spans.push_back(S);
  return Id;
}

void SpanRecorder::attributeCall(uint64_t Parent, double StartWall,
                                 double CpuSeconds, double CompileSec,
                                 double GcSec) {
  if (!On)
    return;
  double ExecSec = std::max(0.0, CpuSeconds - CompileSec - GcSec);
  double T = StartWall;
  auto Child = [&](const char *Name, Layer L, double Sec) {
    span(Name, L, T, T + Sec, Sec, Parent, /*Attributed=*/true);
    T += Sec;
  };
  Child("compiler.compile", Compiler, CompileSec);
  Child("vm.gc", VmLayer, GcSec);
  Child("interp.exec", Layer::Interp, ExecSec);
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanRecorder *> &Recs,
                      const std::string &Workload, uint64_t Seed) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  fprintf(F, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%s\","
             "\"seed\":%llu},\"traceEvents\":[",
          Workload.c_str(), (unsigned long long)Seed);
  bool First = true;
  for (const SpanRecorder *R : Recs)
    for (const Span &S : R->Spans) {
      fprintf(F,
              "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
              "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
              "\"parent\":%llu,\"request\":%llu,\"attributed\":%s}}",
              First ? "" : ",", S.Name, layerName(S.L), S.Tid, S.StartUs,
              S.DurUs, (unsigned long long)S.Id,
              (unsigned long long)S.Parent, (unsigned long long)S.Request,
              S.Attributed ? "true" : "false");
      First = false;
    }
  fprintf(F, "\n]}\n");
  return fclose(F) == 0;
}

double printSelfTimeTable(const std::vector<const SpanRecorder *> &Recs,
                          double EndToEnd, double Overhead,
                          const char *TimeBasis) {
  double Self[NumLayers] = {};
  uint64_t Kept = 0, Dropped = 0;
  for (const SpanRecorder *R : Recs) {
    for (int L = 0; L < NumLayers; ++L)
      Self[L] += R->SelfSeconds[L];
    Kept += R->Spans.size();
    Dropped += R->Dropped;
  }
  printf("\nSelf time per layer over the traced measured phase (%s, "
         "%llu spans written, %llu beyond the in-memory cap):\n",
         TimeBasis, (unsigned long long)Kept, (unsigned long long)Dropped);
  printf("  %-12s %12s %8s\n", "layer", "self_s", "share");
  double Sum = 0;
  for (int L = 0; L < NumLayers; ++L) {
    if (L == Parser)
      continue; // Probe spans run beside the VM calls, not inside them.
    Sum += Self[L];
    printf("  %-12s %12.6f %7.2f%%\n", layerName(Layer(L)), Self[L],
           EndToEnd > 0 ? 100 * Self[L] / EndToEnd : 0.0);
  }
  double Rest = EndToEnd - Sum;
  printf("  %-12s %12.6f %7.2f%%\n", "unaccounted", Rest,
         EndToEnd > 0 ? 100 * Rest / EndToEnd : 0.0);
  printf("  %-12s %12.6f\n", "end-to-end", EndToEnd);
  printf("  %-12s %12.6f  (parse probes beside the VM calls, not in "
         "end-to-end)\n",
         "parser", Self[Parser]);
  printf("  tracing overhead: %+.2f%% time per eval, traced vs untraced "
         "segment\n",
         100 * Overhead);
  return EndToEnd > 0 ? Rest / EndToEnd : 0.0;
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Result::fail(const std::string &What) {
  ++Failed;
  if (Failed <= 10)
    fprintf(stderr, "FAIL: %s\n", What.c_str());
}

void Result::error(const std::string &What) {
  Errors.push_back(What);
  fprintf(stderr, "ERROR: %s\n", What.c_str());
}

double probeParse(SpanRecorder &Rec, ParseTally &T,
                  std::initializer_list<const std::string *> Texts) {
  double W0 = wallNow(), Sec = 0;
  for (const std::string *Text : Texts) {
    ast::Program Prog;
    StringInterner Interner;
    mself::Parser P(Prog, Interner);
    double C0 = threadCpu();
    P.parseTopLevel(*Text);
    Sec += threadCpu() - C0;
    T.Bytes += double(Text->size());
  }
  double W1 = wallNow();
  T.Seconds += Sec;
  T.Calls += 1;
  Rec.span("parser.parse", Parser, W0, W1, Sec);
  return W1 - W0;
}

ExactCounts exactCounts(const LayerCounters &C) {
  return {C.Instructions, C.Sends, C.Compiles, C.CodeBytes};
}

void checkSame(Result &R, const std::string &What, const ExactCounts &A,
               const ExactCounts &B) {
  if (A == B)
    return;
  char Buf[512];
  snprintf(Buf, sizeof Buf,
           "nondeterministic %s: instructions %llu vs %llu, sends %llu vs "
           "%llu, compiles %llu vs %llu, code bytes %llu vs %llu",
           What.c_str(), (unsigned long long)A.Instructions,
           (unsigned long long)B.Instructions, (unsigned long long)A.Sends,
           (unsigned long long)B.Sends, (unsigned long long)A.Compiles,
           (unsigned long long)B.Compiles, (unsigned long long)A.CodeBytes,
           (unsigned long long)B.CodeBytes);
  R.error(Buf);
}

std::string answerError(const std::string &What, bool Ok,
                        const std::string &Err, int64_t Got, int64_t Want) {
  if (!Ok)
    return What + ": " + Err;
  if (Got != Want)
    return What + ": answer " + std::to_string(Got) + ", reference " +
           std::to_string(Want);
  return "";
}

void emitLayerMetrics(Result &R, const LayerReport &L) {
  double N = L.Evals > 0 ? L.Evals : 1;
  const LayerCounters &D = L.D;
  auto Per = [N](double V) { return V / N; };
  auto Share = [](uint64_t Num, uint64_t Den) {
    return Den ? double(Num) / double(Den) : 0.0;
  };
  R.metric("driver.vm_new_s", median(L.VmNew), "s");
  R.metric("driver.load_s", median(L.Load), "s");
  R.metric("driver.isolate_new_s", median(L.IsolateNew), "s");
  R.metric("driver.eval_offcpu_us", Per(L.OffCpuSeconds) * 1e6, "us");
  const ParseTally &P = L.Parse;
  R.metric("parser.parse_s", P.Calls > 0 ? P.Seconds / P.Calls : 0, "s");
  R.metric("parser.kb_per_s",
           P.Seconds > 0 ? P.Bytes / 1024 / P.Seconds : 0, "KB/s");
  R.metric("compiler.compile_s", Per(D.CompileSeconds), "s");
  R.metric("compiler.analyze_s", Per(L.Phases.AnalyzeSeconds), "s");
  R.metric("compiler.split_s", Per(L.Phases.SplitSeconds), "s");
  R.metric("compiler.lower_s", Per(L.Phases.LowerSeconds), "s");
  R.metric("compiler.emit_s", Per(L.Phases.EmitSeconds), "s");
  R.metric("compiler.functions", Per(double(D.Compiles)), "count");
  R.metric("compiler.events_evicted", double(L.Phases.Missed), "count");
  R.metric("compiler.code_kb_growth_per_eval",
           Per(L.CodeGrowthBytes) / 1024, "KB");
  R.metric("interp.exec_s", Per(L.ExecSeconds), "s");
  R.metric("interp.instructions", Per(double(D.Instructions)), "count");
  R.metric("interp.sends", Per(double(D.Sends)), "count");
  R.metric("interp.type_tests", Per(double(D.TypeTests)), "count");
  R.metric("interp.prim_calls", Per(double(D.PrimCalls)), "count");
  R.metric("interp.blocks_made", Per(double(D.BlocksMade)), "count");
  R.metric("interp.pic_hit_rate", Share(D.PicHits, D.Sends), "ratio");
  R.metric("interp.quick_send_share", Share(D.QuickSends, D.Sends), "ratio");
  R.metric("interp.mega_share", Share(D.SendsMega, D.Sends), "ratio");
  R.metric("interp.full_lookups", Per(double(D.FullLookups)), "count");
  R.metric("vm.gc_pause_s", Per(D.GcPauseSeconds), "s");
  R.metric("vm.scavenges", Per(double(D.Scavenges)), "count");
  R.metric("vm.full_collections", Per(double(D.FullCollections)), "count");
  R.metric("vm.alloc_mb", Per(double(D.AllocBytes)) / (1 << 20), "MB");
  R.metric("vm.promoted_mb", Per(double(D.PromotedBytes)) / (1 << 20), "MB");
  R.metric("vm.arena_mb", Per(double(D.ArenaBytes)) / (1 << 20), "MB");
  R.metric("runtime.ast_hit_rate", L.AstHitRate, "ratio");
  R.metric("runtime.code_hit_rate", L.CodeHitRate, "ratio");
  R.metric("runtime.code_waits", double(L.CodeWaits), "count");
  R.metric("runtime.interner_lookups", Per(L.InternerLookups), "count");
  R.metric("runtime.interned_strings", double(L.InternedStrings), "count");
  R.metric("trace.overhead_share", L.Overhead, "ratio");
  R.metric("trace.unaccounted_share", L.Unaccounted, "ratio");
}

} // namespace perfbench
