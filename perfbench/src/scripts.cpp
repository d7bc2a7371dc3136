//===-- perfbench/src/scripts.cpp - The session scripts -------------------===//

#include "scripts.h"

namespace perfbench {

namespace {

std::string num(int64_t V) { return std::to_string(V); }

int64_t fib(int64_t N) { return N < 2 ? N : fib(N - 1) + fib(N - 2); }

std::vector<ScriptFamily> makeFamilies() {
  std::vector<ScriptFamily> F;
  F.push_back({"sumUpTo",
               "sumUpTo: n = ( | s <- 0. i <- 1 | "
               "[ i <= n ] whileTrue: [ s: s + i. i: i + 1 ]. s )",
               1, {0, 0}, {999, 0}, {60, 0},
               [](const int64_t *A) { return "sumUpTo: " + num(A[0]); },
               [](const int64_t *A) { return A[0] * (A[0] + 1) / 2; }});
  F.push_back({"fib",
               "fib: n = ( n < 2 ifTrue: [ n ] False: "
               "[ (fib: n - 1) + (fib: n - 2) ] )",
               1, {0, 0}, {14, 0}, {11, 0},
               [](const int64_t *A) { return "fib: " + num(A[0]); },
               [](const int64_t *A) { return fib(A[0]); }});
  F.push_back({"squaresTo",
               "squaresTo: n = ( | s <- 0 | 1 to: n Do: [ :i | s: s + "
               "(i * i) ]. s )",
               1, {0, 0}, {999, 0}, {12, 0},
               [](const int64_t *A) { return "squaresTo: " + num(A[0]); },
               [](const int64_t *A) {
                 return A[0] * (A[0] + 1) * (2 * A[0] + 1) / 6;
               }});
  F.push_back({"mkAdder", "mkAdder: n = ( [ :x | x + n ] )", 2, {0, 0},
               {999, 999}, {30, 12},
               [](const int64_t *A) {
                 return "(mkAdder: " + num(A[0]) + ") value: " + num(A[1]);
               },
               [](const int64_t *A) { return A[0] + A[1]; }});
  F.push_back({"applyTwice", "applyTwice: b To: x = ( b value: (b value: x) )",
               2, {0, 0}, {9, 999}, {3, 2},
               [](const int64_t *A) {
                 return "applyTwice: [ :v | v * " + num(A[0]) + " ] To: " +
                        num(A[1]);
               },
               [](const int64_t *A) { return A[1] * A[0] * A[0]; }});
  F.push_back({"sumAreas",
               "shapeA = ( | parent* = lobby. area = ( 10 ) | ). "
               "shapeB = ( | parent* = lobby. area = ( 20 ) | ). "
               "sumAreas = ( | t <- 0. s | 1 to: 10 Do: [ :i | "
               "s: (i even ifTrue: [ shapeA ] False: [ shapeB ]). "
               "t: t + s area ]. t )",
               0, {0, 0}, {0, 0}, {0, 0},
               [](const int64_t *) { return std::string("sumAreas"); },
               [](const int64_t *) {
                 int64_t T = 0;
                 for (int I = 1; I <= 10; ++I)
                   T += I % 2 == 0 ? 10 : 20;
                 return T;
               }});
  F.push_back({"fill",
               "fill: n = ( | v. s <- 0 | v: (vectorOfSize: n). "
               "0 upTo: n Do: [ :i | v at: i Put: i * 2 ]. "
               "v do: [ :e | s: s + e ]. s )",
               1, {1, 0}, {199, 0}, {12, 0},
               [](const int64_t *A) { return "fill: " + num(A[0]); },
               [](const int64_t *A) { return A[0] * (A[0] - 1); }});
  F.push_back({"grid",
               "grid = ( | t <- 0 | 1 to: 6 Do: [ :i | 1 to: 6 Do: [ :j | "
               "t: t + (i * j) ] ]. t )",
               0, {0, 0}, {0, 0}, {0, 0},
               [](const int64_t *) { return std::string("grid"); },
               [](const int64_t *) {
                 int64_t T = 0;
                 for (int I = 1; I <= 6; ++I)
                   for (int J = 1; J <= 6; ++J)
                     T += I * J;
                 return T;
               }});
  F.push_back({"isEven",
               "isEven: n = ( n == 0 ifTrue: [ 1 ] False: [ isOdd: n - 1 ] ). "
               "isOdd: n = ( n == 0 ifTrue: [ 0 ] False: [ isEven: n - 1 ] )",
               1, {0, 0}, {199, 0}, {14, 0},
               [](const int64_t *A) { return "isEven: " + num(A[0]); },
               [](const int64_t *A) { return int64_t(A[0] % 2 == 0); }});
  F.push_back({"firstSquareOver",
               "firstSquareOver: lim = ( 1 to: 100 Do: [ :i | "
               "i * i > lim ifTrue: [ ^ i ] ]. 0 )",
               1, {0, 0}, {9999, 0}, {300, 0},
               [](const int64_t *A) {
                 return "firstSquareOver: " + num(A[0]);
               },
               [](const int64_t *A) {
                 for (int64_t I = 1; I <= 100; ++I)
                   if (I * I > A[0])
                     return I;
                 return int64_t(0);
               }});
  F.push_back({"mix",
               "mix: n = ( | t <- 0 | 1 to: n Do: [ :i | "
               "t: t + ((i * 3) % 7) + (i % 5) ]. t )",
               1, {0, 0}, {199, 0}, {40, 0},
               [](const int64_t *A) { return "mix: " + num(A[0]); },
               [](const int64_t *A) {
                 int64_t T = 0;
                 for (int64_t I = 1; I <= A[0]; ++I)
                   T += (I * 3) % 7 + I % 5;
                 return T;
               }});
  F.push_back({"tr", "tr = ( | c <- 0 | 9 timesRepeat: [ c: c + 3 ]. c )", 0,
               {0, 0}, {0, 0}, {0, 0},
               [](const int64_t *) { return std::string("tr"); },
               [](const int64_t *) { return int64_t(27); }});
  return F;
}

EvalCase makeCase(int F, const int64_t *Args) {
  const ScriptFamily &S = scriptFamilies()[static_cast<size_t>(F)];
  return {F, S.Text(Args), S.Reference(Args)};
}

} // namespace

const std::vector<ScriptFamily> &scriptFamilies() {
  static const std::vector<ScriptFamily> F = makeFamilies();
  return F;
}

std::string scriptPrelude() {
  std::string S;
  for (const ScriptFamily &F : scriptFamilies()) {
    if (!S.empty())
      S += ". ";
    S += F.Defs;
  }
  return S;
}

EvalCase seededCase(int F, Rng &R) {
  const ScriptFamily &S = scriptFamilies()[static_cast<size_t>(F)];
  int64_t Args[2] = {0, 0};
  for (int I = 0; I < S.NumArgs; ++I)
    Args[I] = R.range(S.Lo[I], S.Hi[I]);
  return makeCase(F, Args);
}

EvalCase fixedCase(int F) {
  return makeCase(F, scriptFamilies()[static_cast<size_t>(F)].Fixed);
}

} // namespace perfbench
