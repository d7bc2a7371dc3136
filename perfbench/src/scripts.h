//===-- perfbench/src/scripts.h - The session scripts -----------*- C++ -*-===//
//
// Part of miniself, a reproduction of Chambers & Ungar, PLDI '90.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The twelve short session scripts of the server experiment (E15), as
/// families parameterized by integer arguments. repl_evals draws seeded
/// arguments, so most of its source texts are new; isolate_storm uses the
/// fixed E15 arguments, so every text repeats. Each family carries a small
/// C++ reference for its answer, so no answer is checked against the VM.
///
//===----------------------------------------------------------------------===//

#ifndef MINISELF_PERFBENCH_SCRIPTS_H
#define MINISELF_PERFBENCH_SCRIPTS_H

#include "measure.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ScriptFamily {
  const char *Name;
  const char *Defs; ///< Loaded once per VM as part of the prelude.
  int NumArgs;      ///< 0, 1 or 2.
  int64_t Lo[2], Hi[2]; ///< Seeded argument ranges (inclusive).
  int64_t Fixed[2];     ///< The E15 arguments.
  std::string (*Text)(const int64_t *Args);
  int64_t (*Reference)(const int64_t *Args);
};

/// One eval: its source text and the answer the reference computes.
struct EvalCase {
  int Family = 0;
  std::string Text;
  int64_t Expected = 0;
};

const std::vector<ScriptFamily> &scriptFamilies();
/// Every family's definitions joined into one loadable prelude.
std::string scriptPrelude();
/// An eval of family \p F with seeded arguments drawn from \p R.
EvalCase seededCase(int F, Rng &R);
/// An eval of family \p F with its fixed E15 arguments.
EvalCase fixedCase(int F);

} // namespace perfbench

#endif // MINISELF_PERFBENCH_SCRIPTS_H
