//===- Gen.h - Seeded workload generators for the service benchmark -------===//
//
// Each workload is a list of `.ccc` job texts plus, for every job, the
// answers the benchmark expects. The answers are worked out here, from the
// generator's own knowledge of what it wrote (textbook litmus tables, the
// counter's value range, an int32 evaluation of the generated source), and
// never from the program under test.
//
//===----------------------------------------------------------------------===//

#ifndef SERVEBENCH_GEN_H
#define SERVEBENCH_GEN_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace servebench {

/// SplitMix64: a fixed, portable generator, so a seed names the same inputs
/// on every host and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  unsigned below(unsigned N);
  /// Uniform in [Lo, Hi].
  int32_t range(int32_t Lo, int32_t Hi);

private:
  uint64_t S;
};

enum class JobKind {
  /// Lock-client counter (or its racy twin).
  Counter,
  /// Litmus or mixed-model program judged by its outcome table.
  Outcomes,
  /// Generated x86 modules for robustness checking and fence repair.
  Repair,
  /// A generated Clight module compiled through the whole pipeline.
  Compile,
};

/// The answers the benchmark holds a job to.
struct Expectation {
  JobKind Kind = JobKind::Counter;
  /// Expected verdict of each requested check, by check name. A check
  /// missing here must still come back conclusive and error-free;
  /// "robust|not-robust" accepts either conclusive robustness verdict.
  std::map<std::string, std::string> Verdicts;

  /// Counter: a locked counter's Done traces print Base .. Base+Total-1,
  /// each exactly once; a racy twin has some Done trace that does not.
  int32_t Base = 0;
  unsigned Total = 0;
  bool Racy = false;

  /// Outcomes: the set of Done-trace outcomes, each the sorted list of the
  /// values the trace prints.
  std::set<std::vector<int64_t>> Outcomes;

  /// Repair: per x86 module, the anchor points (accesses the model lets a
  /// later access or the entry's exit overtake with no fence between) and
  /// the mfences the generator wrote.
  std::map<std::string, unsigned> Anchors;
  std::map<std::string, unsigned> WrittenFences;
  /// Repair: the same job with every module declared `model sc` — its
  /// trace set is the one the repaired program must have.
  std::string ScTwin;

  /// Compile: the values the program prints, in order.
  std::vector<int64_t> Prints;
};

struct GenJob {
  std::string Name;
  std::string Text;
  /// Static fast paths of the DRF check (JobSpec::FastPaths).
  bool FastPaths = true;
  Expectation E;
};

/// The jobs of workload \p Workload for \p Seed; empty for an unknown name.
std::vector<GenJob> generate(const std::string &Workload, uint64_t Seed);

} // namespace servebench

#endif // SERVEBENCH_GEN_H
