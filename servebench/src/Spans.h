//===- Spans.h - In-memory spans and counts of a traced run ---------------===//
//
// A span is a named interval with the span that caused it as parent; spans
// are kept in memory and written once, when the run ends. Counts are named
// totals recorded at the same call boundaries.
//
//===----------------------------------------------------------------------===//

#ifndef SERVEBENCH_SPANS_H
#define SERVEBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

class Tracer {
public:
  struct Span {
    std::string Name;
    int Parent = -1; ///< Index of the enclosing span; -1 at top level.
    double Start = 0.0, End = 0.0; ///< Seconds since the tracer's origin.
  };

  /// Opens a span for the lifetime of the scope.
  class Scope {
  public:
    Scope(Tracer &T, std::string Name) : T(T), Id(T.open(std::move(Name))) {}
    ~Scope() { T.close(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

  explicit Tracer(Clock::time_point Origin = Clock::now()) : Origin(Origin) {}

  /// Adds \p V to count \p Name.
  void add(const std::string &Name, double V) { Counts[Name] += V; }
  /// Raises count \p Name to at least \p V.
  void atLeast(const std::string &Name, double V) {
    double &C = Counts[Name];
    C = std::max(C, V);
  }

  const std::vector<Span> &spans() const { return Spans; }
  const std::map<std::string, double> &counts() const { return Counts; }

  /// Total duration of the spans of each name.
  std::map<std::string, double> totals() const;
  /// Duration minus the part covered by child spans, summed per name.
  std::map<std::string, double> selfTimes() const;
  /// Summed duration of the top-level spans.
  double topLevelSeconds() const;

  /// The spans, per-name totals and self times, and counts as one JSON
  /// object.
  std::string toJson() const;

private:
  int open(std::string Name);
  void close(int Id);
  double now() const { return secondsBetween(Origin, Clock::now()); }

  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Stack;
  std::map<std::string, double> Counts;
};

} // namespace servebench

#endif // SERVEBENCH_SPANS_H
