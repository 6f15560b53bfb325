//===- main.cpp - Benchmark of the verification service -------------------===//
//
// usage: servebench --workload explore|repair|compile --seed N --seconds S
//                   --trace 0|1 [--spawn-ns T] [--out-dir DIR]
//
// One client in a closed loop submits a workload's jobs, one after the
// other, to ccc::frontend::runJob with the exploration pool at width 1, and
// repeats the whole batch until the measuring window of S seconds is spent.
// verdict_s is the batch time with every job at the fastest of its repeats:
// the host's speed drifts by tens of percent over seconds, and the fastest
// repeat of each job is the figure that repeats best between runs. Every
// verdict of every batch is checked, and after the window the outputs
// behind the verdicts are checked too.
//
// With --trace 1 the window alternates untraced batches with traced ones
// (runJobTraced, which opens a span around every call into src/), and the
// run prints per-layer metrics from the fastest traced batch instead of
// the end-to-end ones. The spans go to DIR/trace-<workload>-<seed>.json.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Gen.h"
#include "Mirror.h"
#include "Spans.h"

#include "compiler/Compiler.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

using namespace ccc;
using namespace ccc::frontend;
using namespace servebench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  /// CLOCK_MONOTONIC reading taken just before the process was spawned.
  long long SpawnNs = -1;
  std::string OutDir = "servebench/results";
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "explore|repair|compile --seed N --seconds S --trace 0|1 "
               "[--spawn-ns T] [--out-dir DIR]\n",
               Why.c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !V.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = *End == '\0' && A.Seconds > 0.0;
    } else if (Flag == "--trace") {
      HaveTrace = V == "0" || V == "1";
      A.Trace = V == "1";
    } else if (Flag == "--spawn-ns") {
      A.SpawnNs = std::strtoll(V.c_str(), &End, 10);
    } else if (Flag == "--out-dir") {
      A.OutDir = V;
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--seed, --seconds and --trace need valid values");
  return A;
}

/// The spawn reading when there is one (steady_clock is CLOCK_MONOTONIC),
/// else now.
Clock::time_point processStart(const Args &A) {
  if (A.SpawnNs < 0)
    return Clock::now();
  return Clock::time_point(std::chrono::nanoseconds(A.SpawnNs));
}

/// VmHWM of /proc/self/status: the peak resident set of this process's
/// own address space. getrusage's ru_maxrss is not used because Linux
/// carries the parent's peak across fork and exec into it.
double peakRssMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

class Metrics {
public:
  void add(const std::string &Name, double V, const std::string &Unit) {
    J += (J.empty() ? "\"" : ", \"") + Name + "\": {\"value\": " + num(V) +
         ", \"unit\": \"" + Unit + "\"}";
  }
  std::string json() const { return "{" + J + "}"; }

private:
  std::string J;
};

/// Per-layer metrics from the setup spans, the fastest traced batch, and
/// the width-2 rebuilds.
void layerMetrics(Metrics &M, const Tracer &Setup, const Tracer &Batch,
                  const Tracer &Width2, double PeakRssBytes) {
  auto Get = [](const std::map<std::string, double> &Map,
                const std::string &K) {
    auto It = Map.find(K);
    return It == Map.end() ? 0.0 : It->second;
  };
  const auto SetupT = Setup.totals(), T = Batch.totals(), W2 = Width2.totals();
  const auto &C = Batch.counts();
  auto Span = [&](const std::string &Metric, const std::string &SpanName) {
    M.add(Metric + "_s", Get(T, SpanName), "s");
  };
  auto Count = [&](const std::string &Name, const std::string &Unit) {
    M.add(Name, Get(C, Name), Unit);
  };
  M.add("frontend.parse_s", Get(SetupT, "frontend.parse"), "s");
  M.add("frontend.build_s", Get(SetupT, "frontend.build"), "s");
  Span("frontend.rebuild", "frontend.build");
  Span("compiler.compile", "compiler.compile");
  for (const std::string &P : compiler::passNames())
    Span("compiler." + P, "compiler." + P);
  Span("compiler.verify", "compiler.verify");
  Count("compiler.rtl_instrs", "count");
  Count("compiler.asm_instrs", "count");
  Span("analysis.robustness", "analysis.robustness");
  Count("analysis.robustness_witnesses", "count");
  Span("analysis.fence_synth", "analysis.fence_synth");
  Count("analysis.fence_synth.cut_checks", "count");
  Count("analysis.fence_synth.witness_pairs", "count");
  Count("analysis.fence_synth.candidate_points", "count");
  Count("analysis.fences_inserted", "count");
  Span("analysis.static_race", "analysis.static_race");
  Span("analysis.independence", "analysis.independence");
  Span("core.explore.build", "core.explore.build");
  Span("core.explore.traces", "core.explore.traces");
  Span("core.explore.race", "core.explore.race");
  for (const char *N : {"states", "expanded", "probes", "dedup_hits",
                        "tree_nodes", "peak_frontier", "por_ample_hits",
                        "por_edges_avoided"})
    Count(std::string("core.explore.") + N, "count");
  const double BuildS = Get(T, "core.explore.build");
  M.add("core.explore.states_per_s",
        BuildS > 0 ? Get(C, "core.explore.states") / BuildS : 0.0, "1/s");
  Count("core.store.state_bytes", "bytes");
  Count("core.store.graph_bytes", "bytes");
  Count("mem.page_pool_bytes", "bytes");
  const double Largest = Get(C, "core.explore.largest_states");
  M.add("core.rss_bytes_per_state", Largest > 0 ? PeakRssBytes / Largest : 0.0,
        "B/state");
  M.add("core.explore.build_s_w2", Get(W2, "core.explore.build_w2"), "s");
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  const Clock::time_point Start = processStart(A);

  //===-- Set-up: generate, parse and build every job once ----------------===//
  Tracer Setup(Start);
  const std::vector<GenJob> Jobs = generate(A.Workload, A.Seed);
  if (Jobs.empty())
    usage("unknown workload '" + A.Workload + "'");
  std::vector<JobSpec> Specs;
  for (const GenJob &J : Jobs) {
    ParseError Err;
    std::optional<WorkloadFile> W;
    {
      Tracer::Scope Sp(Setup, "frontend.parse");
      W = parseWorkload(J.Text, Err);
    }
    if (!W) {
      std::fprintf(stderr, "servebench: job %s does not parse: %s\n",
                   J.Name.c_str(), Err.str().c_str());
      return 3;
    }
    JobSpec S;
    S.Name = J.Name;
    S.W = std::move(*W);
    S.Workers = 1;
    S.Por = true;
    S.FastPaths = J.FastPaths;
    Specs.push_back(std::move(S));
  }
  for (const JobSpec &S : Specs) {
    std::string Err;
    std::optional<Program> P;
    {
      Tracer::Scope Sp(Setup, "frontend.build");
      P = buildProgram(S.W, Err);
    }
    if (!P) {
      std::fprintf(stderr, "servebench: job %s does not build: %s\n",
                   S.Name.c_str(), Err.c_str());
      return 3;
    }
  }
  const double SetupS = secondsBetween(Start, Clock::now());

  //===-- Measuring window ---------------------------------------------===//
  Tally Checks;
  std::vector<std::vector<JobOutcome>> Reference; // first batch, per job
  const double Inf = std::numeric_limits<double>::infinity();
  double BestUntraced = Inf, BestTraced = Inf, BestCoverage = 0.0;
  std::vector<double> JobBest(Specs.size(), Inf); // fastest run of each job
  Tracer BestTrace;
  unsigned Batches = 0;

  auto UntracedBatch = [&] {
    std::vector<std::vector<JobOutcome>> Outs;
    const Clock::time_point T0 = Clock::now();
    for (std::size_t I = 0; I < Specs.size(); ++I) {
      const Clock::time_point J0 = Clock::now();
      Outs.push_back(runJob(Specs[I]));
      JobBest[I] = std::min(JobBest[I], secondsBetween(J0, Clock::now()));
    }
    const double Dt = secondsBetween(T0, Clock::now());
    std::printf("batch %u: %.4f s\n", Batches + 1, Dt);
    BestUntraced = std::min(BestUntraced, Dt);
    for (std::size_t I = 0; I < Jobs.size(); ++I)
      checkVerdicts(Jobs[I], Outs[I], Checks);
    if (Reference.empty())
      Reference = std::move(Outs);
    ++Batches;
  };
  auto TracedBatch = [&] {
    std::vector<std::vector<JobOutcome>> Outs;
    const Clock::time_point T0 = Clock::now();
    Tracer Tr(T0);
    for (const JobSpec &S : Specs)
      Outs.push_back(runJobTraced(S, Tr));
    const double Dt = secondsBetween(T0, Clock::now());
    for (std::size_t I = 0; I < Jobs.size(); ++I)
      checkSameOutcomes(Reference[I], Outs[I], Checks);
    if (Dt < BestTraced) {
      BestTraced = Dt;
      BestCoverage = Tr.topLevelSeconds() / Dt;
      BestTrace = std::move(Tr);
    }
  };

  const Clock::time_point Window = Clock::now();
  auto Elapsed = [&] { return secondsBetween(Window, Clock::now()); };
  if (A.Trace) {
    // Pairs of one untraced and one traced batch; at least one pair.
    do {
      UntracedBatch();
      TracedBatch();
    } while (Elapsed() + BestUntraced + BestTraced <= A.Seconds);
  } else {
    // Another batch only if it fits in the window; at least two.
    do
      UntracedBatch();
    while (Batches < 2 || Elapsed() + BestUntraced <= A.Seconds);
  }
  const double PeakRss = peakRssMiB();

  //===-- Checks of the outputs behind the verdicts --------------------===//
  for (std::size_t I = 0; I < Jobs.size(); ++I)
    checkContent(Jobs[I], Specs[I], Reference[I], Checks);
  for (const std::string &F : Checks.Failures)
    std::fprintf(stderr, "servebench: FAILED %s\n", F.c_str());

  Metrics M;
  if (A.Trace) {
    Tracer Width2;
    for (const JobSpec &S : Specs)
      exploreAtWidth(S, 2, Width2);
    layerMetrics(M, Setup, BestTrace, Width2, PeakRss * 1024.0 * 1024.0);
    M.add("trace.verdict_s", BestTraced, "s");
    M.add("trace.overhead_s", BestTraced - BestUntraced, "s");
    M.add("trace.top_span_share", BestCoverage, "share");

    std::error_code Ec;
    std::filesystem::create_directories(A.OutDir, Ec);
    const std::string Path = A.OutDir + "/trace-" + A.Workload + "-" +
                             std::to_string(A.Seed) + ".json";
    std::ofstream Out(Path);
    Out << "{\"workload\": \"" << A.Workload << "\", \"seed\": " << A.Seed
        << ",\n\"untraced_verdict_s\": " << num(BestUntraced)
        << ",\n\"traced_verdict_s\": " << num(BestTraced)
        << ",\n\"overhead_s\": " << num(BestTraced - BestUntraced)
        << ",\n\"top_span_share\": " << num(BestCoverage)
        << ",\n\"setup\": " << Setup.toJson()
        << ",\n\"batch\": " << BestTrace.toJson()
        << ",\n\"width2\": " << Width2.toJson() << "}\n";
    if (!Out)
      std::fprintf(stderr, "servebench: cannot write %s\n", Path.c_str());
  } else {
    M.add("setup_s", SetupS, "s");
    double VerdictS = 0.0;
    for (double T : JobBest)
      VerdictS += T;
    M.add("verdict_s", VerdictS, "s");
    M.add("peak_rss_mb", PeakRss, "MiB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
              "\"metrics\": %s}\n",
              Checks.Failed == 0 ? "true" : "false", Checks.Attempted,
              Checks.Failed, M.json().c_str());
  return 0;
}
