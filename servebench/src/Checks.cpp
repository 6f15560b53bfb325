//===- Checks.cpp - Correctness checks of the service's answers -----------===//

#include "Checks.h"

#include "analysis/FenceSynth.h"
#include "analysis/Robustness.h"
#include "core/Semantics.h"
#include "support/JsonOut.h"

#include <algorithm>

using namespace ccc;
using namespace ccc::frontend;
using namespace servebench;

void Tally::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(What);
}

void servebench::checkVerdicts(const GenJob &J,
                               const std::vector<JobOutcome> &Outs,
                               Tally &T) {
  T.expect(Outs.size() == J.E.Verdicts.size(),
           J.Name + ": one record per requested check");
  for (const JobOutcome &O : Outs) {
    const std::string What = J.Name + "/" + O.Check;
    T.expect(O.Error.empty() && O.Conclusive && O.TruncatedBy.empty(),
             What + ": conclusive and error-free (" + O.Error + ")");
    auto It = J.E.Verdicts.find(O.Check);
    if (It == J.E.Verdicts.end()) {
      T.expect(false, What + ": unexpected check");
      continue;
    }
    const bool Ok = It->second == "robust|not-robust"
                        ? O.Verdict == "robust" || O.Verdict == "not-robust"
                        : O.Verdict == It->second;
    T.expect(Ok, What + ": verdict " + O.Verdict + ", expected " +
                     It->second);
  }
}

void servebench::checkSameOutcomes(const std::vector<JobOutcome> &Want,
                                   const std::vector<JobOutcome> &Got,
                                   Tally &T) {
  T.expect(Want.size() == Got.size(), "traced run: same number of records");
  for (std::size_t I = 0; I < std::min(Want.size(), Got.size()); ++I) {
    const JobOutcome &A = Want[I], &B = Got[I];
    T.expect(A.Job == B.Job && A.Check == B.Check && A.Verdict == B.Verdict &&
                 A.Conclusive == B.Conclusive &&
                 A.TruncatedBy == B.TruncatedBy &&
                 A.TraceHash == B.TraceHash &&
                 A.ExploredStates == B.ExploredStates && A.Error == B.Error,
             "traced run: record of " + A.Job + "/" + A.Check +
                 " differs from runJob's");
  }
}

namespace {

/// The trace set of \p W explored the way runJob explores it; nullopt when
/// the workload does not build or the exploration is truncated.
std::optional<TraceSet> exploreTraces(const WorkloadFile &W,
                                      const JobSpec &S) {
  std::string Err;
  std::optional<Program> P = buildProgram(W, Err);
  if (!P)
    return std::nullopt;
  ExploreOptions O;
  O.MaxStates = S.Budget.MaxStates;
  O.Threads = S.Workers;
  O.Por = S.Por ? PorMode::On : PorMode::Off;
  Explorer<World> E(O);
  E.build(World::load(*P, 0));
  if (E.truncated())
    return std::nullopt;
  return E.traces();
}

std::vector<std::vector<int64_t>> doneOutcomes(const TraceSet &Tr) {
  std::vector<std::vector<int64_t>> Out;
  for (const Trace &X : Tr.traces()) {
    if (X.End != TraceEnd::Done)
      continue;
    std::vector<int64_t> E = X.Events;
    std::sort(E.begin(), E.end());
    Out.push_back(std::move(E));
  }
  return Out;
}

/// Mutual exclusion: no abort, and every Done trace prints Base ..
/// Base+Total-1, each exactly once.
bool mutexHolds(const TraceSet &Tr, int32_t Base, unsigned Total) {
  std::vector<int64_t> Want;
  for (unsigned I = 0; I < Total; ++I)
    Want.push_back(int64_t(Base) + I);
  const auto Done = doneOutcomes(Tr);
  return !Tr.hasAbort() && !Done.empty() &&
         std::all_of(Done.begin(), Done.end(),
                     [&](const std::vector<int64_t> &O) { return O == Want; });
}

/// What a racy counter must show: a Done trace that breaks mutual
/// exclusion (a lost update prints some value twice).
bool raceVisible(const TraceSet &Tr, int32_t Base, unsigned Total) {
  return !Tr.hasAbort() && !doneOutcomes(Tr).empty() &&
         !mutexHolds(Tr, Base, Total);
}

bool counterHolds(const TraceSet &Tr, int32_t Base, unsigned Total,
                  bool Racy) {
  return Racy ? raceVisible(Tr, Base, Total) : mutexHolds(Tr, Base, Total);
}

/// The set of Done outcomes equals the table, and nothing aborts.
bool outcomesMatch(const TraceSet &Tr,
                   const std::set<std::vector<int64_t>> &Table) {
  const auto Done = doneOutcomes(Tr);
  return !Tr.hasAbort() &&
         std::set<std::vector<int64_t>>(Done.begin(), Done.end()) == Table;
}

TraceSet singleTrace(const std::vector<int64_t> &Prints) {
  TraceSet Tr;
  Tr.insert(Trace{Prints, TraceEnd::Done});
  return Tr;
}

const JobOutcome *findCheck(const std::vector<JobOutcome> &Outs,
                            const char *Check) {
  for (const JobOutcome &O : Outs)
    if (O.Check == Check)
      return &O;
  return nullptr;
}

/// Explores the job and ties the trace set to runJob's explore record.
std::optional<TraceSet> checkedTraces(const GenJob &J, const JobSpec &S,
                                      const std::vector<JobOutcome> &Outs,
                                      Tally &T) {
  const JobOutcome *O = findCheck(Outs, "explore");
  if (!O)
    return std::nullopt;
  std::optional<TraceSet> Tr = exploreTraces(S.W, S);
  T.expect(Tr.has_value(), J.Name + ": exploration completes");
  if (!Tr)
    return std::nullopt;
  T.expect(json::traceSetHash(*Tr) == O->TraceHash,
           J.Name + ": runJob's trace hash is the checked trace set's");
  return Tr;
}

void checkRepair(const GenJob &J, const JobSpec &S, Tally &T) {
  std::string Err;
  std::optional<Program> P = buildProgram(S.W, Err);
  T.expect(P.has_value(), J.Name + ": builds");
  if (!P)
    return;
  const analysis::ProgramRepairReport Rep = analysis::repairRobustness(*P);
  T.expect(Rep.Modules.size() == J.E.Anchors.size(),
           J.Name + ": every generated module is reported");
  for (const auto &M : Rep.Modules) {
    const analysis::FenceSynthResult &R = M.Synth;
    const std::string What = J.Name + "/" + M.Name;
    auto Anchors = J.E.Anchors.find(M.Name);
    auto Written = J.E.WrittenFences.find(M.Name);
    if (Anchors == J.E.Anchors.end() || Written == J.E.WrittenFences.end()) {
      T.expect(false, What + ": module the generator did not write");
      continue;
    }
    const unsigned Fences = static_cast<unsigned>(R.Fences.size());
    const bool WasRobust = R.Before.Verdict == analysis::RobustVerdict::Robust;
    T.expect(R.Outcome != analysis::RepairOutcome::NotRepairable,
             What + ": repairable");
    T.expect(WasRobust ? Fences == 0 : Fences >= 1,
             What + ": a fence for every module that was not robust");
    T.expect(WasRobust || R.After.Verdict == analysis::RobustVerdict::Robust,
             What + ": repaired module certified robust");
    // A fence set larger than the anchor points cannot be minimal.
    auto WithinAnchors = [&](unsigned Limit) { return Fences <= Limit; };
    T.expect(WithinAnchors(Anchors->second),
             What + ": " + std::to_string(Fences) + " fences within " +
                 std::to_string(Anchors->second) + " anchor points");
    if (Fences > 0)
      T.expect(!WithinAnchors(Fences - 1),
               What + ": self-test, fence bound can fail");
    if (R.RepairedModule)
      T.expect(analysis::mfenceCount(*R.RepairedModule) ==
                   Written->second + Fences,
               What + ": repaired module holds the written and the "
                      "inserted fences");
  }
  for (const analysis::ModuleRobustInfo &M :
       analysis::programRobustness(*P).Modules)
    T.expect(M.Report.Verdict == analysis::RobustVerdict::Robust,
             J.Name + "/" + M.Name + ": robust after repair");

  // Robust means the repaired program under its own model shows exactly
  // the SC traces; fences do nothing under SC, so the SC twin of the
  // unrepaired source is the reference.
  ExploreOptions O;
  O.Threads = S.Workers;
  O.Por = S.Por ? PorMode::On : PorMode::Off;
  Explorer<World> E(O);
  E.build(World::load(*P, 0));
  ParseError PErr;
  std::optional<WorkloadFile> Twin = parseWorkload(J.E.ScTwin, PErr);
  std::optional<TraceSet> Sc =
      Twin ? exploreTraces(*Twin, S) : std::optional<TraceSet>();
  T.expect(!E.truncated() && Sc.has_value(),
           J.Name + ": repaired program and SC twin explored");
  if (E.truncated() || !Sc)
    return;
  const TraceSet Repaired = E.traces();
  T.expect(Repaired == *Sc, J.Name + ": repaired traces equal SC traces");
  TraceSet Fewer;
  for (const Trace &X : Sc->traces())
    if (Fewer.size() + 1 < Sc->size())
      Fewer.insert(X);
  T.expect(!(Repaired == Fewer),
           J.Name + ": self-test, trace equality can fail");
}

} // namespace

void servebench::checkContent(const GenJob &J, const JobSpec &S,
                              const std::vector<JobOutcome> &Outs,
                              Tally &T) {
  switch (J.E.Kind) {
  case JobKind::Counter: {
    std::optional<TraceSet> Tr = checkedTraces(J, S, Outs, T);
    if (!Tr)
      return;
    const int32_t B = J.E.Base;
    const unsigned N = J.E.Total;
    T.expect(counterHolds(*Tr, B, N, J.E.Racy),
             J.Name + (J.E.Racy ? ": race visible in the traces"
                                : ": mutual exclusion in every Done trace"));
    T.expect(!counterHolds(*Tr, B, N, !J.E.Racy),
             J.Name + ": self-test, the opposite expectation fails");
    if (!J.E.Racy)
      T.expect(!counterHolds(*Tr, B + 1, N, false),
               J.Name + ": self-test, a shifted range fails");
    return;
  }
  case JobKind::Outcomes: {
    std::optional<TraceSet> Tr = checkedTraces(J, S, Outs, T);
    if (!Tr)
      return;
    T.expect(outcomesMatch(*Tr, J.E.Outcomes),
             J.Name + ": outcomes equal the textbook table");
    // Drop one outcome of the table or, for a single-outcome table, add a
    // stale read.
    std::set<std::vector<int64_t>> Corrupt = J.E.Outcomes;
    if (Corrupt.size() > 1)
      Corrupt.erase(std::prev(Corrupt.end()));
    else
      Corrupt.insert({0});
    T.expect(!outcomesMatch(*Tr, Corrupt),
             J.Name + ": self-test, a corrupted table fails");
    return;
  }
  case JobKind::Repair:
    checkRepair(J, S, T);
    return;
  case JobKind::Compile: {
    std::optional<TraceSet> Tr = checkedTraces(J, S, Outs, T);
    if (!Tr)
      return;
    T.expect(*Tr == singleTrace(J.E.Prints),
             J.Name + ": compiled program prints the evaluated values");
    std::vector<int64_t> Off = J.E.Prints;
    if (!Off.empty())
      Off.back() += 1;
    T.expect(!(*Tr == singleTrace(Off)),
             J.Name + ": self-test, a changed value fails");
    return;
  }
  }
}
