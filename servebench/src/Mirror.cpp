//===- Mirror.cpp - Traced replica of the service's job dispatch ----------===//

#include "Mirror.h"

#include "analysis/FenceSynth.h"
#include "analysis/IRVerifier.h"
#include "analysis/Robustness.h"
#include "analysis/StaticRace.h"
#include "cimp/CImpLang.h"
#include "cimp/CImpParser.h"
#include "clight/ClightLang.h"
#include "clight/ClightParser.h"
#include "compiler/Compiler.h"
#include "core/Semantics.h"
#include "support/JsonOut.h"
#include "x86/X86Lang.h"
#include "x86/X86Parser.h"

using namespace ccc;
using namespace ccc::frontend;
using namespace servebench;

namespace {

// The options runJob gives every exploration (JobRunner.cpp).
ExploreOptions exploreOptions(const JobSpec &S, unsigned Workers) {
  ExploreOptions O;
  O.MaxStates = S.Budget.MaxStates;
  O.MaxBuildMs = S.Budget.MaxMs;
  O.MaxStateBytes = S.Budget.MaxStateBytes;
  O.Threads = Workers;
  O.Por = S.Por ? PorMode::On : PorMode::Off;
  return O;
}

void recordExplore(const ExploreStats &St, Tracer &T) {
  T.add("core.explore.states", St.States);
  T.add("core.explore.expanded", St.Expanded);
  T.add("core.explore.probes", St.Probes);
  T.add("core.explore.dedup_hits", St.DedupHits);
  T.add("core.explore.tree_nodes", St.TreeNodes);
  T.add("core.explore.por_ample_hits", St.Por.AmpleHits);
  T.add("core.explore.por_edges_avoided", St.Por.EdgesAvoided);
  T.atLeast("core.explore.peak_frontier", St.PeakFrontier);
  T.atLeast("core.explore.largest_states", St.States);
  T.atLeast("core.store.state_bytes", St.StateBytes);
  T.atLeast("core.store.graph_bytes", St.GraphBytes);
  T.atLeast("mem.page_pool_bytes", St.PagePoolCapacityBytes);
}

/// Explorer::build runs the same construction inside the engine; this
/// separate call is what gives the oracle a span of its own.
void timeIndependence(const JobSpec &S, const Program &P, Tracer &T) {
  if (!S.Por)
    return;
  Tracer::Scope Sp(T, "analysis.independence");
  std::shared_ptr<const PorOracle> O = buildIndependenceOracle(P);
  (void)O;
}

void explore(const JobSpec &S, Program &P, JobOutcome &Out, Tracer &T) {
  timeIndependence(S, P, T);
  Explorer<World> E(exploreOptions(S, S.Workers));
  {
    Tracer::Scope Sp(T, "core.explore.build");
    E.build(World::load(P, 0));
  }
  recordExplore(E.stats(), T);
  const CheckVerdict V = E.safetyVerdict();
  Out.Verdict = checkVerdictName(V);
  Out.Conclusive = V != CheckVerdict::Inconclusive;
  Out.TruncatedBy = E.stats().TruncatedBy;
  Out.ExploredStates = E.numStates();
  if (!E.truncated()) {
    TraceSet Tr;
    {
      Tracer::Scope Sp(T, "core.explore.traces");
      Tr = E.traces();
    }
    Out.TraceHash = json::traceSetHash(Tr);
  }
}

/// analysis::detectRaces (RaceDetector.cpp), one call at a time.
void drf(const JobSpec &S, Program &P, JobOutcome &Out, Tracer &T) {
  if (S.FastPaths) {
    Tracer::Scope Sp(T, "analysis.robustness");
    analysis::ProgramRobustReport R = analysis::programRobustness(P);
    (void)R;
  }
  analysis::StaticDrfReport Static;
  {
    Tracer::Scope Sp(T, "analysis.static_race");
    Static = analysis::staticRaceAnalysis(P);
  }
  if (S.FastPaths && Static.certified()) {
    Out.Verdict = checkVerdictName(CheckVerdict::Certified);
    Out.Conclusive = true;
    return;
  }
  timeIndependence(S, P, T);
  Explorer<World> E(exploreOptions(S, S.Workers));
  {
    Tracer::Scope Sp(T, "core.explore.build");
    E.build(World::load(P));
  }
  recordExplore(E.stats(), T);
  RaceCheck C;
  {
    Tracer::Scope Sp(T, "core.explore.race");
    C = E.checkRace();
  }
  const CheckVerdict V = C.Witness ? CheckVerdict::Refuted
                         : C.Conclusive ? CheckVerdict::Certified
                                        : CheckVerdict::Inconclusive;
  Out.Verdict = checkVerdictName(V);
  Out.Conclusive = V != CheckVerdict::Inconclusive;
  Out.TruncatedBy = E.stats().TruncatedBy;
  Out.ExploredStates = E.numStates();
}

void robustness(Program &P, JobOutcome &Out, Tracer &T) {
  analysis::ProgramRobustReport R;
  {
    Tracer::Scope Sp(T, "analysis.robustness");
    R = analysis::programRobustness(P);
  }
  bool AnyNotRobust = false, AnyUnknown = false;
  for (const analysis::ModuleRobustInfo &M : R.Modules) {
    AnyNotRobust |= M.Report.Verdict == analysis::RobustVerdict::NotRobust;
    AnyUnknown |= M.Report.Verdict == analysis::RobustVerdict::Unknown;
    T.add("analysis.robustness_witnesses", M.Report.Witnesses.size());
  }
  Out.Verdict =
      AnyNotRobust ? "not-robust" : AnyUnknown ? "unknown" : "robust";
  Out.Conclusive = !AnyUnknown;
}

/// analysis::repairAndApplyScFastPath (FenceSynth.cpp), one call at a time.
void fenceSynth(Program &P, JobOutcome &Out, Tracer &T) {
  analysis::ProgramRepairReport Rep;
  {
    Tracer::Scope Sp(T, "analysis.fence_synth");
    Rep = analysis::repairRobustness(P);
  }
  analysis::ProgramRobustReport R;
  {
    Tracer::Scope Sp(T, "analysis.robustness");
    R = analysis::programRobustness(P);
  }
  analysis::switchRobustToSc(P, R);
  for (const analysis::ProgramRepairReport::ModuleRepair &M : Rep.Modules) {
    T.add("analysis.fence_synth.cut_checks", M.Synth.CutChecks);
    T.add("analysis.fence_synth.witness_pairs", M.Synth.WitnessPairs);
    T.add("analysis.fence_synth.candidate_points", M.Synth.CandidatePoints);
  }
  T.add("analysis.fences_inserted", Rep.FencesInserted);
  Out.Verdict = Rep.allRepaired()
                    ? checkVerdictName(CheckVerdict::Certified)
                    : checkVerdictName(CheckVerdict::Inconclusive);
  Out.Conclusive = Rep.allRepaired();
}

std::size_t rtlInstrs(const rtl::Module &M) {
  std::size_t N = 0;
  for (const auto &F : M.Funcs)
    N += F.Graph.size();
  return N;
}

/// compiler::compileClight (Compiler.cpp), one pass at a time.
compiler::CompileResult compileTraced(std::shared_ptr<clight::Module> Mod,
                                      Tracer &T) {
  using namespace compiler;
  const std::vector<std::string> &N = passNames();
  auto Pass = [&](unsigned I, auto Fn) {
    Tracer::Scope Sp(T, "compiler." + N[I]);
    return Fn();
  };
  CompileResult R;
  Tracer::Scope Sp(T, "compiler.compile");
  R.Clight = Mod;
  R.Csharpminor = Pass(0, [&] { return cshmgen(*R.Clight); });
  R.Cminor = Pass(1, [&] { return cminorgen(*R.Csharpminor); });
  R.CminorSel = Pass(2, [&] { return selection(*R.Cminor); });
  R.RTL = Pass(3, [&] { return rtlgen(*R.CminorSel); });
  R.RTLTailcall = Pass(4, [&] { return tailcall(*R.RTL); });
  R.RTLRenumber = Pass(5, [&] { return renumber(*R.RTLTailcall); });
  R.LTL = Pass(6, [&] { return allocation(*R.RTLRenumber); });
  R.LTLTunneled = Pass(7, [&] { return tunneling(*R.LTL); });
  R.Linear = Pass(8, [&] { return linearize(*R.LTLTunneled); });
  R.LinearClean = Pass(9, [&] { return cleanupLabels(*R.Linear); });
  R.Mach = Pass(10, [&] { return stacking(*R.LinearClean); });
  R.Asm = Pass(11, [&] { return asmgen(*R.Mach); });
  {
    Tracer::Scope V(T, "compiler.verify");
    for (const analysis::VerifyResult &VR : analysis::verifyPipeline(R))
      for (const std::string &E : VR.Errors)
        R.VerifyErrors.push_back(E);
  }
  T.add("compiler.rtl_instrs", rtlInstrs(*R.RTL));
  T.add("compiler.asm_instrs", R.Asm->Code.size());
  return R;
}

/// frontend::buildProgram (Workload.cpp), one call at a time; its error
/// messages are reproduced verbatim.
std::optional<Program> buildTraced(const WorkloadFile &W, std::string &Err,
                                   Tracer &T) {
  Program P;
  for (const ModuleSpec &M : W.Modules) {
    std::string LangErr;
    switch (M.Lang) {
    case SrcLang::Clight: {
      std::shared_ptr<clight::Module> Mod;
      {
        Tracer::Scope Sp(T, "clight.parse");
        Mod = clight::parseModule(M.Source, LangErr);
      }
      if (!Mod) {
        Err = "module '" + M.Name + "': " + LangErr;
        return std::nullopt;
      }
      if (M.Compile) {
        compiler::CompileResult R = compileTraced(Mod, T);
        if (!R.VerifyErrors.empty()) {
          Err = "module '" + M.Name +
                "': compile-pipeline verifier: " + R.VerifyErrors.front();
          return std::nullopt;
        }
        x86::addAsmModule(P, M.Name, R.Asm, M.Model.value_or(MemModel::TSO));
      } else {
        clight::addClightModule(P, M.Name, Mod);
      }
      break;
    }
    case SrcLang::CImp: {
      bool Parsed = false;
      {
        Tracer::Scope Sp(T, "cimp.parse");
        Parsed = cimp::parseModule(M.Source, LangErr) != nullptr;
      }
      if (!Parsed) {
        Err = "module '" + M.Name + "': " + LangErr;
        return std::nullopt;
      }
      cimp::addCImpModule(P, M.Name, M.Source, M.Object);
      break;
    }
    case SrcLang::X86: {
      std::shared_ptr<x86::Module> Mod;
      {
        Tracer::Scope Sp(T, "x86.parse");
        Mod = x86::parseAsm(M.Source, LangErr);
      }
      if (!Mod) {
        Err = "module '" + M.Name + "': " + LangErr;
        return std::nullopt;
      }
      x86::addAsmModule(P, M.Name, Mod, M.Model.value_or(MemModel::TSO),
                        M.Object);
      break;
    }
    }
  }
  auto Args = [](const ThreadSpec &Th) {
    std::vector<Value> A;
    for (int32_t V : Th.Args)
      A.push_back(Value::makeInt(V));
    return A;
  };
  for (const ThreadSpec &Th : W.Threads)
    P.addThread(Th.Entry, Args(Th));
  {
    Tracer::Scope Sp(T, "core.link");
    P.link();
  }
  for (const ThreadSpec &Th : W.Threads) {
    if (!P.resolveEntry(Th.Entry, Args(Th))) {
      Err = "thread entry '" + Th.Entry + "' is not defined by any module";
      return std::nullopt;
    }
  }
  return P;
}

} // namespace

std::vector<JobOutcome> servebench::runJobTraced(const JobSpec &S,
                                                 Tracer &T) {
  Tracer::Scope JobSpan(T, "job");
  std::vector<CheckKind> Checks = S.W.Checks;
  if (Checks.empty())
    Checks.push_back(CheckKind::Explore);

  std::vector<JobOutcome> Outs;
  for (CheckKind K : Checks) {
    Tracer::Scope CheckSpan(T, std::string("check.") + checkKindName(K));
    JobOutcome Out;
    Out.Job = S.Name;
    Out.Check = checkKindName(K);
    std::string BuildErr;
    std::optional<Program> P;
    {
      Tracer::Scope Sp(T, "frontend.build");
      P = buildTraced(S.W, BuildErr, T);
    }
    if (!P) {
      Out.Verdict = "error";
      Out.Error = BuildErr;
      Outs.push_back(std::move(Out));
      continue;
    }
    switch (K) {
    case CheckKind::Explore:
      explore(S, *P, Out, T);
      break;
    case CheckKind::Drf:
      drf(S, *P, Out, T);
      break;
    case CheckKind::Robustness:
      robustness(*P, Out, T);
      break;
    case CheckKind::FenceSynth:
      fenceSynth(*P, Out, T);
      break;
    case CheckKind::Passes:
      // No workload requests pass validation; the record then differs
      // from runJob's and the cross-check reports it.
      Out.Verdict = "error";
      Out.Error = "passes is not mirrored";
      break;
    }
    Outs.push_back(std::move(Out));
  }
  return Outs;
}

void servebench::exploreAtWidth(const JobSpec &S, unsigned Workers,
                                Tracer &T) {
  for (CheckKind K : S.W.Checks) {
    if (K != CheckKind::Explore)
      continue;
    std::string Err;
    std::optional<Program> P = buildProgram(S.W, Err);
    if (!P)
      continue;
    Explorer<World> E(exploreOptions(S, Workers));
    Tracer::Scope Sp(T, "core.explore.build_w" + std::to_string(Workers));
    E.build(World::load(P.value(), 0));
  }
}
