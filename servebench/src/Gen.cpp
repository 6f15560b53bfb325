//===- Gen.cpp - Seeded workload generators for the service benchmark -----===//

#include "Gen.h"

#include <algorithm>

using namespace servebench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

unsigned Rng::below(unsigned N) { return static_cast<unsigned>(next() % N); }

int32_t Rng::range(int32_t Lo, int32_t Hi) {
  return Lo + static_cast<int32_t>(
                  next() % static_cast<uint64_t>(int64_t(Hi) - Lo + 1));
}

namespace {

std::string str(int64_t V) { return std::to_string(V); }

std::string checksText(const std::vector<std::string> &Checks) {
  std::string T;
  for (const std::string &C : Checks)
    T += "check " + C + "\n";
  return T;
}

std::string threadsText(const std::string &Entry,
                        const std::vector<unsigned> &Counts) {
  std::string T;
  for (unsigned C : Counts)
    T += "thread " + Entry + " " + str(C) + "\n";
  return T;
}

// The gamma_lock specification object of the paper (Fig. 10), the lock
// every generated client links against.
const char *LockSpec = R"(module lockspec cimp object {
  global L = 1;
  lock() {
    r := 0;
    while (r == 0) {
      < r := [L]; [L] := 0; >
    }
    return 0;
  }
  unlock() {
    < r := [L]; assert(r == 0); [L] := 1; >
    return 0;
  }
}
)";

//===-- Lock-client counters ---------------------------------------------===//

/// A counter client: each thread `inc m` adds 1 to x m times and prints the
/// value it read. With the lock the prints are Base .. Base+sum(m)-1; the
/// racy twin drops the lock calls.
GenJob counterJob(const std::string &Name, bool Clight, bool Racy,
                  int32_t Base, const std::vector<unsigned> &Counts,
                  const std::vector<std::string> &Checks, bool FastPaths) {
  GenJob J;
  J.Name = Name;
  J.FastPaths = FastPaths;
  std::string T = "workload " + Name + "\n";
  if (Clight) {
    T += "module client clight {\n";
    if (!Racy)
      T += "  extern void lock();\n  extern void unlock();\n";
    T += "  int x = " + str(Base) + ";\n"
         "  void inc(int m) {\n"
         "    int tmp;\n"
         "    int n;\n"
         "    n = 0;\n"
         "    while (n < m) {\n";
    T += Racy ? "" : "      lock();\n";
    T += "      tmp = x;\n"
         "      x = x + 1;\n";
    T += Racy ? "" : "      unlock();\n";
    T += "      print(tmp);\n"
         "      n = n + 1;\n"
         "    }\n"
         "  }\n"
         "}\n";
  } else {
    T += "module client cimp {\n"
         "  global x = " + str(Base) + ";\n"
         "  inc(m) {\n"
         "    n := 0;\n"
         "    while (n < m) {\n";
    T += Racy ? "" : "      lock();\n";
    T += "      tmp := [x];\n"
         "      [x] := tmp + 1;\n";
    T += Racy ? "" : "      unlock();\n";
    T += "      print(tmp);\n"
         "      n := n + 1;\n"
         "    }\n"
         "  }\n"
         "}\n";
  }
  if (!Racy)
    T += LockSpec;
  T += threadsText("inc", Counts) + checksText(Checks);
  J.Text = T;

  J.E.Kind = JobKind::Counter;
  J.E.Base = Base;
  J.E.Racy = Racy;
  for (unsigned C : Counts)
    J.E.Total += C;
  for (const std::string &C : Checks) {
    if (C == "drf")
      J.E.Verdicts[C] = Racy ? "refuted" : "certified";
    else if (C == "explore")
      J.E.Verdicts[C] = "certified"; // no assertion can fail
  }
  return J;
}

//===-- Litmus and mixed-model programs ----------------------------------===//

enum class Shape { SB, LB, MP };

/// Outcome pairs (r1, r2) the textbook allows for \p S under \p Model,
/// with V the value each store writes. SB's both-zero needs a store to
/// linger past a load (TSO, Relaxed); LB's both-V needs a load to be
/// satisfied after a program-later store (Relaxed only).
std::vector<std::pair<int32_t, int32_t>>
allowedPairs(Shape S, const std::string &Model, int32_t V) {
  std::vector<std::pair<int32_t, int32_t>> P = {{0, V}, {V, 0}};
  if (S == Shape::SB) {
    P.push_back({V, V});
    if (Model != "sc")
      P.push_back({0, 0});
  } else {
    P.push_back({0, 0});
    if (Model == "relaxed")
      P.push_back({V, V});
  }
  return P;
}

/// Two-thread SB or LB body: thread E1 prints A + r1, thread E2 prints
/// B + r2.
std::string pairBody(Shape S, const std::string &X, const std::string &Y,
                     const std::string &E1, const std::string &E2, int32_t V,
                     int32_t A, int32_t B) {
  auto Thread = [&](const std::string &Entry, const std::string &Own,
                    const std::string &Peer, const char *Reg, int32_t Off) {
    std::string St = "        movl $" + str(V) + ", " + Own + "\n";
    std::string Ld = "        movl " + Peer + ", " + Reg + "\n";
    return Entry + ":\n" + (S == Shape::SB ? St + Ld : Ld + St) +
           "        addl $" + str(Off) + ", " + Reg + "\n" +
           "        printl " + Reg + "\n" + "        retl\n";
  };
  return "  .data " + X + " 0\n  .data " + Y + " 0\n  .entry " + E1 +
         " 0 0\n  .entry " + E2 + " 0 0\n" +
         Thread(E1, X, Y, "%eax", A) + Thread(E2, Y, X, "%ebx", B);
}

std::string x86Module(const std::string &Name, const std::string &Model,
                      const std::string &Body) {
  return "module " + Name + " x86 model " + Model + " {\n" + Body + "}\n";
}

GenJob litmusJob(Rng &R, Shape S, const std::string &Model) {
  static const char *Names[] = {"sb", "lb", "mp"};
  GenJob J;
  J.Name = std::string(Names[static_cast<int>(S)]) + "_" + Model;
  J.E.Kind = JobKind::Outcomes;
  std::string Body;
  if (S == Shape::MP) {
    const int32_t D = R.range(2, 999);
    Body = "  .data data 0\n  .data flag 0\n  .entry t1 0 0\n"
           "  .entry t2 0 0\n"
           "t1:\n        movl $" + str(D) + ", data\n"
           "        movl $1, flag\n        retl\n"
           "t2:\nspin:\n        movl flag, %eax\n        cmpl $1, %eax\n"
           "        jne spin\n        movl data, %ebx\n"
           "        printl %ebx\n        retl\n";
    // The reader prints only after it saw the flag, so never a stale 0.
    J.E.Outcomes.insert({D});
  } else {
    const int32_t V = R.range(1, 99);
    const int32_t A = 1000 * R.range(1, 9);
    const int32_t B = A + 100000;
    Body = pairBody(S, "x", "y", "t1", "t2", V, A, B);
    for (auto [R1, R2] : allowedPairs(S, Model, V)) {
      std::vector<int64_t> O = {A + R1, B + R2};
      std::sort(O.begin(), O.end());
      J.E.Outcomes.insert(O);
    }
  }
  // A program with a weak outcome must not be certified robust. Where
  // the table has none, either verdict is sound: the analysis may flag a
  // store that lingers past a print (LB under TSO) without judging it.
  const bool Weak = S == Shape::SB || (S == Shape::LB && Model == "relaxed");
  J.E.Verdicts["robustness"] = Weak ? "not-robust" : "robust|not-robust";
  J.E.Verdicts["explore"] = "certified";
  J.Text = "workload " + J.Name + "\n" + x86Module("m", Model, Body) +
           "thread t1\nthread t2\n" + checksText({"explore", "robustness"});
  return J;
}

/// The unfenced mixed-model program: the SB pair under TSO and the LB pair
/// under Relaxed, four threads in one program. Its outcomes are the
/// product of the two pairs' tables.
GenJob mixedModelJob(Rng &R) {
  GenJob J;
  J.Name = "mixed_model";
  J.E.Kind = JobKind::Outcomes;
  const int32_t V1 = R.range(1, 99), V2 = R.range(1, 99);
  const int32_t A1 = 1000 * R.range(1, 9), B1 = A1 + 100000;
  const int32_t A2 = A1 + 200000, B2 = A1 + 300000;
  J.Text = "workload mixed_model\n" +
           x86Module("sbmod", "tso",
                     pairBody(Shape::SB, "sx", "sy", "s1", "s2", V1, A1, B1)) +
           x86Module("lbmod", "relaxed",
                     pairBody(Shape::LB, "lx", "ly", "l1", "l2", V2, A2, B2)) +
           "thread s1\nthread s2\nthread l1\nthread l2\n" +
           checksText({"explore", "robustness"});
  for (auto [S1, S2] : allowedPairs(Shape::SB, "tso", V1))
    for (auto [L1, L2] : allowedPairs(Shape::LB, "relaxed", V2)) {
      std::vector<int64_t> O = {A1 + S1, B1 + S2, A2 + L1, B2 + L2};
      std::sort(O.begin(), O.end());
      J.E.Outcomes.insert(O);
    }
  J.E.Verdicts["explore"] = "certified";
  J.E.Verdicts["robustness"] = "not-robust";
  return J;
}

//===-- Generated x86 modules for repair ---------------------------------===//

struct X86Gen {
  std::string Body;
  unsigned Anchors = 0;
  unsigned Fences = 0;
};

/// An x86 module of \p Entries entries, each \p Ops stores, loads
/// (printed) and mfences over four cells. Which op comes where, and on
/// which cell, is drawn from \p Shape; the stored values and the names of
/// the cells from \p Val. Anchors are counted on the straight-line
/// entries: under TSO a store whose next load, or the entry's exit, comes
/// before any fence; under Relaxed also a load whose next access, or the
/// exit, comes before any fence. A minimal repair never needs more fences
/// than that.
X86Gen x86Gen(Rng &Shape, Rng &Val, unsigned Entries, unsigned Ops,
              bool Relaxed) {
  enum Op { St, Ld, Fe };
  std::vector<std::string> Cells = {"c0", "c1", "c2", "c3"};
  for (std::size_t I = Cells.size(); I > 1; --I)
    std::swap(Cells[I - 1], Cells[Val.below(static_cast<unsigned>(I))]);
  X86Gen G;
  for (const std::string &C : Cells)
    G.Body += "  .data " + C + " 0\n";
  for (unsigned E = 0; E < Entries; ++E)
    G.Body += "  .entry e" + str(E) + " 0 0\n";
  for (unsigned E = 0; E < Entries; ++E) {
    std::vector<Op> Seq;
    G.Body += "e" + str(E) + ":\n";
    for (unsigned I = 0; I < Ops; ++I) {
      const unsigned P = Shape.below(100);
      const std::string &Cell = Cells[Shape.below(4)];
      if (P < 42) {
        Seq.push_back(St);
        G.Body += "        movl $" + str(Val.range(1, 99)) + ", " + Cell + "\n";
      } else if (P < 88) {
        Seq.push_back(Ld);
        G.Body += "        movl " + Cell + ", %eax\n        printl %eax\n";
      } else {
        Seq.push_back(Fe);
        ++G.Fences;
        G.Body += "        mfence\n";
      }
    }
    G.Body += "        retl\n";
    for (std::size_t I = 0; I < Seq.size(); ++I) {
      if (Seq[I] == Fe)
        continue;
      // The first later op that is a fence, or an access this one can be
      // overtaken by, decides; running off the end is the exit.
      bool Anchor = true;
      for (std::size_t K = I + 1; K < Seq.size(); ++K) {
        if (Seq[K] == Fe) {
          Anchor = false;
          break;
        }
        if (Seq[I] == Ld || Seq[K] == Ld)
          break;
      }
      if (Seq[I] == St || Relaxed)
        G.Anchors += Anchor;
    }
  }
  return G;
}

//===-- Generated Clight modules for compilation -------------------------===//

int32_t wrap(int64_t V) { return static_cast<int32_t>(static_cast<uint32_t>(V)); }

const char *OpText[] = {"+", "-", "*"};

int32_t apply(unsigned Op, int32_t A, int32_t B) {
  switch (Op) {
  case 0:
    return wrap(int64_t(A) + B);
  case 1:
    return wrap(int64_t(A) - B);
  default:
    return wrap(int64_t(A) * B);
  }
}

/// One statement of a generated helper over the variables a, b, t0..t3
/// (indices 0..5): `t[D] = (X op1 Y) op2 K`, or, as a branch,
/// `if (X > K) { t[D] = t[D] op1 Y; } else { t[D] = t[D] op2 K2; }`.
struct HelperStmt {
  bool Branch = false;
  unsigned D = 0, X = 0, Y = 0, Op1 = 0, Op2 = 0;
  int32_t K = 0, K2 = 0;
};

struct Helper {
  std::vector<int32_t> Init; ///< Initial values of t0..t3.
  std::vector<HelperStmt> Body;
  unsigned Ret = 0;
};

const char *VarName[] = {"a", "b", "t0", "t1", "t2", "t3"};

/// A constant that is not a positive power of two, so that Selection never
/// turns a multiplication into a shift on some seeds only.
int32_t noShift(int32_t K) {
  while (K > 0 && (K & (K - 1)) == 0)
    ++K;
  return K;
}

/// The shape of a helper (which variables each statement reads and
/// writes, which are branches, which operators) comes from \p Shape; the
/// constants from \p Val.
Helper helper(Rng &Shape, Rng &Val, unsigned Stmts) {
  Helper H;
  for (int I = 0; I < 4; ++I)
    H.Init.push_back(Val.range(-99, 99));
  for (unsigned I = 0; I < Stmts; ++I) {
    HelperStmt S;
    S.Branch = Shape.below(4) == 0;
    S.D = Shape.below(4);
    S.X = Shape.below(6);
    S.Y = Shape.below(6);
    S.Op1 = Shape.below(3);
    S.Op2 = Shape.below(3);
    S.K = noShift(Val.range(-999, 999));
    S.K2 = noShift(Val.range(-999, 999));
    H.Body.push_back(S);
  }
  H.Ret = Shape.below(4);
  return H;
}

std::string helperText(const Helper &H, const std::string &Name) {
  auto V = [](unsigned I) { return std::string(VarName[I]); };
  std::string T = "  int " + Name + "(int a, int b) {\n";
  for (int I = 0; I < 4; ++I)
    T += "    int t" + str(I) + ";\n";
  for (int I = 0; I < 4; ++I)
    T += "    t" + str(I) + " = " + str(H.Init[I]) + ";\n";
  for (const HelperStmt &S : H.Body) {
    const std::string D = V(S.D + 2);
    if (S.Branch)
      T += "    if (" + V(S.X) + " > " + str(S.K) + ") { " + D + " = " + D +
           " " + OpText[S.Op1] + " " + V(S.Y) + "; } else { " + D + " = " +
           D + " " + OpText[S.Op2] + " " + str(S.K2) + "; }\n";
    else
      T += "    " + D + " = (" + V(S.X) + " " + OpText[S.Op1] + " " + V(S.Y) +
           ") " + OpText[S.Op2] + " " + str(S.K) + ";\n";
  }
  return T + "    return " + V(H.Ret + 2) + ";\n  }\n";
}

int32_t helperEval(const Helper &H, int32_t A, int32_t B) {
  int32_t Var[6] = {A, B, H.Init[0], H.Init[1], H.Init[2], H.Init[3]};
  for (const HelperStmt &S : H.Body) {
    int32_t &D = Var[S.D + 2];
    if (S.Branch)
      D = Var[S.X] > S.K ? apply(S.Op1, D, Var[S.Y]) : apply(S.Op2, D, S.K2);
    else
      D = apply(S.Op2, apply(S.Op1, Var[S.X], Var[S.Y]), S.K);
  }
  return Var[H.Ret + 2];
}

/// A Clight module of Helpers straight-line helpers with branches and a
/// main loop that calls each helper once per round and prints two values
/// per round. Every module of a run is distinct; the statement shapes and
/// operators are fixed (drawn from \p Index alone), so every seed compiles
/// the same amount of code, and the seed picks the constants. The prints
/// are computed by evaluating the same statements here with int32
/// wraparound.
GenJob compileJob(Rng &Val, unsigned Index, unsigned Helpers, unsigned Stmts,
                  int32_t Rounds) {
  Rng Shape(0xc0de0000ull + Index);
  std::vector<Helper> Hs;
  for (unsigned I = 0; I < Helpers; ++I)
    Hs.push_back(helper(Shape, Val, Stmts));
  const int32_t G0 = Val.range(-500, 500), R0 = Val.range(-500, 500);

  GenJob J;
  J.Name = "cmp" + str(Index);
  J.E.Kind = JobKind::Compile;
  std::string T = "workload " + J.Name + "\n" +
                  "module prog clight model sc compile {\n"
                  "  int g0 = " + str(G0) + ";\n";
  for (unsigned I = 0; I < Helpers; ++I)
    T += helperText(Hs[I], "h" + str(I));
  T += "  void main() {\n"
       "    int k;\n"
       "    int r;\n"
       "    k = 0;\n"
       "    r = " + str(R0) + ";\n"
       "    while (k < " + str(Rounds) + ") {\n";
  for (unsigned I = 0; I < Helpers; ++I)
    T += "      r = h" + str(I) + "(g0 + k, r);\n"
         "      g0 = g0 - r;\n";
  T += "      print(g0);\n"
       "      print(r);\n"
       "      k = k + 1;\n"
       "    }\n"
       "  }\n"
       "}\n"
       "thread main\n" +
       checksText({"explore"});
  J.Text = T;

  int32_t G = G0, Rv = R0;
  for (int32_t K = 0; K < Rounds; ++K) {
    for (const Helper &H : Hs) {
      Rv = helperEval(H, wrap(int64_t(G) + K), Rv);
      G = wrap(int64_t(G) - Rv);
    }
    J.E.Prints.push_back(G);
    J.E.Prints.push_back(Rv);
  }
  J.E.Verdicts["explore"] = "certified";
  return J;
}

//===-- Workloads ---------------------------------------------------------===//

std::vector<GenJob> exploreJobs(Rng &R) {
  // One check per lock-client job, so that no job is a single exploration
  // of seconds: the fastest of many short repeats is what repeats between
  // runs on a host whose speed drifts over seconds.
  const std::vector<std::string> Checks = {"drf", "explore"};
  std::vector<GenJob> Jobs;
  for (const bool Clight : {false, true})
    for (const std::string &C : Checks)
      Jobs.push_back(counterJob(std::string(Clight ? "clight" : "cimp") +
                                    "_counter_" + C,
                                Clight, false, R.range(1, 9000), {2, 2, 2},
                                {C}, false));
  Jobs.push_back(counterJob("cimp_racy", false, true, R.range(1, 9000),
                            {2, 2}, Checks, false));
  Jobs.push_back(counterJob("clight_racy", true, true, R.range(1, 9000),
                            {2, 2}, Checks, false));
  Jobs.push_back(mixedModelJob(R));
  for (Shape S : {Shape::SB, Shape::LB, Shape::MP})
    for (const char *M : {"tso", "relaxed"})
      Jobs.push_back(litmusJob(R, S, M));
  return Jobs;
}

std::vector<GenJob> repairJobs(Rng &R) {
  // The pool: one module per size, models alternating. Every pool module
  // is linked by two jobs, in a seeded order, the way one library is
  // linked into many clients. Module shapes are fixed per pool slot, so
  // every seed analyses the same amount of code: the cost of fence
  // synthesis swings by tens of percent between random shapes of one size.
  const unsigned Sizes[] = {8, 12, 16, 20, 24, 32};
  const unsigned Ops = 8;
  struct PoolMod {
    std::string Name, Model;
    X86Gen G;
  };
  std::vector<PoolMod> Pool;
  for (unsigned I = 0; I < 6; ++I) {
    const bool Relaxed = I % 2 == 1;
    Rng Shape(0x5a5a0000ull + I);
    Pool.push_back({"pool" + str(I), Relaxed ? "relaxed" : "tso",
                    x86Gen(Shape, R, Sizes[I], Ops, Relaxed)});
  }
  std::vector<unsigned> Order;
  for (unsigned I = 0; I < 6; ++I)
    Order.insert(Order.end(), {I, I});
  for (std::size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(static_cast<unsigned>(I))]);

  std::vector<GenJob> Jobs;
  for (std::size_t K = 0; K < Order.size(); ++K) {
    const PoolMod &M = Pool[Order[K]];
    GenJob J;
    J.Name = "rep" + str(K) + "_" + M.Name;
    J.E.Kind = JobKind::Repair;
    auto Text = [&](const std::string &Model) {
      return "workload " + J.Name + "\n" + x86Module(M.Name, Model, M.G.Body) +
             "thread e0\nthread e1\n";
    };
    J.Text = Text(M.Model) + checksText({"robustness", "fence-synth"});
    J.E.ScTwin = Text("sc");
    J.E.Anchors[M.Name] = M.G.Anchors;
    J.E.WrittenFences[M.Name] = M.G.Fences;
    J.E.Verdicts["robustness"] =
        M.G.Anchors == 0 ? "robust" : "robust|not-robust";
    J.E.Verdicts["fence-synth"] = "certified";
    Jobs.push_back(std::move(J));
  }
  // Lock clients whose DRF verdict the static lockset analysis gives
  // (fast paths on); the racy twin falls through to a small exploration.
  const std::vector<std::string> Drf = {"drf"};
  Jobs.push_back(counterJob("cimp_client", false, false, R.range(1, 9000),
                            {2, 2}, Drf, true));
  Jobs.push_back(counterJob("clight_client", true, false, R.range(1, 9000),
                            {2, 2}, Drf, true));
  Jobs.push_back(counterJob("cimp_client_racy", false, true,
                            R.range(1, 9000), {2, 1}, Drf, true));
  return Jobs;
}

std::vector<GenJob> compileJobs(Rng &R) {
  std::vector<GenJob> Jobs;
  for (unsigned I = 0; I < 12; ++I)
    Jobs.push_back(compileJob(R, I, 8, 40, 2));
  return Jobs;
}

} // namespace

std::vector<GenJob> servebench::generate(const std::string &Workload,
                                         uint64_t Seed) {
  Rng R(Seed * 0x2545f4914f6cdd1dull + 0x5eed);
  if (Workload == "explore")
    return exploreJobs(R);
  if (Workload == "repair")
    return repairJobs(R);
  if (Workload == "compile")
    return compileJobs(R);
  return {};
}
