//===- Checks.h - Correctness checks of the service's answers -------------===//
//
// Every check compares an output of the program with an answer the
// generator worked out itself (Gen.h). Each content check is paired with a
// self-test that hands the same check a corrupted expectation and requires
// it to fail, so a check that cannot fail shows up as a failure.
//
//===----------------------------------------------------------------------===//

#ifndef SERVEBENCH_CHECKS_H
#define SERVEBENCH_CHECKS_H

#include "Gen.h"

#include "frontend/JobRunner.h"

#include <string>
#include <vector>

namespace servebench {

/// Counts checks attempted and failed; keeps the first few failures.
struct Tally {
  unsigned long Attempted = 0;
  unsigned long Failed = 0;
  std::vector<std::string> Failures;

  void expect(bool Ok, const std::string &What);
};

/// Checks the verdict records of one job, as runJob returned them, against
/// the job's expected verdicts.
void checkVerdicts(const GenJob &J,
                   const std::vector<ccc::frontend::JobOutcome> &Outs,
                   Tally &T);

/// Requires two outcome lists to agree on every field but the timings.
void checkSameOutcomes(const std::vector<ccc::frontend::JobOutcome> &Want,
                       const std::vector<ccc::frontend::JobOutcome> &Got,
                       Tally &T);

/// Content checks of one job (trace sets, outcome tables, repaired
/// modules, compiled output) with their self-tests. \p Outs are runJob's
/// records for the job; explored trace sets are tied to them by hash.
void checkContent(const GenJob &J, const ccc::frontend::JobSpec &S,
                  const std::vector<ccc::frontend::JobOutcome> &Outs,
                  Tally &T);

} // namespace servebench

#endif // SERVEBENCH_CHECKS_H
