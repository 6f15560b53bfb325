//===- Mirror.h - Traced replica of the service's job dispatch ------------===//
//
// runJobTraced does what ccc::frontend::runJob does, check for check, but
// through the public functions of each src/ module, so that a span can be
// opened around every call from the benchmark's own code. Its outcome
// records must equal runJob's field for field; the benchmark checks that
// on every traced batch.
//
//===----------------------------------------------------------------------===//

#ifndef SERVEBENCH_MIRROR_H
#define SERVEBENCH_MIRROR_H

#include "Spans.h"

#include "frontend/JobRunner.h"

#include <vector>

namespace servebench {

/// Runs every check of \p S as runJob would, recording spans and counts in
/// \p T. Span names are `<module>.<function>`; the job's span is the top
/// level.
std::vector<ccc::frontend::JobOutcome>
runJobTraced(const ccc::frontend::JobSpec &S, Tracer &T);

/// Rebuilds the state graph of every `explore` check of \p S at worker
/// width \p Workers, under span `core.explore.build_w<Workers>`.
void exploreAtWidth(const ccc::frontend::JobSpec &S, unsigned Workers,
                    Tracer &T);

} // namespace servebench

#endif // SERVEBENCH_MIRROR_H
