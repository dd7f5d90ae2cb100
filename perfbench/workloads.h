#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

/// Each workload fills `out` with every end-to-end metric (untraced run) or
/// every per-layer metric (`args.trace`: an untraced phase for the overhead
/// baseline, then the same phase traced), and records failed output checks
/// in `out->problems`.
void RunBoDeep(const RunArgs& args, Output* out);
void RunFleetChurn(const RunArgs& args, Output* out);
void RunShardRecover(const RunArgs& args, Output* out);

/// Scrape period shared by every workload (alternating /metrics, /statusz).
inline constexpr int kScrapePeriodMs = 100;

/// The open-loop generator counts as fallen behind (run invalid) once a
/// request leaves this much later than it was due.
inline constexpr double kMaxGeneratorLateMs = 500.0;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
