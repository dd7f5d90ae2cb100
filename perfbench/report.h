#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "stats.h"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Work directory for journals and knowledge bases (removed at exit).
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string out_dir;
};

/// What a run prints: named metrics with units, human-readable detail
/// lines, and the outcome of the output checks.
struct Output {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> problems;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  void Absorb(const Collector& collector);
};

/// Registry counter / histogram fields (exact ones only: count, sum, max)
/// captured at a phase boundary, so a phase reports deltas.
struct RegistryMark {
  int64_t refits = 0;
  int64_t incremental_updates = 0;
  int64_t sparse_switches = 0;
  double fit_sum_s = 0.0;
  double fit_max_s = 0.0;
  double fleet_tick_sum_s = 0.0;
  double fleet_tick_max_s = 0.0;
  static RegistryMark Now();
};

/// Inputs of the end-to-end metrics that are not plain sample series.
struct EndToEnd {
  std::string trial_series;  ///< "step_ms" or "trial_window_ms".
  int64_t trials = 0;        ///< Live trials completed in the phase.
  double measured_s = 0.0;   ///< Wall time the phase measured.
};

/// Sets every end-to-end metric (see BENCHMARK.json) from the phase's
/// collector: setup_s, trials_per_s, trial_*, best_objective,
/// first_trial_*, session_*, scrape_*, recover_s, peak_rss_mb.
void EmitEndToEnd(const Collector& collector, const EndToEnd& e2e,
                  Output* out);

/// Per-layer inputs that are not plain sample series.
struct Layers {
  std::string loop_self_series;  ///< "step_self_ms" or "window_self_ms".
  std::string trial_series;      ///< Denominator of env.run_share.
  RegistryMark before;
  RegistryMark after;
  int64_t journal_bytes = 0;
  int64_t journal_trials = 0;
  double primary_traced = 0.0;
  double primary_untraced = 0.0;
  /// The untraced phase of the same run: source of the ungated end-to-end
  /// tails (e2e.trial_tail_ms, e2e.first_trial_tail_ms, e2e.scrape_tail_ms).
  const Collector* untraced = nullptr;
  std::map<std::string, double> self_s;  ///< Layer -> self time (trace).
};

/// Sets every per-layer metric (see BENCHMARK.json) from the traced phase.
/// Layers the workload bypasses report 0.
void EmitLayers(const Collector& collector, const Layers& layers,
                Output* out);

/// Sizes the program's trace ring for a whole traced phase, turns the
/// bench's own spans on, and afterwards derives each layer's self time from
/// the span tree (parent ids). Fails the run if the ring filled, since a
/// full ring silently overwrites the oldest spans.
class TraceCapture {
 public:
  TraceCapture();
  /// Stops capturing, writes the Chrome trace to `path`, and returns
  /// layer -> self seconds (plus "total" = the root spans' wall time).
  std::map<std::string, double> Finish(const std::string& path, Output* out);
};

/// Layer a span name belongs to (bench spans are named after layers;
/// program spans are mapped by their prefix).
std::string LayerOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
