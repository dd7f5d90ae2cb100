#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Exact order statistics over raw samples. Every percentile is one of the
/// samples (nearest rank), so it always lies inside [min, max] — unlike the
/// program's bucketed `obs::Histogram::Quantile`, whose interpolated values
/// can fall outside the observed range.
struct Summary {
  size_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double p50 = 0.0;
  /// The highest percentile of the ladder (99, 95, 90, 75, 50) that has
  /// at least `kTailBeyond` samples strictly above its rank. When no rung
  /// qualifies (fewer than 20 samples) the tail is the maximum and
  /// `tail_rule_met` is false.
  double tail = 0.0;
  double tail_percentile = 0.0;
  bool tail_rule_met = false;

  /// "p90 of n=240" style label for reports.
  std::string TailLabel() const;
};

inline constexpr size_t kTailBeyond = 10;

/// Summarizes `samples` (any order). Empty input gives an all-zero summary.
Summary Summarize(std::vector<double> samples);

/// Checks `Summarize` against a brute-force oracle (counting, no sorting)
/// on seeded random sample sets, including ties and tiny sets, and that
/// every reported percentile lies in [min, max]. Returns an empty string on
/// success, else a description of the first mismatch.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
