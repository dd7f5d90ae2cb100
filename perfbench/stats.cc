#include "stats.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "common/rng.h"

namespace perfbench {
namespace {

// Highest first: the tail is the first rung with enough samples beyond it.
// The ladder stops at p99: for the sub-millisecond operations measured
// here, p99.9 of a 10 s run is set by a handful of VM scheduling stalls.
constexpr int kLadderPermille[] = {990, 950, 900, 750, 500};

std::string FormatPercentile(double percentile) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", percentile);
  return buf;
}

/// Rank (1-based) of the nearest-rank percentile `permille`/1000 of `n`
/// samples: the smallest r with r >= q*n, clamped to [1, n]. Integer
/// arithmetic, so p90 of 100 samples is rank 90 exactly.
size_t NearestRank(size_t n, int permille) {
  if (n == 0) return 0;
  const size_t rank = (static_cast<size_t>(permille) * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

std::string Summary::TailLabel() const {
  return FormatPercentile(tail_percentile) + (tail_rule_met ? "" : " (max)") +
         " of n=" + std::to_string(n);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  for (double v : samples) s.sum += v;
  s.p50 = samples[NearestRank(s.n, 500) - 1];
  s.tail = s.max;
  s.tail_percentile = 100.0;
  for (int permille : kLadderPermille) {
    const size_t rank = NearestRank(s.n, permille);
    if (s.n - rank >= kTailBeyond) {
      s.tail = samples[rank - 1];
      s.tail_percentile = permille / 10.0;
      s.tail_rule_met = true;
      break;
    }
  }
  return s;
}

std::string SelfTest() {
  autotune::Rng rng(20250417);
  for (int trial = 0; trial < 160; ++trial) {
    const size_t n = trial < 40
                         ? static_cast<size_t>(trial)
                         : 1 + static_cast<size_t>(rng.NextUint64() % 400);
    // Few distinct values on odd trials, so ties are exercised.
    const uint64_t distinct = trial % 2 == 1 ? 7 : 1000000;
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t draw = rng.NextUint64() % distinct;
      samples.push_back(static_cast<double>(draw) * 0.25 - 3.0);
    }
    const Summary s = Summarize(samples);
    if (n == 0) {
      if (s.n != 0 || s.p50 != 0.0) return "empty input not all-zero";
      continue;
    }
    // Oracle: the q-quantile is the smallest sample x with
    // #{v <= x} >= q*n; "beyond" is the count of samples ranked above it.
    const auto oracle = [&samples, n](int permille) {
      double best = 0.0;
      bool found = false;
      for (double x : samples) {
        size_t at_or_below = 0;
        for (double v : samples) at_or_below += v <= x ? 1 : 0;
        if (at_or_below * 1000 >= static_cast<size_t>(permille) * n &&
            (!found || x < best)) {
          best = x;
          found = true;
        }
      }
      return best;
    };
    if (s.p50 != oracle(500)) return "p50 mismatch at n=" + std::to_string(n);
    int expected_permille = 0;
    for (int permille : kLadderPermille) {
      size_t rank = 1;  // Smallest rank covering the fraction, by search.
      while (rank * 1000 < static_cast<size_t>(permille) * n) ++rank;
      if (n - rank >= kTailBeyond) {
        expected_permille = permille;
        break;
      }
    }
    const double expected_tail =
        expected_permille > 0
            ? oracle(expected_permille)
            : *std::max_element(samples.begin(), samples.end());
    if (s.tail != expected_tail ||
        s.tail_rule_met != (expected_permille > 0)) {
      return "tail mismatch at n=" + std::to_string(n);
    }
    for (double v : {s.p50, s.tail}) {
      if (v < s.min || v > s.max) {
        return "percentile outside [min, max] at n=" + std::to_string(n);
      }
    }
  }
  return "";
}

}  // namespace perfbench
