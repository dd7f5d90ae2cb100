#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard.h"

namespace perfbench {
namespace {

/// Enough for every span of a traced phase (about a dozen per trial); the
/// ring grows on demand, so unused capacity costs nothing.
constexpr size_t kTraceCapacity = 4000000;
constexpr size_t kDefaultTraceCapacity = 8192;

constexpr const char* kSelfLayers[] = {
    "optimizers",    "surrogate",       "core",
    "env",           "service.http",    "service.manager",
    "service.manager.wait",             "service.control_plane",
    "kb",            "record",          "obs",
    "other"};

std::string Fmt(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Which of a latency's order statistics are bounded end-to-end metrics;
/// the others are only noted (and reported by traced runs as e2e.*).
enum class Gated { kNone, kP50, kP50AndTail };

/// Sets the gated `<prefix>_p50_ms` / `<prefix>_tail_ms` from raw samples and
/// notes both, with the tail's percentile and sample count.
void SetLatency(Output* out, const std::string& prefix,
                const std::vector<double>& samples, Gated gated) {
  const Summary s = Summarize(samples);
  if (gated != Gated::kNone) out->Set(prefix + "_p50_ms", s.p50, "ms");
  if (gated == Gated::kP50AndTail) out->Set(prefix + "_tail_ms", s.tail, "ms");
  out->Note(prefix + ": p50 " + Fmt(s.p50) + " ms, tail " + Fmt(s.tail) +
            " ms (" + s.TailLabel() + "), range [" + Fmt(s.min) + ", " +
            Fmt(s.max) + "]");
  if (s.n == 0) out->problems.push_back(prefix + ": no samples");
  if (s.n > 0 && (s.p50 < s.min || s.p50 > s.max || s.tail < s.min ||
                  s.tail > s.max)) {
    out->problems.push_back(prefix + ": percentile outside [min, max]");
  }
}

double Median(const std::vector<double>& samples) {
  return Summarize(samples).p50;
}

}  // namespace

void Output::Absorb(const Collector& collector) {
  attempted += collector.attempted();
  failed += collector.failed();
  for (const std::string& problem : collector.problems()) {
    problems.push_back(problem);
  }
}

RegistryMark RegistryMark::Now() {
  autotune::obs::MetricsRegistry& registry =
      autotune::obs::MetricsRegistry::Global();
  RegistryMark mark;
  mark.refits = registry.GetCounter("bo.surrogate_refits")->value();
  mark.incremental_updates =
      registry.GetCounter("bo.surrogate_incremental_updates")->value();
  mark.sparse_switches = registry.GetCounter("bo.sparse_switches")->value();
  const autotune::obs::Histogram* fit = registry.GetHistogram("span.bo.fit");
  mark.fit_sum_s = fit->sum();
  mark.fit_max_s = fit->count() > 0 ? fit->max() : 0.0;
  const autotune::obs::Histogram* tick =
      registry.GetHistogram("span.fleet.tick");
  mark.fleet_tick_sum_s = tick->sum();
  mark.fleet_tick_max_s = tick->count() > 0 ? tick->max() : 0.0;
  return mark;
}

void EmitEndToEnd(const Collector& collector, const EndToEnd& e2e,
                  Output* out) {
  const Summary setup = Summarize(collector.Series("setup_s"));
  out->Set("setup_s", setup.p50, "s");
  out->Note("setup_s: median of " + std::to_string(setup.n) + " set-ups, " +
            "range [" + Fmt(setup.min) + ", " + Fmt(setup.max) + "] s");
  out->Set("trials_per_s",
           e2e.measured_s > 0.0 ? e2e.trials / e2e.measured_s : 0.0, "1/s");
  out->Note("trials_per_s: " + std::to_string(e2e.trials) + " live trials in " +
            Fmt(e2e.measured_s) + " s");
  if (e2e.trials == 0) out->problems.push_back("no live trials");
  // Only the session tail is gated: the other tails are p90-p99 of
  // sub-10 ms operations, set by VM scheduling stalls more than by the
  // program. first_trial's median is not gated either: on fleet-churn it is
  // mostly admission file I/O, whose latency on a VM disk swung by more
  // than the largest bound between runs.
  SetLatency(out, "trial", collector.Series(e2e.trial_series), Gated::kP50);
  const double best = collector.best_simdb_p99();
  if (std::isfinite(best)) {
    out->Set("best_objective", best, "ms");
  } else {
    out->Set("best_objective", 0.0, "ms");
    out->problems.push_back("no successful simdb trial");
  }
  SetLatency(out, "first_trial", collector.Series("first_trial_ms"),
             Gated::kNone);
  SetLatency(out, "session", collector.Series("session_ms"),
             Gated::kP50AndTail);
  SetLatency(out, "scrape", collector.Series("scrape_ms"), Gated::kP50);
  const Summary recover = Summarize(collector.Series("recover_s"));
  out->Set("recover_s", recover.p50, "s");
  out->Note("recover_s: median of " + std::to_string(recover.n) +
            " recoveries, range [" + Fmt(recover.min) + ", " +
            Fmt(recover.max) + "] s");
  if (recover.n == 0) out->problems.push_back("recover_s: no samples");
  const Summary rss = Summarize(collector.Series("peak_rss_mb"));
  out->Set("peak_rss_mb", rss.p50, "MiB");
  out->Note("peak_rss_mb: median of " + std::to_string(rss.n) +
            " measured units, range [" + Fmt(rss.min) + ", " + Fmt(rss.max) +
            "] MiB");
  if (rss.n == 0) out->problems.push_back("peak_rss_mb: no samples");
}

void EmitLayers(const Collector& collector, const Layers& layers,
                Output* out) {
  const auto series = [&collector](const char* name) {
    return collector.Series(name);
  };
  const Summary suggest = Summarize(series("suggest_ms"));
  const Summary observe = Summarize(series("observe_ms"));
  out->Set("optimizers.suggest_p50_ms", suggest.p50, "ms");
  out->Set("optimizers.suggest_tail_ms", suggest.tail, "ms");
  out->Set("optimizers.observe_p50_ms", observe.p50, "ms");
  out->Set("optimizers.observe_max_ms", observe.max, "ms");
  out->Set("optimizers.calls",
           static_cast<double>(suggest.n + observe.n +
                               collector.Count("restore_ms")),
           "count");
  out->Note("optimizers.suggest tail: " + suggest.TailLabel());

  out->Set("surrogate.refits",
           static_cast<double>(layers.after.refits - layers.before.refits),
           "count");
  out->Set("surrogate.incremental_updates",
           static_cast<double>(layers.after.incremental_updates -
                               layers.before.incremental_updates),
           "count");
  out->Set("surrogate.sparse_switches",
           static_cast<double>(layers.after.sparse_switches -
                               layers.before.sparse_switches),
           "count");
  out->Set("surrogate.fit_sum_s",
           layers.after.fit_sum_s - layers.before.fit_sum_s, "s");
  out->Set("surrogate.fit_max_s", layers.after.fit_max_s, "s");
  out->Note("surrogate.fit_max_s and obs.fleet_tick_max_ms are the "
            "histograms' exact lifetime max (set-up included)");

  const std::vector<double> madds = series("predict_madds");
  out->Set("math.predict_madds_per_suggest",
           madds.empty() ? 0.0 : Sum(madds) / static_cast<double>(madds.size()),
           "count");
  out->Note("math.predict_madds_per_suggest: computed as candidates x "
            "n(n+1)/2 over " + std::to_string(madds.size()) +
            " model suggests, not measured");

  out->Set("core.loop.self_p50_ms",
           Median(collector.Series(layers.loop_self_series)), "ms");
  const std::vector<double> env = series("env_ms");
  out->Set("env.run_p50_ms", Median(env), "ms");
  const double trial_total = Sum(collector.Series(layers.trial_series));
  out->Set("env.run_share", trial_total > 0.0 ? Sum(env) / trial_total : 0.0,
           "ratio");

  const Summary post = Summarize(series("post_handler_ms"));
  const Summary scrape = Summarize(series("scrape_handler_ms"));
  const Summary wait = Summarize(series("accept_wait_ms"));
  out->Set("service.http.post_handler_p50_ms", post.p50, "ms");
  out->Set("service.http.post_handler_tail_ms", post.tail, "ms");
  out->Set("service.http.scrape_handler_p50_ms", scrape.p50, "ms");
  out->Set("service.http.scrape_handler_tail_ms", scrape.tail, "ms");
  out->Set("service.http.accept_wait_p50_ms", wait.p50, "ms");
  out->Set("service.http.accept_wait_tail_ms", wait.tail, "ms");

  const Summary gap = Summarize(series("trial_gap_ms"));
  out->Set("service.manager.trial_gap_p50_ms", gap.p50, "ms");
  out->Set("service.manager.trial_gap_tail_ms", gap.tail, "ms");
  out->Set("service.manager.snapshot_p50_ms", Median(series("snapshot_ms")),
           "ms");

  const Summary first_live = Summarize(series("first_live_ms"));
  out->Set("service.control_plane.recover_all_s",
           Median(series("recover_all_s")), "s");
  out->Set("service.control_plane.first_live_p50_ms", first_live.p50, "ms");
  out->Set("service.control_plane.first_live_tail_ms", first_live.tail, "ms");

  const Summary depth = Summarize(series("queue_depth"));
  out->Set("common.pool.queue_depth_p50", depth.p50, "count");
  out->Set("common.pool.queue_depth_max", depth.max, "count");

  out->Set("obs.journal.bytes_per_trial",
           layers.journal_trials > 0
               ? static_cast<double>(layers.journal_bytes) /
                     static_cast<double>(layers.journal_trials)
               : 0.0,
           "bytes");
  out->Set("record.decode_s", Sum(series("decode_s")), "s");
  out->Set("obs.fleet_tick_sum_s",
           layers.after.fleet_tick_sum_s - layers.before.fleet_tick_sum_s,
           "s");
  out->Set("obs.fleet_tick_max_ms", layers.after.fleet_tick_max_s * 1e3,
           "ms");
  out->Set("kb.scan_s", Median(series("kb_scan_s")), "s");
  const std::vector<double> ingested = series("kb_ingested");
  out->Set("kb.sessions_ingested", ingested.empty() ? 0.0 : ingested.back(),
           "count");

  const std::vector<double> late = series("late_ms");
  out->Set("bench.generator_late_max_ms",
           late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
           "ms");
  out->Set("bench.trace_overhead",
           layers.primary_untraced > 0.0
               ? layers.primary_traced / layers.primary_untraced
               : 0.0,
           "ratio");
  out->Note("bench.trace_overhead: traced " + Fmt(layers.primary_traced) +
            " / untraced " + Fmt(layers.primary_untraced));

  if (layers.untraced != nullptr) {
    out->Set("e2e.trial_tail_ms",
             Summarize(layers.untraced->Series(layers.trial_series)).tail,
             "ms");
    const Summary first_trial =
        Summarize(layers.untraced->Series("first_trial_ms"));
    out->Set("e2e.first_trial_p50_ms", first_trial.p50, "ms");
    out->Set("e2e.first_trial_tail_ms", first_trial.tail, "ms");
    out->Set("e2e.scrape_tail_ms",
             Summarize(layers.untraced->Series("scrape_ms")).tail, "ms");
  }

  double self_sum = 0.0;
  for (const char* layer : kSelfLayers) {
    auto it = layers.self_s.find(layer);
    const double value = it == layers.self_s.end() ? 0.0 : it->second;
    self_sum += value;
    out->Set(std::string("self.") + layer + "_s", value, "s");
  }
  auto total = layers.self_s.find("total");
  const double root_total = total == layers.self_s.end() ? 0.0 : total->second;
  out->Set("self.total_s", root_total, "s");
  out->Note("self times: layers sum to " + Fmt(self_sum) +
            " s; root spans cover " + Fmt(root_total) + " s");
  if (std::fabs(self_sum - root_total) > 1e-3 * std::max(1.0, root_total)) {
    out->problems.push_back("layer self times do not add up to the root "
                            "spans' wall time");
  }
}

// ---- Tracing ---------------------------------------------------------------

std::string LayerOf(const std::string& name) {
  if (StartsWith(name, "optimizers.") || name == "bo.suggest") {
    return "optimizers";
  }
  if (name == "bo.fit" || name == "bo.observe_incremental") return "surrogate";
  if (StartsWith(name, "loop.") || StartsWith(name, "trial.") ||
      StartsWith(name, "parallel.") || StartsWith(name, "core.")) {
    return "core";
  }
  if (StartsWith(name, "env.")) return "env";
  if (StartsWith(name, "service.http")) return "service.http";
  // The trial span wraps TuningLoop::StepTrial; its self time is the loop's
  // own work (journal appends included).
  if (name == "service.trial") return "core";
  if (name == "experiment") return "service.manager.wait";
  if (StartsWith(name, "service.control_plane")) {
    return "service.control_plane";
  }
  if (StartsWith(name, "kb.")) return "kb";
  if (StartsWith(name, "record.")) return "record";
  if (StartsWith(name, "fleet.")) return "obs";
  return "other";
}

TraceCapture::TraceCapture() {
  autotune::obs::TraceBuffer::SetCapacity(kTraceCapacity);
  autotune::obs::TraceBuffer::SetEnabled(true);
  SetBenchTracing(true);
}

std::map<std::string, double> TraceCapture::Finish(const std::string& path,
                                                   Output* out) {
  SetBenchTracing(false);
  const std::vector<autotune::obs::SpanRecord> spans =
      autotune::obs::TraceBuffer::Snapshot();
  if (spans.size() >= kTraceCapacity) {
    out->problems.push_back("trace ring filled: spans were overwritten");
  }
  // Self time = duration minus the union of the children's intervals
  // (clipped to the parent), children found through parent span ids.
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span_id != 0) by_id[spans[i].span_id] = i;
  }
  std::vector<std::vector<size_t>> children(spans.size());
  std::map<std::string, double> self_s;
  double root_total_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto parent = by_id.find(spans[i].parent_span_id);
    if (spans[i].parent_span_id != 0 && parent != by_id.end() &&
        parent->second != i) {
      children[parent->second].push_back(i);
    } else {
      root_total_ns += static_cast<double>(spans[i].duration_ns);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t start = spans[i].start_ns;
    const int64_t end = start + spans[i].duration_ns;
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const int64_t cs = std::max(start, spans[c].start_ns);
      const int64_t ce =
          std::min(end, spans[c].start_ns + spans[c].duration_ns);
      if (ce > cs) covered.emplace_back(cs, ce);
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = start;
    for (const auto& [cs, ce] : covered) {
      const int64_t from = std::max(cs, reach);
      if (ce > from) covered_ns += ce - from;
      reach = std::max(reach, ce);
    }
    self_s[LayerOf(spans[i].name)] +=
        static_cast<double>(spans[i].duration_ns - covered_ns) * 1e-9;
  }
  self_s["total"] = root_total_ns * 1e-9;
  const autotune::Status written =
      autotune::obs::TraceBuffer::WriteChromeTraceFile(path);
  out->Note("trace: " + std::to_string(spans.size()) + " spans -> " + path +
            (written.ok() ? "" : " (" + written.ToString() + ")"));
  autotune::obs::TraceBuffer::SetCapacity(kDefaultTraceCapacity);
  return self_s;
}

}  // namespace perfbench
