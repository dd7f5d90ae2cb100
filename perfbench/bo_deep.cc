// bo-deep: one GP-BO tenant with a deep history on the deterministic simdb
// environment (20 knobs). Set-up feeds kHistory observations through
// Optimizer::Observe and checkpoints the optimizer. The measured phase runs
// back-to-back sessions of that tenant: each restores the checkpoint
// (RestoreCheckpoint: one full refit plus the incremental tail), then steps
// kSessionTrials journaled trials through TuningLoop::StepTrial, crossing
// the geometric full refit at 609 observations. A scraper thread reads
// /metrics and /statusz of an otherwise idle shard meanwhile.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/trial_runner.h"
#include "core/tuning_loop.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "optimizers/bayesian.h"
#include "shard.h"
#include "sim/db_env.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kHistory = 600;
/// 600 -> 616 observations: crosses the scheduled full refit at 609.
constexpr int kSessionTrials = 16;
constexpr int kSetups = 3;
constexpr uint64_t kRunnerSalt = 0x2545f4914f6cdd1dULL;

struct DeepTenant {
  std::unique_ptr<autotune::sim::DbEnv> env;  // Owns the space.
  autotune::OptimizerCheckpoint checkpoint;
  std::vector<autotune::Observation> history;
};

/// What must be identical across sessions, runs and trace settings.
struct Fingerprint {
  double best = 0.0;
  int trials = 0;
  int64_t refits = 0;

  bool operator==(const Fingerprint& o) const {
    return best == o.best && trials == o.trials && refits == o.refits;
  }
  std::string ToString() const {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "best_objective=%.17g trials=%d refits=%lld", best, trials,
                  static_cast<long long>(refits));
    return buf;
  }
};

int64_t Refits() {
  return autotune::obs::MetricsRegistry::Global()
      .GetCounter("bo.surrogate_refits")
      ->value();
}

bool SetUp(uint64_t seed, Collector* c, DeepTenant* tenant) {
  autotune::sim::DbEnvOptions options;
  options.deterministic = true;
  tenant->env = std::make_unique<autotune::sim::DbEnv>(options);
  const autotune::ConfigSpace& space = tenant->env->space();
  auto bo = autotune::MakeGpBo(&space, seed);
  autotune::TrialRunner runner(tenant->env.get(),
                               autotune::TrialRunnerOptions(),
                               seed ^ kRunnerSalt);
  autotune::Rng rng(seed);
  for (int i = 0; i < kHistory; ++i) {
    const autotune::Status observed =
        bo->Observe(runner.Evaluate(space.Sample(&rng)));
    c->CountOp(observed.ok());
  }
  auto checkpoint = bo->SaveCheckpoint();
  c->CountOp(checkpoint.ok());
  if (!checkpoint.ok()) {
    c->Problem("bo-deep: SaveCheckpoint: " + checkpoint.status().ToString());
    return false;
  }
  tenant->checkpoint = *checkpoint;
  tenant->history = bo->history();
  return true;
}

/// One session of the deep tenant, due at the time it starts.
bool RunSession(const DeepTenant& tenant, uint64_t seed,
                const std::string& journal_path, Collector* c,
                Fingerprint* fingerprint, int64_t* journal_bytes) {
  const int64_t due = NowNs();
  auto probe = std::make_shared<TenantProbe>(c);
  TimedEnvironment env(tenant.env.get(), probe);
  TimedOptimizer optimizer(autotune::MakeGpBo(&tenant.env->space(), seed),
                           probe);
  const autotune::Status restored =
      optimizer.RestoreCheckpoint(tenant.checkpoint, tenant.history);
  c->Add("recover_s", NsToS(NowNs() - due));
  if (!restored.ok()) {
    c->Problem("bo-deep: RestoreCheckpoint: " + restored.ToString());
    return false;
  }
  const int64_t refits_before = Refits();
  auto journal = autotune::obs::Journal::Open(journal_path);
  c->CountOp(journal.ok());
  if (!journal.ok()) {
    c->Problem("bo-deep: journal: " + journal.status().ToString());
    return false;
  }
  autotune::TrialRunner runner(&env, autotune::TrialRunnerOptions(),
                               seed ^ kRunnerSalt);
  autotune::TuningLoopOptions loop_options;
  loop_options.max_trials = kSessionTrials;
  loop_options.journal = journal->get();
  autotune::TuningLoop loop(&optimizer, &runner, loop_options);
  bool first = true;
  while (!loop.done()) {
    const int before = loop.trials_run();
    const int64_t optimizer_before = probe->optimizer_ns;
    const int64_t env_before = probe->env_ns;
    const int64_t start = NowNs();
    {
      BenchSpan span("core.loop.step");
      loop.StepTrial();
    }
    const int64_t end = NowNs();
    if (loop.trials_run() == before) continue;
    c->Add("step_ms", NsToMs(end - start));
    c->Add("step_self_ms",
           NsToMs(end - start - (probe->optimizer_ns - optimizer_before) -
                  (probe->env_ns - env_before)));
    if (first) c->Add("first_trial_ms", NsToMs(end - due));
    first = false;
  }
  const autotune::TuningResult result = loop.Finish();
  c->Add("session_ms", NsToMs(NowNs() - due));
  // The tenant's incumbent: the best of its whole history, set-up
  // observations included (the objective is simdb's latency_p99_ms).
  fingerprint->best = result.best.has_value() ? result.best->objective : NAN;
  if (result.best.has_value()) c->NoteSimdbP99(result.best->objective);
  journal->reset();
  *journal_bytes += DirBytes(
      std::filesystem::path(journal_path).parent_path().string(), ".jsonl");
  RemoveTree(journal_path);
  fingerprint->trials = result.trials_run;
  fingerprint->refits = Refits() - refits_before;
  return true;
}

struct PhaseResult {
  EndToEnd e2e;
  Fingerprint fingerprint;
  int64_t journal_bytes = 0;
};

PhaseResult RunPhase(const RunArgs& args, const DeepTenant& tenant,
                     const std::string& tag, Collector* c) {
  PhaseResult phase;
  phase.e2e.trial_series = "step_ms";
  std::string error;
  auto shard = Shard::Start(Shard::Config{"", false, true, true, nullptr}, c,
                            &error);
  if (shard == nullptr) {
    c->Problem("bo-deep: " + error);
    return phase;
  }
  const std::string dir = args.work_dir + "/bo-deep-" + tag;
  MakeDirs(dir);
  const int64_t start = NowNs();
  auto scraper = std::make_unique<OpenLoopClient>(
      shard->port(),
      ScrapeSchedule(start, kScrapePeriodMs, args.seconds + 150.0, false), c,
      nullptr);
  for (int session = 0; NowNs() - start < args.seconds * 1000000000LL;
       ++session) {
    Fingerprint fingerprint;
    ResetPeakRss();
    if (!RunSession(tenant, args.seed,
                    dir + "/session-" + std::to_string(session) + ".jsonl", c,
                    &fingerprint, &phase.journal_bytes)) {
      break;
    }
    c->Add("peak_rss_mb", PeakRssMb());
    if (session == 0) {
      phase.fingerprint = fingerprint;
    } else if (!(fingerprint == phase.fingerprint)) {
      c->Problem("bo-deep: session " + std::to_string(session) +
                 " differs: " + fingerprint.ToString() + " vs " +
                 phase.fingerprint.ToString());
    }
    phase.e2e.trials += fingerprint.trials;
    if (fingerprint.trials != kSessionTrials) {
      c->Problem("bo-deep: session ran " + std::to_string(fingerprint.trials) +
                 " trials, expected " + std::to_string(kSessionTrials));
    }
  }
  phase.e2e.measured_s = NsToS(NowNs() - start);
  c->Add("late_ms", scraper->late_max_ms());
  if (scraper->late_max_ms() > kMaxGeneratorLateMs) {
    c->Problem("bo-deep: scraper fell behind");
  }
  scraper.reset();
  shard.reset();
  RemoveTree(dir);
  if (phase.fingerprint.refits < 1) {
    c->Problem("bo-deep: sessions crossed no full refit");
  }
  return phase;
}

}  // namespace

void RunBoDeep(const RunArgs& args, Output* out) {
  Collector c;
  DeepTenant tenant;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    DeepTenant candidate;
    const int64_t start = NowNs();
    if (!SetUp(args.seed, &c, &candidate)) break;
    c.Add("setup_s", NsToS(NowNs() - start));
    if (i > 0 && (candidate.checkpoint.rng != tenant.checkpoint.rng ||
                  candidate.checkpoint.fields != tenant.checkpoint.fields)) {
      c.Problem("bo-deep: set-ups with one seed produced different optimizers");
    }
    tenant = std::move(candidate);
  }
  if (tenant.env == nullptr) {
    out->Absorb(c);
    return;
  }

  if (!args.trace) {
    const PhaseResult phase = RunPhase(args, tenant, "e2e", &c);
    EmitEndToEnd(c, phase.e2e, out);
    out->Note("bo-deep fingerprint: " + phase.fingerprint.ToString());
    out->Absorb(c);
    return;
  }

  const PhaseResult untraced = RunPhase(args, tenant, "untraced", &c);
  Collector traced;
  Layers layers;
  layers.loop_self_series = "step_self_ms";
  layers.trial_series = "step_ms";
  layers.untraced = &c;
  layers.before = RegistryMark::Now();
  TraceCapture capture;
  const PhaseResult phase = RunPhase(args, tenant, "traced", &traced);
  layers.self_s = capture.Finish(args.out_dir + "/trace-bo-deep.json", out);
  layers.after = RegistryMark::Now();
  layers.journal_bytes = phase.journal_bytes;
  layers.journal_trials = phase.e2e.trials;
  layers.primary_untraced = Summarize(c.Series("step_ms")).p50;
  layers.primary_traced = Summarize(traced.Series("step_ms")).p50;
  if (!(phase.fingerprint == untraced.fingerprint)) {
    traced.Problem("bo-deep: traced run differs from untraced: " +
                   phase.fingerprint.ToString() + " vs " +
                   untraced.fingerprint.ToString());
  }
  out->Note("bo-deep fingerprint: " + phase.fingerprint.ToString());
  EmitLayers(traced, layers, out);
  out->Absorb(c);
  out->Absorb(traced);
}

}  // namespace perfbench
