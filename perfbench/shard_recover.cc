// shard-recover: a shard restarts over the journal directory of a shard
// that died right after trial N of every tenant. Set-up builds that
// directory through the control plane: every tenant is admitted with a
// budget of N + kLiveTrials and paused from inside its Nth live Observe, so
// the journals stop exactly where a kill -9 after trial N leaves them (no
// experiment_finished; specs and leases in place). Most tenants are long
// random-search sessions, a few are GP-BO sessions with optimizer
// snapshots. Each measured episode puts that directory back into its
// crashed state and restarts a shard with the same shard id:
// KnowledgeStore::ScanDirectory, the HTTP server (scraped meanwhile), then
// ControlPlane::RecoverAll. recover_s ends when every tenant has replayed
// its N trials and completed its first live trial; the episode ends when
// every tenant has finished its remaining live trials.

#include <thread>

#include "common/rng.h"
#include "kb/knowledge_store.h"
#include "record/codec.h"
#include "shard.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kLongTenants = 24;
constexpr int kLongTrials = 400;
constexpr int kBoTenants = 2;
constexpr int kBoTrials = 60;
/// Live trials each tenant runs after recovery (its budget is N plus this).
constexpr int kLiveTrials = 5;
constexpr int kSetups = 3;
/// Tenant-status poll period while a restart recovers. Each poll takes the
/// manager's mutex once per tenant, which RecoverAll and the pool also
/// need; the probes stamp the timings, so polling faster only adds load.
constexpr int kPollMs = 50;
/// Period of the manager-snapshot and pool-queue samples (per-layer only).
constexpr int kSampleMs = 250;
constexpr const char* kWorkloads[] = {"tpcc", "ycsb-a", "ycsb-b", "webapp"};

using autotune::service::ExperimentState;

struct Plan {
  std::string name;
  std::map<std::string, std::string> keys;
  int crash_after = 0;  ///< N: journaled trials before the crash.
};

std::vector<Plan> PlanTenants(uint64_t seed) {
  autotune::Rng rng(seed);
  std::vector<Plan> plans;
  for (int i = 0; i < kLongTenants + kBoTenants; ++i) {
    const bool bo = i >= kLongTenants;
    Plan plan;
    plan.name = bo ? "bo" + std::to_string(i - kLongTenants)
                   : "long" + std::to_string(i);
    plan.crash_after = bo ? kBoTrials : kLongTrials;
    plan.keys = {
        {"name", plan.name},
        {"env", "simdb"},
        {"workload",
         bo ? "tpcc" : kWorkloads[i % std::size(kWorkloads)]},
        {"optimizer", bo ? "bo" : "random"},
        {"trials", std::to_string(plan.crash_after + kLiveTrials)},
        {"seed", std::to_string(rng.NextUint64() % 1000000007ULL)}};
    plans.push_back(std::move(plan));
  }
  return plans;
}

bool Terminal(ExperimentState state) {
  return state != ExperimentState::kRunning &&
         state != ExperimentState::kPaused;
}

/// Leaves in `dir` (absent or empty) what a shard killed right after trial
/// N of every tenant leaves behind.
bool BuildCrashedDir(const std::string& dir, const std::vector<Plan>& plans,
                     Collector* c) {
  MakeDirs(dir);
  std::string error;
  auto shard =
      Shard::Start(Shard::Config{dir, false, false, false, nullptr}, c, &error);
  if (shard == nullptr) {
    c->Problem("shard-recover: " + error);
    return false;
  }
  std::map<std::string, int> crash_at;
  for (const Plan& plan : plans) crash_at[plan.name] = plan.crash_after;
  autotune::service::ExperimentManager* manager = &shard->manager();
  shard->probes().live_hook = [manager, crash_at](const std::string& name,
                                                  int64_t live) {
    auto it = crash_at.find(name);
    if (it != crash_at.end() && live == it->second) {
      (void)manager->Pause(name);
    }
  };
  for (const Plan& plan : plans) {
    const autotune::Status admitted =
        shard->control()->Admit(SpecBody(plan.keys));
    c->CountOp(admitted.ok());
    if (!admitted.ok()) {
      c->Problem("shard-recover: admit " + plan.name + ": " +
                 admitted.ToString());
      return false;
    }
  }
  const int64_t deadline = NowNs() + 120 * 1000000000LL;
  for (size_t stopped = 0; stopped < plans.size();) {
    if (NowNs() > deadline) {
      c->Problem("shard-recover: set-up tenants did not stop at trial N");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stopped = 0;
    for (const Plan& plan : plans) {
      const auto st = manager->StatusOf(plan.name);
      if (st.ok() && st->state == ExperimentState::kPaused && !st->in_flight &&
          st->trials_run == plan.crash_after) {
        ++stopped;
      }
    }
  }
  return true;  // The shard is dropped without finalizing any tenant.
}

/// Config of trial N+1 of an uninterrupted run of `plan`.
std::string ReferenceConfig(const Plan& plan, const std::string& dir,
                            Collector* c) {
  RemoveTree(dir);
  MakeDirs(dir);
  std::string error;
  auto shard =
      Shard::Start(Shard::Config{"", false, false, false, nullptr}, c, &error);
  std::string config;
  if (shard != nullptr) {
    std::map<std::string, std::string> keys = plan.keys;
    keys["trials"] = std::to_string(plan.crash_after + 1);
    auto spec = MakeSpec(keys, &shard->probes(), dir);
    const autotune::Status added =
        spec.ok() ? shard->manager().AddExperiment(std::move(*spec))
                  : spec.status();
    c->CountOp(added.ok());
    shard->manager().WaitAll();
    const auto probe = shard->probes().Find(plan.name);
    if (added.ok() && probe != nullptr &&
        probe->live_trials.load() == plan.crash_after + 1) {
      config = probe->last_live_config->ToString();
    }
  }
  if (config.empty()) c->Problem("shard-recover: reference run failed");
  shard.reset();
  RemoveTree(dir);
  return config;
}

/// Decodes every journal of `dir` once (record::ReplayJournal) and checks
/// each stops at trial N without a finish event.
void DecodeJournals(const std::string& dir, const std::vector<Plan>& plans,
                    Collector* c) {
  Collector scratch;
  ProbeRegistry probes(&scratch);
  for (const Plan& plan : plans) {
    auto spec = MakeSpec(plan.keys, &probes, "");
    if (!spec.ok()) continue;
    const auto env = spec->make_environment();
    autotune::Result<autotune::record::JournalReplay> replay =
        autotune::Status::Internal("unset");
    {
      BenchSpan span("record.replay");
      const int64_t begin = NowNs();
      replay = autotune::record::ReplayJournal(dir + "/" + plan.name + ".jsonl",
                                               &env->space());
      c->Add("decode_s", NsToS(NowNs() - begin));
    }
    c->CountOp(replay.ok());
    if (!replay.ok() || replay->finished ||
        static_cast<int>(replay->observations.size()) != plan.crash_after) {
      c->Problem("shard-recover: journal of " + plan.name +
                 " does not stop at trial N");
    }
  }
}

/// One restart of a shard over `dir`, first put back into the `crashed`
/// state.
void RunEpisode(const std::string& dir, const DirSnapshot& crashed,
                const std::vector<Plan>& plans, const std::string& reference,
                Collector* c, EndToEnd* e2e) {
  if (!crashed.Restore()) {
    c->Problem("shard-recover: cannot restore the crashed directory");
    return;
  }
  ResetPeakRss();
  const int64_t start = NowNs();
  autotune::kb::KnowledgeStore store;
  {
    BenchSpan span("kb.scan");
    const auto scanned = store.ScanDirectory(dir);
    c->Add("kb_scan_s", NsToS(NowNs() - start));
    c->CountOp(scanned.ok());
    if (scanned.ok()) c->Add("kb_ingested", scanned->ingested);
  }
  std::string error;
  auto shard =
      Shard::Start(Shard::Config{dir, true, true, true, &store}, c, &error);
  if (shard == nullptr) {
    c->Problem("shard-recover: " + error);
    return;
  }
  auto scraper = std::make_unique<OpenLoopClient>(
      shard->port(), ScrapeSchedule(NowNs(), kScrapePeriodMs, 150.0, false), c,
      nullptr);
  // RecoverAll admits tenants one by one while the pool already runs the
  // admitted ones, so it gets its own thread and this one watches tenants.
  autotune::Result<int> adopted = 0;
  std::thread recover([&shard, &adopted, c] {
    BenchSpan span("service.control_plane.recover_all");
    const int64_t begin = NowNs();
    adopted = shard->control()->RecoverAll();
    c->Add("recover_all_s", NsToS(NowNs() - begin));
  });

  // Wait for every tenant to turn terminal; the probes stamped its first
  // and last live trials exactly (it turns terminal right after the last).
  std::vector<bool> done(plans.size(), false);
  int64_t last_first = start;
  int64_t last_end = start;
  const int64_t deadline = start + 60 * 1000000000LL;
  int64_t next_sample = start;
  for (size_t finished = 0; finished < plans.size();) {
    for (size_t i = 0; i < plans.size(); ++i) {
      if (done[i]) continue;
      const auto st = shard->manager().StatusOf(plans[i].name);
      if (!st.ok() || !Terminal(st->state)) continue;
      done[i] = true;
      ++finished;
      const auto probe = shard->probes().Find(plans[i].name);
      if (st->state != ExperimentState::kFinished || probe == nullptr ||
          st->replayed_trials != plans[i].crash_after ||
          st->trials_run != plans[i].crash_after + kLiveTrials) {
        c->Problem("shard-recover: " + plans[i].name + " replayed " +
                   std::to_string(st->replayed_trials) + " and ran " +
                   std::to_string(st->trials_run) + " trials (" +
                   autotune::service::ExperimentStateName(st->state) + ")");
        continue;
      }
      const int64_t first = probe->first_live_ns.load();
      const int64_t last = probe->last_live_ns.load();
      c->Add("first_trial_ms", NsToMs(first - start));
      c->Add("first_live_ms", NsToMs(first - start));
      c->Add("session_ms", NsToMs(last - start));
      last_first = std::max(last_first, first);
      last_end = std::max(last_end, last);
      e2e->trials += probe->live_trials.load();
      // The tenant's incumbent over its whole journal (all tenants tune
      // simdb's latency_p99_ms): what the recovered fleet has found.
      if (st->best_objective.has_value()) c->NoteSimdbP99(*st->best_objective);
    }
    const int64_t now = NowNs();
    if (now >= next_sample) {
      {
        BenchSpan span("service.manager.snapshot");
        (void)shard->manager().Snapshot();
      }
      c->Add("snapshot_ms", NsToMs(NowNs() - now));
      c->Add("queue_depth",
             static_cast<double>(shard->pool().GetStats().queue_depth));
      next_sample += kSampleMs * 1000000LL;
    }
    if (now > deadline) {
      c->Problem("shard-recover: tenants still recovering at the deadline");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  e2e->measured_s += NsToS(last_end - start);
  recover.join();
  c->CountOp(adopted.ok() && *adopted == static_cast<int>(plans.size()));
  c->Add("recover_s", NsToS(last_first - start));

  // The bit-exact resume contract: the first live config of the recovered
  // GP-BO tenant is trial N+1 of the uninterrupted reference run.
  const auto bo = shard->probes().Find(plans[kLongTenants].name);
  if (bo == nullptr || !bo->first_live_config.has_value() ||
      bo->first_live_config->ToString() != reference) {
    c->Problem("shard-recover: recovered GP-BO tenant diverged from the "
               "uninterrupted reference run");
  }
  c->Add("late_ms", scraper->late_max_ms());
  if (scraper->late_max_ms() > kMaxGeneratorLateMs) {
    c->Problem("shard-recover: scraper fell behind");
  }
  scraper.reset();
  shard.reset();
  c->Add("peak_rss_mb", PeakRssMb());
}

EndToEnd RunPhase(const RunArgs& args, const std::string& dir,
                  const DirSnapshot& crashed, const std::vector<Plan>& plans,
                  const std::string& reference, Collector* c) {
  EndToEnd e2e;
  e2e.trial_series = "trial_window_ms";
  const int64_t start = NowNs();
  while (NowNs() - start < args.seconds * 1000000000LL) {
    RunEpisode(dir, crashed, plans, reference, c, &e2e);
    if (!c->problems().empty()) break;
  }
  return e2e;
}

}  // namespace

void RunShardRecover(const RunArgs& args, Output* out) {
  // Set-up trials run through the same decorators; keep them out of the
  // measured phase's samples.
  Collector setup;
  Collector c;
  const std::vector<Plan> plans = PlanTenants(args.seed);
  const std::string crashed = args.work_dir + "/shard-recover-crashed";
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    RemoveTree(crashed);  // The previous set-up's directory is not set-up.
    const int64_t begin = NowNs();
    const bool built = BuildCrashedDir(crashed, plans, &setup);
    c.Add("setup_s", NsToS(NowNs() - begin));
    if (!built) {
      out->Absorb(setup);
      return;
    }
  }
  const std::string reference = ReferenceConfig(
      plans[kLongTenants], args.work_dir + "/shard-recover-reference", &setup);
  out->Absorb(setup);
  int64_t journal_trials = 0;
  for (const Plan& plan : plans) journal_trials += plan.crash_after;
  const int64_t journal_bytes = DirBytes(crashed, ".jsonl");
  const DirSnapshot snapshot = DirSnapshot::Take(crashed);

  if (!args.trace) {
    DecodeJournals(crashed, plans, &c);
    const EndToEnd e2e =
        RunPhase(args, crashed, snapshot, plans, reference, &c);
    EmitEndToEnd(c, e2e, out);
    out->Absorb(c);
    RemoveTree(crashed);
    return;
  }

  RunPhase(args, crashed, snapshot, plans, reference, &c);
  Collector traced;
  Layers layers;
  layers.loop_self_series = "window_self_ms";
  layers.trial_series = "trial_window_ms";
  layers.untraced = &c;
  layers.before = RegistryMark::Now();
  TraceCapture capture;
  if (!snapshot.Restore()) traced.Problem("shard-recover: restore failed");
  DecodeJournals(crashed, plans, &traced);
  RunPhase(args, crashed, snapshot, plans, reference, &traced);
  layers.self_s =
      capture.Finish(args.out_dir + "/trace-shard-recover.json", out);
  layers.after = RegistryMark::Now();
  layers.journal_bytes = journal_bytes;
  layers.journal_trials = journal_trials;
  layers.primary_untraced = Summarize(c.Series("recover_s")).p50;
  layers.primary_traced = Summarize(traced.Series("recover_s")).p50;
  EmitLayers(traced, layers, out);
  out->Absorb(c);
  out->Absorb(traced);
  RemoveTree(crashed);
}

}  // namespace perfbench
