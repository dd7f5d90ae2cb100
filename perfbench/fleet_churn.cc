// fleet-churn: an open-loop stream of short tenants through one shard.
// Tenants arrive at kTenantsPerSecond as real POST /experiments requests
// (each a kBudget-trial random search on one of simdb's workloads); the
// same generator thread scrapes /metrics and /statusz every
// kScrapePeriodMs. The main thread waits for tenants to turn terminal and
// samples the manager and the pool. After the stream, the shard is
// restarted kRestarts times over the journal directory it wrote
// (RecoverAll reads every finished journal back).
//
// The rate keeps the pool about a fifth busy: at higher rates queueing
// amplified this 4-vCPU VM's scheduling noise until the latency metrics
// swung by more than their bounds from run to run. Every tenant tunes
// simdb: redis and nginx sessions take about half as long, and with them in
// the mix the session median sat on the edge between the two clusters and
// moved by up to a third between sets of runs. The main thread takes the
// manager's mutex when it polls and samples, so it does both sparingly.

#include <thread>

#include "common/rng.h"
#include "shard.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTenantsPerSecond = 5.0;
constexpr int kBudget = 200;
constexpr int kWarmupTenants = 5;
constexpr int kSetups = 9;
constexpr int kRestarts = 9;
constexpr int kPollMs = 50;
constexpr int kSampleMs = 250;
constexpr const char* kEnvs[][2] = {{"simdb", "tpcc"},   {"simdb", "ycsb-a"},
                                    {"simdb", "webapp"}};

struct TenantState {
  std::string name;
  std::string body;
  int64_t due_ns = 0;
  /// HTTP status of the POST; -1 until answered, 0 on a transport error.
  std::atomic<int> reply_status{-1};
  bool done = false;
};

std::vector<std::unique_ptr<TenantState>> PlanTenants(uint64_t seed,
                                                      int seconds) {
  autotune::Rng rng(seed);
  std::vector<std::unique_ptr<TenantState>> tenants;
  const int count = static_cast<int>(kTenantsPerSecond * seconds);
  // Every environment gets the same share of tenants; the seed decides the
  // arrival order and each tenant's own seed.
  std::vector<size_t> envs;
  for (int i = 0; i < count; ++i) envs.push_back(i % std::size(kEnvs));
  rng.Shuffle(&envs);
  for (int i = 0; i < count; ++i) {
    const auto& env = kEnvs[envs[i]];
    std::map<std::string, std::string> keys = {
        {"name", "t" + std::to_string(i)},
        {"env", env[0]},
        {"optimizer", "random"},
        {"trials", std::to_string(kBudget)},
        {"seed", std::to_string(rng.NextUint64() % 1000000007ULL)}};
    if (env[1][0] != '\0') keys["workload"] = env[1];
    auto tenant = std::make_unique<TenantState>();
    tenant->name = keys["name"];
    tenant->body = SpecBody(keys);
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

struct PhaseResult {
  EndToEnd e2e;
  int64_t journal_bytes = 0;
};

/// Streams the tenants through `shard` (started on `dir`), then restarts
/// the shard over `dir`. Consumes the shard.
PhaseResult RunPhase(const RunArgs& args, std::unique_ptr<Shard> shard,
                     const std::string& dir,
                     std::vector<std::unique_ptr<TenantState>> tenants,
                     Collector* c) {
  PhaseResult phase;
  phase.e2e.trial_series = "trial_window_ms";
  ResetPeakRss();
  const int64_t start = NowNs() + 20000000;
  std::vector<Request> schedule =
      ScrapeSchedule(start, kScrapePeriodMs, args.seconds, true);
  for (size_t i = 0; i < tenants.size(); ++i) {
    Request request;
    // Arrivals fall halfway between scrapes, so no POST is due at the same
    // instant as a scrape by construction.
    request.due_ns = start + kScrapePeriodMs * 1000000LL / 2 +
                     static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                          kTenantsPerSecond);
    request.post = true;
    request.target = "/experiments";
    request.body = tenants[i]->body;
    request.tenant = static_cast<int>(i);
    tenants[i]->due_ns = request.due_ns;
    schedule.push_back(std::move(request));
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_ns < b.due_ns;
                   });
  const int64_t total_requests = static_cast<int64_t>(schedule.size());
  OpenLoopClient client(
      shard->port(), std::move(schedule), c,
      [&tenants](const Request& request, int status, int64_t) {
        if (request.post) tenants[request.tenant]->reply_status.store(status);
      });

  autotune::service::ExperimentManager& manager = shard->manager();
  const int64_t deadline = start + (args.seconds + 60) * 1000000000LL;
  int64_t next_sample = start;
  int64_t last_end = start;
  int admitted = 0;
  for (;;) {
    const bool all_answered = client.completed() == total_requests;
    bool pending = false;
    for (auto& tenant : tenants) {
      if (tenant->done) continue;
      const int status = tenant->reply_status.load();
      if (status < 0) {
        pending = true;
        continue;
      }
      if (status < 200 || status >= 300) {
        tenant->done = true;  // Counted as failed by the client.
        continue;
      }
      const auto st = manager.StatusOf(tenant->name);
      using autotune::service::ExperimentState;
      if (!st.ok() || st->state == ExperimentState::kRunning ||
          st->state == ExperimentState::kPaused) {
        pending = true;
        continue;
      }
      // Terminal. Its first and last trials were stamped exactly by the
      // probe; the tenant turned terminal right after the last one.
      tenant->done = true;
      ++admitted;
      const auto probe = shard->probes().Find(tenant->name);
      const int64_t live = probe == nullptr ? 0 : probe->live_trials.load();
      if (st->state != ExperimentState::kFinished ||
          st->trials_run != kBudget || live != kBudget) {
        c->Problem("fleet-churn: " + tenant->name + " ended " +
                   autotune::service::ExperimentStateName(st->state) +
                   " after " + std::to_string(st->trials_run) + " trials");
        continue;
      }
      c->Add("first_trial_ms",
             NsToMs(probe->first_live_ns.load() - tenant->due_ns));
      const int64_t last = probe->last_live_ns.load();
      c->Add("session_ms", NsToMs(last - tenant->due_ns));
      last_end = std::max(last_end, last);
      phase.e2e.trials += live;
    }
    const int64_t now = NowNs();
    if (now >= next_sample) {
      const int64_t begin = NowNs();
      {
        BenchSpan span("service.manager.snapshot");
        (void)manager.Snapshot();
      }
      c->Add("snapshot_ms", NsToMs(NowNs() - begin));
      c->Add("queue_depth",
             static_cast<double>(shard->pool().GetStats().queue_depth));
      next_sample += kSampleMs * 1000000LL;
    }
    if (all_answered && !pending) break;
    if (now > deadline) {
      c->Problem("fleet-churn: tenants still running at the deadline");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
  }
  client.Join();
  phase.e2e.measured_s = NsToS(last_end - start);
  c->Add("late_ms", client.late_max_ms());
  if (client.late_max_ms() > kMaxGeneratorLateMs) {
    c->Problem("fleet-churn: generator fell behind (run invalid)");
  }
  c->Add("peak_rss_mb", PeakRssMb());
  shard.reset();
  phase.journal_bytes = DirBytes(dir, ".jsonl");

  // Restart the shard over the journal directory it left behind.
  for (int i = 0; i < kRestarts; ++i) {
    // Each restart starts from a trimmed heap, not from whatever the stream
    // or the previous restart left fragmented.
    ResetPeakRss();
    const int64_t begin = NowNs();
    std::string error;
    auto restarted =
        Shard::Start(Shard::Config{dir, false, false, false, nullptr}, c,
                     &error);
    if (restarted == nullptr) {
      c->Problem("fleet-churn: restart: " + error);
      break;
    }
    autotune::Result<int> adopted = 0;
    {
      BenchSpan span("service.control_plane.recover_all");
      const int64_t recover_begin = NowNs();
      adopted = restarted->control()->RecoverAll();
      c->Add("recover_all_s", NsToS(NowNs() - recover_begin));
    }
    c->CountOp(adopted.ok());
    c->Add("recover_s", NsToS(NowNs() - begin));
    if (!adopted.ok() || *adopted != admitted + kWarmupTenants) {
      c->Problem("fleet-churn: restart adopted " +
                 (adopted.ok() ? std::to_string(*adopted)
                               : adopted.status().ToString()) +
                 " of " + std::to_string(admitted) + " tenants");
    }
  }
  RemoveTree(dir);
  return phase;
}

/// Set-up: starts a shard on `dir` (absent or empty) and warms it up with
/// kWarmupTenants tenants admitted through the control plane and run to
/// completion; their samples go to `setup`, everything after to `phase`.
std::unique_ptr<Shard> StartShard(const std::string& dir, Collector* setup,
                                  Collector* phase) {
  MakeDirs(dir);
  std::string error;
  auto shard = Shard::Start(Shard::Config{dir, true, true, true, nullptr},
                            setup, &error);
  if (shard == nullptr) {
    phase->Problem("fleet-churn: " + error);
    return nullptr;
  }
  for (int i = 0; i < kWarmupTenants; ++i) {
    const auto& env = kEnvs[i % std::size(kEnvs)];
    std::map<std::string, std::string> keys = {
        {"name", "warmup" + std::to_string(i)},
        {"env", env[0]},
        {"optimizer", "random"},
        {"trials", std::to_string(kBudget)},
        {"seed", std::to_string(i + 1)}};
    if (env[1][0] != '\0') keys["workload"] = env[1];
    const autotune::Status admitted = shard->control()->Admit(SpecBody(keys));
    setup->CountOp(admitted.ok());
  }
  shard->manager().WaitAll();
  shard->probes().set_collector(phase);
  return shard;
}

}  // namespace

void RunFleetChurn(const RunArgs& args, Output* out) {
  Collector setup;
  Collector c;
  const std::string dir = args.work_dir + "/fleet-churn";
  if (!args.trace) {
    // Repeated for a stable median; the last shard is kept.
    std::unique_ptr<Shard> shard;
    std::vector<std::unique_ptr<TenantState>> tenants;
    for (int i = 0; i < kSetups; ++i) {
      shard.reset();
      RemoveTree(dir);  // The previous set-up's leftovers are not set-up.
      const int64_t begin = NowNs();
      shard = StartShard(dir, &setup, &c);
      tenants = PlanTenants(args.seed, args.seconds);
      c.Add("setup_s", NsToS(NowNs() - begin));
      if (shard == nullptr) break;
    }
    if (shard != nullptr) {
      const PhaseResult phase =
          RunPhase(args, std::move(shard), dir, std::move(tenants), &c);
      EmitEndToEnd(c, phase.e2e, out);
    }
    out->Absorb(setup);
    out->Absorb(c);
    return;
  }

  auto shard = StartShard(dir, &setup, &c);
  if (shard == nullptr) {
    out->Absorb(c);
    return;
  }
  RunPhase(args, std::move(shard), dir, PlanTenants(args.seed, args.seconds),
           &c);
  Collector traced;
  Layers layers;
  layers.loop_self_series = "window_self_ms";
  layers.trial_series = "trial_window_ms";
  layers.untraced = &c;
  shard = StartShard(dir, &setup, &traced);
  out->Absorb(setup);
  if (shard == nullptr) {
    out->Absorb(traced);
    return;
  }
  layers.before = RegistryMark::Now();
  TraceCapture capture;
  const PhaseResult phase =
      RunPhase(args, std::move(shard), dir,
               PlanTenants(args.seed, args.seconds), &traced);
  layers.self_s = capture.Finish(args.out_dir + "/trace-fleet-churn.json", out);
  layers.after = RegistryMark::Now();
  layers.journal_bytes = phase.journal_bytes;
  layers.journal_trials = phase.e2e.trials;
  layers.primary_untraced = Summarize(c.Series("session_ms")).p50;
  layers.primary_traced = Summarize(traced.Series("session_ms")).p50;
  EmitLayers(traced, layers, out);
  out->Absorb(c);
  out->Absorb(traced);
}

}  // namespace perfbench
