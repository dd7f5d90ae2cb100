#include "probes.h"

#include <algorithm>

namespace perfbench {
namespace {

std::atomic<bool> g_bench_tracing{false};

}  // namespace

int64_t NowNs() { return autotune::obs::TraceBuffer::NowOnSpanClockNs(); }

void SetBenchTracing(bool on) { g_bench_tracing.store(on); }
bool BenchTracing() { return g_bench_tracing.load(std::memory_order_relaxed); }

// ---- Collector -------------------------------------------------------------

void Collector::Add(const std::string& series, double value) {
  autotune::MutexLock lock(mu_);
  series_[series].push_back(value);
}

std::vector<double> Collector::Series(const std::string& series) const {
  autotune::MutexLock lock(mu_);
  auto it = series_.find(series);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

size_t Collector::Count(const std::string& series) const {
  autotune::MutexLock lock(mu_);
  auto it = series_.find(series);
  return it == series_.end() ? 0 : it->second.size();
}

void Collector::CountOp(bool ok) {
  autotune::MutexLock lock(mu_);
  ++attempted_;
  if (!ok) ++failed_;
}

int64_t Collector::attempted() const {
  autotune::MutexLock lock(mu_);
  return attempted_;
}

int64_t Collector::failed() const {
  autotune::MutexLock lock(mu_);
  return failed_;
}

void Collector::NoteSimdbP99(double value) {
  autotune::MutexLock lock(mu_);
  best_simdb_p99_ = std::min(best_simdb_p99_, value);
}

double Collector::best_simdb_p99() const {
  autotune::MutexLock lock(mu_);
  return best_simdb_p99_;
}

void Collector::Problem(const std::string& what) {
  autotune::MutexLock lock(mu_);
  if (problems_.size() < 20) problems_.push_back(what);
}

std::vector<std::string> Collector::problems() const {
  autotune::MutexLock lock(mu_);
  return problems_;
}

void Collector::NoteHandler(int64_t id, bool post, double ms) {
  autotune::MutexLock lock(mu_);
  handler_ms_[id] = ms;
  series_[post ? "post_handler_ms" : "scrape_handler_ms"].push_back(ms);
}

std::optional<double> Collector::HandlerMs(int64_t id) const {
  autotune::MutexLock lock(mu_);
  auto it = handler_ms_.find(id);
  if (it == handler_ms_.end()) return std::nullopt;
  return it->second;
}

// ---- TenantProbe -----------------------------------------------------------

void TenantProbe::OnRunStart(int64_t start_ns) {
  if (last_run_end_ns > 0) {
    // Scheduler/loop/journal time between two runs of this tenant, with its
    // own optimizer calls taken out.
    const int64_t gap = start_ns - last_run_end_ns -
                        (optimizer_ns - optimizer_ns_at_run_end);
    collector->Add("trial_gap_ms", NsToMs(gap));
  }
}

void TenantProbe::OnRunEnd(int64_t start_ns, int64_t end_ns,
                           const autotune::Configuration& config) {
  env_ns += end_ns - start_ns;
  collector->Add("env_ms", NsToMs(end_ns - start_ns));
  last_run_end_ns = end_ns;
  optimizer_ns_at_run_end = optimizer_ns;
  ++runs_since_observe;
  last_live_config = config;
}

void TenantProbe::OnOptimizerCall(const char* series, int64_t start_ns,
                                  int64_t end_ns, bool ok) {
  optimizer_ns += end_ns - start_ns;
  collector->Add(series, NsToMs(end_ns - start_ns));
  collector->CountOp(ok);
}

void TenantProbe::OnSuggestStart(int64_t start_ns) {
  suggest_start_ns = start_ns;
  optimizer_ns_at_suggest = optimizer_ns;
  env_ns_at_suggest = env_ns;
}

void TenantProbe::OnObserveEnd(int64_t end_ns) {
  if (runs_since_observe == 0) return;  // Journal replay: no live trial.
  runs_since_observe = 0;
  const int64_t window = end_ns - suggest_start_ns;
  collector->Add("trial_window_ms", NsToMs(window));
  collector->Add("window_self_ms",
                 NsToMs(window - (optimizer_ns - optimizer_ns_at_suggest) -
                        (env_ns - env_ns_at_suggest)));
  if (first_live_ns.load(std::memory_order_relaxed) == 0) {
    first_live_config = last_live_config;
    first_live_ns.store(end_ns, std::memory_order_release);
  }
  last_live_ns.store(end_ns, std::memory_order_release);
  const int64_t live = live_trials.fetch_add(1) + 1;
  if (on_live_trial) on_live_trial(live);
}

// ---- ProbeRegistry ---------------------------------------------------------

std::shared_ptr<TenantProbe> ProbeRegistry::Get(const std::string& name) {
  autotune::MutexLock lock(mu_);
  std::shared_ptr<TenantProbe>& probe = probes_[name];
  if (probe == nullptr) {
    probe = std::make_shared<TenantProbe>(collector_);
    if (live_hook) {
      probe->on_live_trial = [hook = live_hook, name](int64_t live) {
        hook(name, live);
      };
    }
  }
  return probe;
}

void ProbeRegistry::set_collector(Collector* collector) {
  autotune::MutexLock lock(mu_);
  collector_ = collector;
}

Collector* ProbeRegistry::collector() const {
  autotune::MutexLock lock(mu_);
  return collector_;
}

std::shared_ptr<TenantProbe> ProbeRegistry::Find(
    const std::string& name) const {
  autotune::MutexLock lock(mu_);
  auto it = probes_.find(name);
  return it == probes_.end() ? nullptr : it->second;
}

// ---- TimedEnvironment ------------------------------------------------------

TimedEnvironment::TimedEnvironment(
    std::unique_ptr<autotune::Environment> inner,
    std::shared_ptr<TenantProbe> probe)
    : TimedEnvironment(inner.get(), std::move(probe)) {
  owned_ = std::move(inner);
}

TimedEnvironment::TimedEnvironment(autotune::Environment* inner,
                                   std::shared_ptr<TenantProbe> probe)
    : inner_(inner),
      probe_(std::move(probe)),
      simdb_p99_(inner_->name().rfind("simdb", 0) == 0 &&
                 inner_->objective_metric() == "latency_p99_ms") {}

autotune::BenchmarkResult TimedEnvironment::Run(
    const autotune::Configuration& config, double fidelity,
    autotune::Rng* rng) {
  BenchSpan span("env.run");
  const int64_t start = NowNs();
  probe_->OnRunStart(start);
  autotune::BenchmarkResult result = inner_->Run(config, fidelity, rng);
  probe_->OnRunEnd(start, NowNs(), config);
  if (simdb_p99_ && !result.crashed && !result.hung) {
    auto it = result.metrics.find("latency_p99_ms");
    if (it != result.metrics.end()) probe_->collector->NoteSimdbP99(it->second);
  }
  return result;
}

// ---- TimedOptimizer --------------------------------------------------------

TimedOptimizer::TimedOptimizer(std::unique_ptr<autotune::Optimizer> inner,
                               std::shared_ptr<TenantProbe> probe)
    : inner_(std::move(inner)),
      introspection_(
          dynamic_cast<autotune::OptimizerIntrospection*>(inner_.get())),
      probe_(std::move(probe)) {}

autotune::Result<autotune::Configuration> TimedOptimizer::Suggest() {
  BenchSpan span("optimizers.suggest");
  const int64_t start = NowNs();
  probe_->OnSuggestStart(start);
  autotune::Result<autotune::Configuration> result = inner_->Suggest();
  probe_->OnOptimizerCall("suggest_ms", start, NowNs(), result.ok());
  return result;
}

autotune::Result<std::vector<autotune::Configuration>>
TimedOptimizer::SuggestBatch(size_t k) {
  BenchSpan span("optimizers.suggest");
  const int64_t start = NowNs();
  probe_->OnSuggestStart(start);
  autotune::Result<std::vector<autotune::Configuration>> result =
      inner_->SuggestBatch(k);
  probe_->OnOptimizerCall("suggest_ms", start, NowNs(), result.ok());
  return result;
}

autotune::Status TimedOptimizer::Observe(
    const autotune::Observation& observation) {
  int64_t end = 0;
  autotune::Status status;
  {
    BenchSpan span("optimizers.observe");
    const int64_t start = NowNs();
    status = inner_->Observe(observation);
    end = NowNs();
    probe_->OnOptimizerCall("observe_ms", start, end, status.ok());
  }
  probe_->OnObserveEnd(end);
  return status;
}

autotune::Status TimedOptimizer::RestoreCheckpoint(
    const autotune::OptimizerCheckpoint& checkpoint,
    const std::vector<autotune::Observation>& history) {
  BenchSpan span("optimizers.restore");
  const int64_t start = NowNs();
  autotune::Status status = inner_->RestoreCheckpoint(checkpoint, history);
  probe_->OnOptimizerCall("restore_ms", start, NowNs(), status.ok());
  return status;
}

std::vector<autotune::DecisionRecord> TimedOptimizer::TakeDecisions() {
  if (introspection_ == nullptr) return {};
  std::vector<autotune::DecisionRecord> records =
      introspection_->TakeDecisions();
  const double n = static_cast<double>(inner_->num_observations());
  for (const autotune::DecisionRecord& record : records) {
    if (record.phase == "model" || record.phase == "fantasy_batch") {
      probe_->collector->Add(
          "predict_madds",
          static_cast<double>(record.candidates) * n * (n + 1.0) / 2.0);
    }
  }
  return records;
}

}  // namespace perfbench
