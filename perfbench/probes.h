#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/introspection.h"
#include "core/optimizer.h"
#include "env/environment.h"
#include "obs/trace.h"

namespace perfbench {

/// Steady-clock nanoseconds on the program's span timebase (the bench's
/// only clock, so its timestamps line up with the trace).
int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The bench's own spans are recorded only in the traced run; end-to-end
/// runs leave the program's trace setting at its default and add nothing.
void SetBenchTracing(bool on);
bool BenchTracing();

/// An `obs::Span` around one call into a layer, or nothing when bench
/// tracing is off. `name` must be a string literal.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) {
    if (BenchTracing()) span_.emplace(name);
  }

 private:
  std::optional<autotune::obs::Span> span_;
};

/// Thread-safe sink for the raw samples of one measured phase. Series are
/// plain vectors of doubles keyed by name; every percentile reported later
/// is computed from them exactly (stats.h).
class Collector {
 public:
  void Add(const std::string& series, double value);
  std::vector<double> Series(const std::string& series) const;
  size_t Count(const std::string& series) const;

  /// One attempted operation (request, Admit/Recover/Suggest/Observe call);
  /// `ok` false counts it as failed.
  void CountOp(bool ok);
  int64_t attempted() const;
  int64_t failed() const;

  /// Best (lowest) simdb `latency_p99_ms` any live trial reported.
  void NoteSimdbP99(double value);
  double best_simdb_p99() const;

  /// A failed output check; the run reports `correct: false`.
  void Problem(const std::string& what);
  std::vector<std::string> problems() const;

  /// HTTP handler time of request `id`, recorded by the handler wrapper and
  /// matched with the client's view of the same request.
  void NoteHandler(int64_t id, bool post, double ms);
  std::optional<double> HandlerMs(int64_t id) const;

 private:
  /// A leaf: held only around its own containers.
  mutable autotune::Mutex mu_{"perfbench.collector"};
  std::map<std::string, std::vector<double>> series_ GUARDED_BY(mu_);
  std::map<int64_t, double> handler_ms_ GUARDED_BY(mu_);
  int64_t attempted_ GUARDED_BY(mu_) = 0;
  int64_t failed_ GUARDED_BY(mu_) = 0;
  double best_simdb_p99_ GUARDED_BY(mu_) =
      std::numeric_limits<double>::infinity();
  std::vector<std::string> problems_ GUARDED_BY(mu_);
};

/// Per-tenant state shared by that tenant's environment and optimizer
/// decorators. The non-atomic fields are touched only by whichever thread
/// currently runs the tenant's loop (the manager hands tenants between
/// threads through its mutex, which orders the accesses).
struct TenantProbe {
  explicit TenantProbe(Collector* collector_in) : collector(collector_in) {}

  Collector* collector;
  /// Completion time of the first live (non-replayed) trial; 0 until then.
  std::atomic<int64_t> first_live_ns{0};
  /// Completion time of the latest live trial.
  std::atomic<int64_t> last_live_ns{0};
  std::atomic<int64_t> live_trials{0};
  /// Called after each live trial's Observe with the live-trial count.
  std::function<void(int64_t)> on_live_trial;

  /// Configuration of the first / latest live trial (print them while the
  /// tenant's environment, which owns the space, is alive).
  /// `first_live_config` is written before `first_live_ns` is published.
  std::optional<autotune::Configuration> first_live_config;
  std::optional<autotune::Configuration> last_live_config;

  /// Running totals of time inside the optimizer and the environment.
  int64_t optimizer_ns = 0;
  int64_t env_ns = 0;

  // Trial bookkeeping.
  int64_t suggest_start_ns = 0;
  int64_t optimizer_ns_at_suggest = 0;
  int64_t env_ns_at_suggest = 0;
  int64_t runs_since_observe = 0;
  int64_t last_run_end_ns = 0;
  int64_t optimizer_ns_at_run_end = 0;

  void OnRunStart(int64_t start_ns);
  void OnRunEnd(int64_t start_ns, int64_t end_ns,
                const autotune::Configuration& config);
  void OnOptimizerCall(const char* series, int64_t start_ns, int64_t end_ns,
                       bool ok);
  void OnSuggestStart(int64_t start_ns);
  /// Observe finished at `end_ns`: closes a live trial if the environment
  /// ran since the previous Observe (replayed trials never run it), adding
  /// "trial_window_ms" (Suggest start -> Observe end) and
  /// "window_self_ms" (that window minus optimizer and environment time:
  /// the loop's own work, journal appends included).
  void OnObserveEnd(int64_t end_ns);
};

/// Tenant name -> probe for one shard. Spec factories create probes; the
/// workload reads them.
class ProbeRegistry {
 public:
  explicit ProbeRegistry(Collector* collector) : collector_(collector) {}
  std::shared_ptr<TenantProbe> Get(const std::string& name);
  std::shared_ptr<TenantProbe> Find(const std::string& name) const;

  /// Where probes created from now on (and the shard's HTTP handler timer)
  /// record: lets a warm-up record apart from the measured phase.
  void set_collector(Collector* collector);
  Collector* collector() const;

  /// Installed on every probe created afterwards (setup uses it to stop a
  /// tenant after exactly N live trials).
  std::function<void(const std::string& name, int64_t live_trials)> live_hook;

 private:
  /// A leaf: probes are created outside every program lock.
  mutable autotune::Mutex mu_{"perfbench.probe_registry"};
  Collector* collector_ GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<TenantProbe>> probes_ GUARDED_BY(mu_);
};

/// Environment decorator: times every `Run` and records the best simdb
/// objective. Forwards every virtual unchanged.
class TimedEnvironment : public autotune::Environment {
 public:
  TimedEnvironment(std::unique_ptr<autotune::Environment> inner,
                   std::shared_ptr<TenantProbe> probe);
  /// Non-owning form: `inner` must outlive the decorator.
  TimedEnvironment(autotune::Environment* inner,
                   std::shared_ptr<TenantProbe> probe);

  std::string name() const override { return inner_->name(); }
  const autotune::ConfigSpace& space() const override {
    return inner_->space();
  }
  autotune::BenchmarkResult Run(const autotune::Configuration& config,
                                double fidelity, autotune::Rng* rng) override;
  std::string objective_metric() const override {
    return inner_->objective_metric();
  }
  bool minimize() const override { return inner_->minimize(); }
  double RunCost(double fidelity) const override {
    return inner_->RunCost(fidelity);
  }
  autotune::KnobScope knob_scope(const std::string& name) const override {
    return inner_->knob_scope(name);
  }
  double RestartCost() const override { return inner_->RestartCost(); }

 private:
  std::unique_ptr<autotune::Environment> owned_;
  autotune::Environment* inner_;
  std::shared_ptr<TenantProbe> probe_;
  bool simdb_p99_;
};

/// Optimizer decorator: times Suggest/SuggestBatch/Observe/RestoreCheckpoint
/// and forwards every virtual, including checkpointing and the
/// explainability queue, so the tuning loop behaves exactly as with the
/// bare optimizer. From the decision records it also derives the
/// computed (not measured) GP prediction work per model-based suggest:
/// candidates x n(n+1)/2 multiply-adds of triangular solves.
class TimedOptimizer : public autotune::Optimizer,
                       public autotune::OptimizerIntrospection {
 public:
  TimedOptimizer(std::unique_ptr<autotune::Optimizer> inner,
                 std::shared_ptr<TenantProbe> probe);

  std::string name() const override { return inner_->name(); }
  const autotune::ConfigSpace& space() const override {
    return inner_->space();
  }
  [[nodiscard]] autotune::Result<autotune::Configuration> Suggest() override;
  [[nodiscard]] autotune::Status Observe(
      const autotune::Observation& observation) override;
  [[nodiscard]] autotune::Result<std::vector<autotune::Configuration>>
  SuggestBatch(size_t k) override;
  const std::optional<autotune::Observation>& best() const override {
    return inner_->best();
  }
  size_t num_observations() const override {
    return inner_->num_observations();
  }
  [[nodiscard]] autotune::Result<autotune::OptimizerCheckpoint>
  SaveCheckpoint() const override {
    return inner_->SaveCheckpoint();
  }
  [[nodiscard]] autotune::Status RestoreCheckpoint(
      const autotune::OptimizerCheckpoint& checkpoint,
      const std::vector<autotune::Observation>& history) override;
  [[nodiscard]] std::vector<autotune::DecisionRecord> TakeDecisions()
      override;

 private:
  std::unique_ptr<autotune::Optimizer> inner_;
  autotune::OptimizerIntrospection* introspection_;
  std::shared_ptr<TenantProbe> probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
