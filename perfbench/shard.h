#ifndef PERFBENCH_SHARD_H_
#define PERFBENCH_SHARD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "kb/knowledge_store.h"
#include "probes.h"
#include "service/control_plane.h"
#include "service/experiment_manager.h"
#include "service/fleet.h"
#include "service/http_server.h"

namespace perfbench {

/// Builds an `ExperimentSpec` from spec keys (the `POST /experiments`
/// vocabulary, a subset of the CLI's): name, env (simdb|redis|nginx),
/// workload (simdb), optimizer (random|bo), trials, seed. The
/// environment and optimizer are wrapped in the timing decorators, sharing
/// the tenant's probe from `probes`. Environments are deterministic.
autotune::Result<autotune::service::ExperimentSpec> MakeSpec(
    const std::map<std::string, std::string>& keys, ProbeRegistry* probes,
    const std::string& journal_dir);

/// The JSON object body of `POST /experiments` for spec `keys`.
std::string SpecBody(const std::map<std::string, std::string>& keys);

/// One in-process tuning shard wired the way `autotune_cli serve` wires it:
/// a 2-worker `ThreadPool`, an `ExperimentManager`, optionally a
/// `ControlPlane` on a journal directory, a `FleetMonitor` at its default
/// tick, and an `HttpServer` on loopback serving `MakeServiceHandler`
/// through a timing wrapper.
class Shard {
 public:
  static constexpr size_t kWorkers = 2;

  struct Config {
    /// Control-plane directory; empty runs without a control plane.
    std::string journal_dir;
    bool control_tick = true;
    bool monitor = true;
    bool http = true;
    const autotune::kb::KnowledgeStore* store = nullptr;
  };

  /// Starts every component; nullptr (with `*error` set) on failure.
  static std::unique_ptr<Shard> Start(const Config& config,
                                      Collector* collector,
                                      std::string* error);
  /// Stops the server, monitor and control plane, then drains the manager.
  ~Shard();

  autotune::service::ExperimentManager& manager() { return manager_; }
  autotune::service::ControlPlane* control() { return control_.get(); }
  autotune::ThreadPool& pool() { return pool_; }
  ProbeRegistry& probes() { return probes_; }
  int port() const;

 private:
  explicit Shard(Collector* collector);

  // Declaration order is teardown order reversed: the server goes first,
  // the pool last.
  autotune::ThreadPool pool_;
  ProbeRegistry probes_;
  autotune::service::ExperimentManager manager_;
  std::unique_ptr<autotune::service::ControlPlane> control_;
  std::unique_ptr<autotune::service::FleetMonitor> monitor_;
  std::unique_ptr<autotune::service::HttpServer> server_;
};

/// One scheduled request of an open-loop client.
struct Request {
  int64_t due_ns = 0;  ///< Absolute steady-clock time it is due.
  bool post = false;   ///< POST /experiments, else a scrape GET.
  std::string target;  ///< Path, e.g. "/metrics".
  std::string body;
  int tenant = -1;  ///< Index into the workload's tenant list (POSTs).
};

/// Open-loop request generator on one thread: opens each request's
/// connection when it is due, with any number of earlier requests still
/// outstanding (non-blocking sockets, one poll loop), so a slow reply never
/// delays later sends; lateness measures only the generator itself. It
/// polls without blocking while a reply is outstanding and for the last
/// millisecond before a request is due, so its own wake-ups stay out of the
/// timings; otherwise it sleeps. Each request is timed from its due time.
/// Records per request: "scrape_ms" / "post_ms" (due -> reply) and
/// "accept_wait_ms" (connect -> reply minus the handler's own time), and
/// counts non-2xx replies and transport errors as failed operations.
class OpenLoopClient {
 public:
  using ReplyFn = std::function<void(const Request&, int status,
                                     int64_t reply_ns)>;

  OpenLoopClient(int port, std::vector<Request> schedule, Collector* collector,
                 ReplyFn on_reply);
  /// Stops (requests not yet answered are abandoned) and joins.
  ~OpenLoopClient();

  /// Waits until every scheduled request has been answered.
  void Join();
  /// Largest delay between a request's due time and its send time.
  double late_max_ms() const { return NsToMs(late_max_ns_.load()); }
  /// Requests answered (or failed) so far.
  int64_t completed() const { return completed_.load(); }

 private:
  void Loop();

  const int port_;
  const std::vector<Request> schedule_;
  Collector* collector_;
  ReplyFn on_reply_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> late_max_ns_{0};
  std::atomic<int64_t> completed_{0};
  std::thread thread_;
};

/// A `GET /metrics` (a Prometheus scraper) every `period_ms` from
/// `start_ns` for up to `horizon_s`; with `dashboard`, every fourth one is a
/// `GET /statusz` (an operator's dashboard) instead. The dashboard render is
/// the slower mode, so a 3:1 mix keeps the median inside the /metrics mode
/// and the tail inside the /statusz one rather than straddling the two.
std::vector<Request> ScrapeSchedule(int64_t start_ns, int period_ms,
                                    double horizon_s, bool dashboard);

/// Returns freed heap to the system and resets the kernel's peak-RSS mark
/// (VmHWM), so `PeakRssMb` covers one measured unit, not what ran before it.
void ResetPeakRss();
/// Peak resident set size since the last `ResetPeakRss`, in MiB.
double PeakRssMb();

/// Total size of the regular files in `dir` whose name ends in `suffix`.
int64_t DirBytes(const std::string& dir, const std::string& suffix);

/// `mkdir -p` and `rm -rf`.
bool MakeDirs(const std::string& dir);
void RemoveTree(const std::string& path);

/// The state of a flat journal directory, restorable without copying the
/// journals: journals (append-only) are truncated back to their sizes,
/// every other file is rewritten, and files created since are removed.
class DirSnapshot {
 public:
  static DirSnapshot Take(const std::string& dir);
  [[nodiscard]] bool Restore() const;

 private:
  std::string dir_;
  std::map<std::string, uintmax_t> journal_sizes_;
  std::map<std::string, std::string> files_;
};

/// Regular files in `dir` whose name ends in `suffix`, sorted.
std::vector<std::string> ListFiles(const std::string& dir,
                                   const std::string& suffix);

}  // namespace perfbench

#endif  // PERFBENCH_SHARD_H_
