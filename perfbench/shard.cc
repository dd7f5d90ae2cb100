#include "shard.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "env/workload.h"
#include "optimizers/bayesian.h"
#include "optimizers/random_search.h"
#include "service/endpoints.h"
#include "sim/db_env.h"
#include "sim/nginx_env.h"
#include "sim/redis_env.h"

namespace perfbench {

namespace fs = std::filesystem;
using autotune::Result;
using autotune::Status;
using autotune::service::ExperimentSpec;

namespace {

std::atomic<int64_t> g_next_request_id{1};

Result<std::unique_ptr<autotune::Environment>> MakeEnvironment(
    const std::string& env, const std::string& workload_name,
    uint64_t seed) {
  if (env == "simdb") {
    for (const auto& w : autotune::workload::StandardWorkloads()) {
      if (w.name != workload_name) continue;
      autotune::sim::DbEnvOptions options;
      options.workload = w;
      options.noise_seed = seed * 97;
      options.deterministic = true;
      return std::unique_ptr<autotune::Environment>(
          std::make_unique<autotune::sim::DbEnv>(options));
    }
    return Status::InvalidArgument("unknown workload '" + workload_name +
                                   "'");
  }
  if (env == "redis") {
    autotune::sim::RedisEnvOptions options;
    options.noise_seed = seed * 97;
    options.deterministic = true;
    return std::unique_ptr<autotune::Environment>(
        std::make_unique<autotune::sim::RedisEnv>(options));
  }
  if (env == "nginx") {
    autotune::sim::NginxEnvOptions options;
    options.noise_seed = seed * 97;
    options.deterministic = true;
    return std::unique_ptr<autotune::Environment>(
        std::make_unique<autotune::sim::NginxEnv>(options));
  }
  return Status::InvalidArgument("unknown env '" + env + "'");
}

autotune::service::HttpServer::Handler TimeHandler(
    autotune::service::HttpServer::Handler inner, ProbeRegistry* probes) {
  return [inner = std::move(inner), probes](
             const autotune::service::HttpRequest& request) {
    int64_t start = 0;
    int64_t end = 0;
    autotune::service::HttpResponse response;
    {
      BenchSpan span("service.http.handler");
      start = NowNs();
      response = inner(request);
      end = NowNs();
    }
    const auto params = request.QueryParams();
    auto it = params.find("bench_req");
    if (it != params.end()) {
      probes->collector()->NoteHandler(std::atoll(it->second.c_str()),
                             request.method == "POST", NsToMs(end - start));
    }
    return response;
  };
}

}  // namespace

Result<ExperimentSpec> MakeSpec(const std::map<std::string, std::string>& keys,
                                ProbeRegistry* probes,
                                const std::string& journal_dir) {
  std::string name;
  std::string env = "simdb";
  std::string workload_name = "tpcc";
  std::string optimizer = "random";
  int trials = 20;
  uint64_t seed = 42;
  for (const auto& [key, value] : keys) {
    if (key == "name") {
      name = value;
    } else if (key == "env") {
      env = value;
    } else if (key == "workload") {
      workload_name = value;
    } else if (key == "optimizer") {
      optimizer = value;
    } else if (key == "trials") {
      trials = std::atoi(value.c_str());
    } else if (key == "seed") {
      seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else {
      return Status::InvalidArgument("unknown spec key '" + key + "'");
    }
  }
  if (name.empty() || trials < 1) {
    return Status::InvalidArgument("spec needs a name and trials >= 1");
  }
  if (optimizer != "random" && optimizer != "bo") {
    return Status::InvalidArgument("unknown optimizer '" + optimizer + "'");
  }
  AUTOTUNE_RETURN_IF_ERROR(
      MakeEnvironment(env, workload_name, seed).status());

  ExperimentSpec spec;
  spec.name = name;
  spec.seed = seed;
  if (!journal_dir.empty()) {
    spec.journal_path = journal_dir + "/" + name + ".jsonl";
  }
  spec.make_environment = [probes, name, env, workload_name,
                           seed]() -> std::unique_ptr<autotune::Environment> {
    auto made = MakeEnvironment(env, workload_name, seed);
    if (!made.ok()) return nullptr;
    return std::make_unique<TimedEnvironment>(std::move(*made),
                                              probes->Get(name));
  };
  spec.make_optimizer =
      [probes, name, optimizer](const autotune::ConfigSpace* space,
                                uint64_t optimizer_seed)
      -> std::unique_ptr<autotune::Optimizer> {
    std::unique_ptr<autotune::Optimizer> inner;
    if (optimizer == "bo") {
      inner = autotune::MakeGpBo(space, optimizer_seed);
    } else {
      inner = std::make_unique<autotune::RandomSearch>(space, optimizer_seed);
    }
    return std::make_unique<TimedOptimizer>(std::move(inner),
                                            probes->Get(name));
  };
  spec.loop_options.max_trials = trials;
  return spec;
}

std::string SpecBody(const std::map<std::string, std::string>& keys) {
  autotune::obs::Json::Object body;
  for (const auto& [key, value] : keys) body[key] = autotune::obs::Json(value);
  return autotune::obs::Json(std::move(body)).Dump();
}

// ---- Shard -----------------------------------------------------------------

Shard::Shard(Collector* collector)
    : pool_(kWorkers), probes_(collector), manager_(&pool_) {}

std::unique_ptr<Shard> Shard::Start(const Config& config, Collector* collector,
                                    std::string* error) {
  std::unique_ptr<Shard> shard(new Shard(collector));
  if (!config.journal_dir.empty()) {
    autotune::service::ControlPlane::Options options;
    options.journal_dir = config.journal_dir;
    options.shard_id = "perfbench-shard";
    options.start_tick_thread = config.control_tick;
    ProbeRegistry* probes = &shard->probes_;
    auto started = autotune::service::ControlPlane::Start(
        &shard->manager_,
        [probes, dir = config.journal_dir](
            const std::map<std::string, std::string>& keys) {
          return MakeSpec(keys, probes, dir);
        },
        options);
    if (!started.ok()) {
      *error = "control plane: " + started.status().ToString();
      return nullptr;
    }
    shard->control_ = std::move(*started);
  }
  if (config.monitor) {
    shard->monitor_ = std::make_unique<autotune::service::FleetMonitor>(
        &shard->manager_, autotune::service::FleetMonitor::Options());
  }
  if (config.http) {
    auto server = autotune::service::HttpServer::Start(
        autotune::service::HttpServer::Options(),
        TimeHandler(autotune::service::MakeServiceHandler(
                        &shard->manager_, config.store, shard->control_.get(),
                        shard->monitor_.get()),
                    &shard->probes_));
    if (!server.ok()) {
      *error = "http server: " + server.status().ToString();
      return nullptr;
    }
    shard->server_ = std::move(*server);
    if (shard->control_ != nullptr) {
      shard->control_->AnnounceEndpoint("127.0.0.1", shard->server_->port());
    }
  }
  return shard;
}

Shard::~Shard() {
  server_.reset();
  monitor_.reset();
  control_.reset();
}

int Shard::port() const { return server_ == nullptr ? 0 : server_->port(); }

// ---- OpenLoopClient --------------------------------------------------------

namespace {

constexpr int64_t kRequestTimeoutNs = 10LL * 1000000000;
/// How long before a request is due the generator stops blocking.
constexpr int64_t kSpinAheadNs = 1000000;

/// One request on the wire.
struct InFlight {
  size_t index = 0;
  int fd = -1;
  int64_t id = 0;
  int64_t sent_ns = 0;
  bool connected = false;
  std::string out;
  size_t out_done = 0;
  std::string in;
};

/// Status code of a complete "HTTP/1.x NNN ..." reply, 0 if malformed.
int ReplyStatus(const std::string& reply) {
  const size_t space = reply.find(' ');
  if (reply.compare(0, 5, "HTTP/") != 0 || space == std::string::npos) return 0;
  return std::atoi(reply.c_str() + space + 1);
}

}  // namespace

OpenLoopClient::OpenLoopClient(int port, std::vector<Request> schedule,
                               Collector* collector, ReplyFn on_reply)
    : port_(port),
      schedule_(std::move(schedule)),
      collector_(collector),
      on_reply_(std::move(on_reply)),
      thread_([this] { Loop(); }) {}

OpenLoopClient::~OpenLoopClient() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void OpenLoopClient::Join() {
  if (thread_.joinable()) thread_.join();
}

void OpenLoopClient::Loop() {
  std::vector<InFlight> flights;
  size_t next = 0;
  // Finishes flight `f`: status 0 means a transport error or timeout.
  const auto complete = [this](const InFlight& f, int status) {
    ::close(f.fd);
    const Request& request = schedule_[f.index];
    const int64_t reply = NowNs();
    collector_->CountOp(status >= 200 && status < 300);
    collector_->Add(request.post ? "post_ms" : "scrape_ms",
                    NsToMs(reply - request.due_ns));
    if (const auto handler_ms = collector_->HandlerMs(f.id)) {
      collector_->Add("accept_wait_ms",
                      NsToMs(reply - f.sent_ns) - *handler_ms);
    }
    if (on_reply_) on_reply_(request, status, reply);
    completed_.fetch_add(1);
  };
  while (!stop_.load() && (next < schedule_.size() || !flights.empty())) {
    // Send everything that is due, however many replies are outstanding.
    while (next < schedule_.size() && schedule_[next].due_ns <= NowNs()) {
      const Request& request = schedule_[next];
      InFlight f;
      f.index = next++;
      f.id = g_next_request_id.fetch_add(1);
      f.sent_ns = NowNs();
      const int64_t late = f.sent_ns - request.due_ns;
      if (late > late_max_ns_.load()) late_max_ns_.store(late);
      const std::string target =
          request.target +
          (request.target.find('?') == std::string::npos ? "?" : "&") +
          "bench_req=" + std::to_string(f.id);
      f.out = (request.post ? "POST " : "GET ") + target +
              " HTTP/1.0\r\nHost: 127.0.0.1\r\n";
      if (request.post) {
        f.out += "Content-Type: application/json\r\nContent-Length: " +
                 std::to_string(request.body.size()) + "\r\n";
      }
      f.out += "\r\n" + request.body;
      f.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port_));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (f.fd < 0 ||
          (::connect(f.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
               0 &&
           errno != EINPROGRESS)) {
        complete(f, 0);
        continue;
      }
      flights.push_back(std::move(f));
    }
    // Wait for socket progress or the next due time (bounded, so a stop
    // request is noticed promptly). While a reply is outstanding, or a
    // request falls due within kSpinAheadNs, poll without blocking: a
    // blocked generator adds its own wake-up latency to every timing, and
    // on a shared VM that latency swings by milliseconds from run to run.
    int64_t wait_ns = 5000000;
    if (next < schedule_.size()) {
      wait_ns = std::clamp<int64_t>(
          schedule_[next].due_ns - NowNs() - kSpinAheadNs, 0, wait_ns);
    }
    if (!flights.empty()) wait_ns = 0;
    std::vector<pollfd> fds;
    for (const InFlight& f : flights) {
      const bool writing = !f.connected || f.out_done < f.out.size();
      fds.push_back(pollfd{f.fd, static_cast<short>(writing ? POLLOUT : POLLIN),
                           0});
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      break;
    }
    const int64_t now = NowNs();
    std::vector<InFlight> still;
    for (size_t i = 0; i < flights.size(); ++i) {
      InFlight& f = flights[i];
      int status = -1;  // -1: keep waiting.
      if (fds[i].revents != 0) {
        if (!f.connected) {
          int error = 0;
          socklen_t len = sizeof(error);
          ::getsockopt(f.fd, SOL_SOCKET, SO_ERROR, &error, &len);
          f.connected = error == 0;
          if (!f.connected) status = 0;
        }
        while (status < 0 && f.out_done < f.out.size()) {
          const ssize_t n = ::send(f.fd, f.out.data() + f.out_done,
                                   f.out.size() - f.out_done, MSG_NOSIGNAL);
          if (n > 0) {
            f.out_done += static_cast<size_t>(n);
          } else {
            if (n < 0 && errno != EAGAIN) status = 0;
            break;
          }
        }
        while (status < 0 && f.out_done == f.out.size()) {
          char buf[16384];
          const ssize_t n = ::recv(f.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            f.in.append(buf, static_cast<size_t>(n));
          } else if (n == 0) {
            status = ReplyStatus(f.in);  // Server closed: reply complete.
          } else {
            if (errno != EAGAIN) status = 0;
            break;
          }
        }
      }
      if (status < 0 && now - f.sent_ns > kRequestTimeoutNs) status = 0;
      if (status >= 0) {
        complete(f, status);
      } else {
        still.push_back(std::move(f));
      }
    }
    flights = std::move(still);
  }
  for (const InFlight& f : flights) ::close(f.fd);
}

std::vector<Request> ScrapeSchedule(int64_t start_ns, int period_ms,
                                    double horizon_s, bool dashboard) {
  std::vector<Request> schedule;
  const int count = static_cast<int>(horizon_s * 1000.0 / period_ms);
  for (int i = 0; i < count; ++i) {
    Request request;
    request.due_ns =
        start_ns + static_cast<int64_t>(i + 1) * period_ms * 1000000;
    request.target = dashboard && i % 4 == 3 ? "/statusz" : "/metrics";
    schedule.push_back(std::move(request));
  }
  return schedule;
}

// ---- Process and file helpers ----------------------------------------------

void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

std::vector<std::string> ListFiles(const std::string& dir,
                                   const std::string& suffix) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string path = entry.path().string();
    if (entry.is_regular_file() && path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int64_t DirBytes(const std::string& dir, const std::string& suffix) {
  int64_t total = 0;
  for (const std::string& file : ListFiles(dir, suffix)) {
    std::error_code ec;
    const auto size = fs::file_size(file, ec);
    if (!ec) total += static_cast<int64_t>(size);
  }
  return total;
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  return fs::is_directory(dir, ec);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

DirSnapshot DirSnapshot::Take(const std::string& dir) {
  DirSnapshot snapshot;
  snapshot.dir_ = dir;
  for (const std::string& path : ListFiles(dir, "")) {
    std::error_code ec;
    if (path.size() > 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0) {
      snapshot.journal_sizes_[path] = fs::file_size(path, ec);
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    snapshot.files_[path].assign(std::istreambuf_iterator<char>(in), {});
  }
  return snapshot;
}

bool DirSnapshot::Restore() const {
  std::error_code ec;
  for (const std::string& path : ListFiles(dir_, "")) {
    if (journal_sizes_.count(path) == 0 && files_.count(path) == 0) {
      fs::remove(path, ec);
    }
  }
  for (const auto& [path, size] : journal_sizes_) {
    fs::resize_file(path, size, ec);
    if (ec) return false;
  }
  for (const auto& [path, content] : files_) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    if (!out) return false;
  }
  return true;
}

}  // namespace perfbench
