// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload bo-deep|fleet-churn|shard-recover --seed N
//             --seconds S --trace 0|1 --work-dir DIR --out-dir DIR
//
// Prints detail lines ("# ...") and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (see BENCHMARK.json and perfbench/README.md). Normally
// run through perfbench/run.py, which builds this binary first.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "shard.h"
#include "stats.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "bo-deep|fleet-churn|shard-recover --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out-dir DIR\n",
               message);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1 || args.seconds > 600) {
    return Usage("--seconds must be in [1, 600]");
  }
  if (args.work_dir.empty() || args.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }
  void (*run)(const perfbench::RunArgs&, perfbench::Output*) = nullptr;
  if (args.workload == "bo-deep") run = perfbench::RunBoDeep;
  if (args.workload == "fleet-churn") run = perfbench::RunFleetChurn;
  if (args.workload == "shard-recover") run = perfbench::RunShardRecover;
  if (run == nullptr) return Usage("unknown --workload");
  if (!perfbench::MakeDirs(args.work_dir) ||
      !perfbench::MakeDirs(args.out_dir)) {
    return Usage("cannot create --work-dir / --out-dir");
  }

  perfbench::Output out;
  const std::string self_test = perfbench::SelfTest();
  if (!self_test.empty()) {
    out.problems.push_back("stats self-test: " + self_test);
  }
  run(args, &out);
  perfbench::RemoveTree(args.work_dir);

  const double failed_share =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 0.0;
  if (args.trace) out.Set("bench.failed_share", failed_share, "ratio");
  out.Note("failed_share: " + std::to_string(out.failed) + " of " +
           std::to_string(out.attempted) + " operations");
  if (out.attempted < 1) out.problems.push_back("no operation attempted");

  std::string metrics;
  for (const auto& [name, metric] : out.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      out.problems.push_back(name + " is not finite");
      value = 0.0;
    }
    char number[40];
    std::snprintf(number, sizeof(number), "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + number +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& problem : out.problems) {
    std::printf("# problem: %s\n", problem.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}\n",
      out.problems.empty() ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(out.attempted, 1)),
      static_cast<long long>(out.failed), metrics.c_str());
  return 0;
}
