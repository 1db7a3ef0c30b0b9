// The repository benchmark: runs one workload and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a traced run.
//
//   perfbench --workload ycsb_a|kv_open|mesh --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// Exit status 1 when a correctness check failed, 2 on a usage or set-up
// error. The line before the result, `sim_digest: <hex>`, hashes every
// simulated metric, load-generator fingerprint and counter delta: two runs
// at one seed must print the same digest.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/workloads.h"

namespace perfbench {

void ReportStorageIdle(Report& report) {
  for (const char* name : {"fs.block_reads_per_op", "fs.block_writes_per_op",
                           "fs.transactions_per_op", "fs.log_absorptions_per_op",
                           "db.pager_hits_per_op"}) {
    report.Layer(name, 0, "count/op", true);
  }
  report.Layer("fs.cache_hit_ratio", 0, "ratio", true);
  report.Layer("db.row_cache_hit_ratio", 0, "ratio", true);
  for (const char* name : {"apps.read_p50_cycles", "apps.update_p50_cycles",
                           "apps.update_p99_cycles"}) {
    report.Layer(name, 0, "cycles", true);
  }
}

namespace {

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      options.span_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0;
}

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ycsb_a|kv_open|mesh --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  // Worlds the applications build internally take their SkyBridge defaults
  // from the environment; pin them so no inherited variable moves a number.
  setenv("SB_CROSSING_BACKEND", "eptp", 1);
  setenv("SB_REGISTRATION_MODE", "eager", 1);
  GlobalTracer().set_enabled(options.trace);
  ProbeNs();  // Builds the probe's table outside every timed region.

  Report report;
  sb::Status status;
  if (options.workload == "ycsb_a") {
    status = RunYcsbA(options, report);
  } else if (options.workload == "kv_open") {
    status = RunKvOpen(options, report);
  } else if (options.workload == "mesh") {
    status = RunMesh(options, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", options.workload.c_str(), status.ToString().c_str());
    return 2;
  }
  report.Layer("fail_ratio", PerOp(report.failed(), report.attempted()), "ratio", true);

  const std::map<std::string, Metric>& metrics =
      options.trace ? report.per_layer() : report.end_to_end();
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      report.Fail("metric " + name + " is not finite");
    }
  }
  if (options.trace && !options.span_path.empty()) {
    const sb::Status written = GlobalTracer().Write(options.span_path);
    if (!written.ok()) {
      report.Fail(written.ToString());
    }
    std::printf("spans: %zu recorded, %llu dropped, written to %s\n", GlobalTracer().recorded(),
                static_cast<unsigned long long>(GlobalTracer().dropped()),
                options.span_path.c_str());
  }
  if (!report.correct()) {
    std::printf("CORRECTNESS FAILURE: %s\n", report.first_error().c_str());
  }
  std::printf("sim_digest: %016llx\n", static_cast<unsigned long long>(report.digest()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  PrintMetrics(metrics);
  std::printf("}}\n");
  return report.correct() ? 0 : 1;
}
