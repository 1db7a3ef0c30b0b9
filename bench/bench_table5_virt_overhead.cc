// Table 5: virtualization overhead — SQLite/YCSB-A throughput in the native
// and Rootkernel environments (without SkyBridge) and the number of VM exits
// observed while the workload runs.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/sqlite_stack.h"
#include "src/base/table.h"
#include "src/sim/executor.h"

namespace {

constexpr uint64_t kRecords = 600;
constexpr int kOpsPerThread = 100;

struct Row {
  double throughput = 0;
  uint64_t vm_exits = 0;
};

Row Measure(bool rootkernel, int threads) {
  apps::SqliteStackConfig config;
  config.transport = apps::StackTransport::kIpcMtServer;
  config.boot_rootkernel = rootkernel;
  config.preload_records = kRecords;
  config.num_client_threads = threads;
  auto stack = apps::SqliteStack::Create(config);
  SB_CHECK(stack.ok()) << stack.status().ToString();
  const sb::telemetry::Registry& reg = (*stack)->machine().telemetry();
  const uint64_t exits_before = reg.Value("hw.vmexit.total");

  apps::YcsbConfig wl = apps::YcsbA();
  wl.record_count = kRecords;
  sim::Executor exec((*stack)->machine());
  // Cores carry setup-time cycles; measure elapsed time from here.
  uint64_t base_time = 0;
  for (int c = 0; c < (*stack)->machine().num_cores(); ++c) {
    base_time = std::max(base_time, (*stack)->machine().core(c).cycles());
  }
  for (int c = 0; c < (*stack)->machine().num_cores(); ++c) {
    (*stack)->machine().core(c).SyncClockTo(base_time);
  }
  (*stack)->db_lock().Release(base_time);
  (*stack)->fs().big_lock().Release(base_time);
  std::vector<std::unique_ptr<apps::YcsbWorkload>> workloads;
  uint64_t total_ops = 0;
  for (int t = 0; t < threads; ++t) {
    apps::YcsbConfig thread_wl = wl;
    thread_wl.seed = wl.seed + static_cast<uint64_t>(t);
    workloads.push_back(std::make_unique<apps::YcsbWorkload>(thread_wl));
    apps::YcsbWorkload* workload = workloads.back().get();
    apps::SqliteStack* s = stack->get();
    sim::SimThread* thread = exec.AddThread(
        "client" + std::to_string(t), t % 8, [=, &total_ops](sim::SimThread& st) {
          SB_CHECK(s->RunYcsbOp(t, workload->NextOp(), *workload).ok());
          ++total_ops;
          return st.iterations() + 1 < kOpsPerThread;
        });
    thread->set_now(base_time);
  }
  exec.RunToCompletion();

  Row row;
  row.throughput =
      static_cast<double>(total_ops) /
      (static_cast<double>(exec.max_time() - base_time) / hw::DefaultCosts().cycles_per_second);
  row.vm_exits = reg.Value("hw.vmexit.total") - exits_before;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_table5_virt_overhead", argc, argv);
  std::printf("== Table 5: SQLite/YCSB-A throughput, native vs Rootkernel (no SkyBridge) ==\n");
  std::printf("Paper: 9745 vs 9694 ops/s (1 thread), 1466 vs 1412 (8 threads), 0 VM exits.\n\n");

  sb::Table table({"Workload", "Native (ops/s)", "Rootkernel (ops/s)", "Overhead", "#VM exits"});
  for (const int threads : {1, 8}) {
    const Row native = Measure(false, threads);
    const Row virt = Measure(true, threads);
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "%.2f%%",
                  100.0 * (1.0 - virt.throughput / native.throughput));
    table.AddRow({"YCSB-A " + std::to_string(threads) + " thread",
                  sb::Table::Fixed(native.throughput, 0), sb::Table::Fixed(virt.throughput, 0),
                  overhead, sb::Table::Int(virt.vm_exits)});
    const std::string prefix = "ycsb_a_" + std::to_string(threads) + "t.";
    reporter.Add(prefix + "native_ops_per_s", native.throughput);
    reporter.Add(prefix + "rootkernel_ops_per_s", virt.throughput);
    reporter.Add(prefix + "vm_exits", virt.vm_exits);
  }
  table.Print();
  std::printf("\nNo VM exits in the steady state: CR3 writes and interrupts stay in\n");
  std::printf("non-root mode and the 1 GiB base EPT never faults (Section 4.1).\n");
  return 0;
}
