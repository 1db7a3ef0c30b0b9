// Figure 7: the performance breakdown of synchronous IPC implementations.
//
// Null-message ping-pong, 100k roundtrips each:
//   SkyBridge (on all three kernels) | seL4 fast/cross | Fiasco fast/cross |
//   Zircon single/cross
// with the per-bucket decomposition the figure's stacked bars show.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/table.h"

namespace {

constexpr int kWarmup = 200;
constexpr int kIters = 100000;

struct Result {
  std::string name;
  uint64_t total = 0;
  mk::CostBreakdown bd;
  std::string registry_json;  // Telemetry snapshot of the run's machine.
};

Result MeasureKernelIpc(mk::KernelKind kind, bool cross_core) {
  bench::World world = bench::MakeWorld(mk::ProfileFor(kind), false, false);
  mk::Kernel& kernel = *world.kernel;
  auto* client = kernel.CreateProcess("client").value();
  auto* server = kernel.CreateProcess("server").value();
  auto* ep = kernel
                 .CreateEndpoint(
                     server, [](mk::CallEnv& env) { return env.request; },
                     cross_core ? std::vector<int>{1} : std::vector<int>{})
                 .value();
  const mk::CapSlot slot = kernel.GrantEndpointCap(client, ep->id(), mk::kRightCall).value();
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(kernel.ContextSwitchTo(world.machine->core(0), client).ok());

  for (int i = 0; i < kWarmup; ++i) {
    SB_CHECK(kernel.IpcCall(thread, slot, mk::Message(0)).ok());
  }
  Result result;
  result.name = mk::ProfileFor(kind).name + (cross_core ? " Cross Core" : " Single Core");
  hw::Core& core = world.machine->core(0);
  const uint64_t start = core.cycles();
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(kernel.IpcCall(thread, slot, mk::Message(0), &result.bd).ok());
  }
  result.total = (core.cycles() - start) / kIters;
  return result;
}

Result MeasureSkyBridge(mk::KernelKind kind) {
  bench::World world = bench::MakeWorld(mk::ProfileFor(kind), true, true);
  auto* client = world.kernel->CreateProcess("client").value();
  auto* server = world.kernel->CreateProcess("server").value();
  const skybridge::ServerId sid =
      world.sky->RegisterServer(server, 8, [](mk::CallEnv& env) { return env.request; })
          .value();
  SB_CHECK(world.sky->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(world.kernel->ContextSwitchTo(world.machine->core(0), client).ok());

  for (int i = 0; i < kWarmup; ++i) {
    SB_CHECK(world.sky->DirectServerCall(thread, sid, mk::Message(0)).ok());
  }
  Result result;
  result.name = mk::ProfileFor(kind).name + "-SkyBridge";
  hw::Core& core = world.machine->core(0);
  const uint64_t start = core.cycles();
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(world.sky->DirectServerCall(thread, sid, mk::Message(0), &result.bd).ok());
  }
  result.total = (core.cycles() - start) / kIters;
  result.registry_json = world.machine->telemetry().SnapshotJson();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_fig7_ipc_breakdown", argc, argv);
  std::printf("== Figure 7: synchronous IPC roundtrip breakdown (cycles, %d runs) ==\n",
              kIters);
  std::printf("Paper: SkyBridge 396 | seL4 986 / 6764 | Fiasco 2717 / 8440 |\n");
  std::printf("       Zircon 8157 / 20099\n\n");

  std::vector<Result> results;
  for (const mk::KernelKind kind :
       {mk::KernelKind::kSel4, mk::KernelKind::kFiasco, mk::KernelKind::kZircon}) {
    results.push_back(MeasureSkyBridge(kind));
  }
  for (const mk::KernelKind kind :
       {mk::KernelKind::kSel4, mk::KernelKind::kFiasco, mk::KernelKind::kZircon}) {
    results.push_back(MeasureKernelIpc(kind, false));
    results.push_back(MeasureKernelIpc(kind, true));
  }

  sb::Table table({"Configuration", "Total", "VMFUNC", "SYSCALL/SYSRET", "ctx switch", "IPI",
                   "copy", "schedule", "others"});
  for (const Result& r : results) {
    const auto per = [&](uint64_t v) { return sb::Table::Int(v / kIters); };
    table.AddRow({r.name, sb::Table::Int(r.total), per(r.bd.vmfunc), per(r.bd.syscall_sysret),
                  per(r.bd.context_switch), per(r.bd.ipi), per(r.bd.copy), per(r.bd.schedule),
                  per(r.bd.others)});
    reporter.Add(r.name + ".cycles_per_op", r.total);
    reporter.Add(r.name + ".vmfunc_cycles_per_op", r.bd.vmfunc / kIters);
    reporter.Add(r.name + ".syscall_cycles_per_op", r.bd.syscall_sysret / kIters);
  }
  table.Print();
  // The registry snapshot of the seL4 SkyBridge run (direct_calls, lookup
  // hits/misses, slot faults, per-phase percentiles).
  reporter.AddRegistryJson(results[0].registry_json);

  std::printf("\nIPC speed improvement of SkyBridge (ratio - 1, the paper's convention): ");
  for (int i = 0; i < 3; ++i) {
    std::printf("%s %.2fx  ", results[static_cast<size_t>(i)].name.c_str(),
                static_cast<double>(results[static_cast<size_t>(3 + 2 * i)].total) /
                        static_cast<double>(results[static_cast<size_t>(i)].total) -
                    1.0);
  }
  std::printf("(paper: 1.49x / 5.86x / 19.6x)\n");
  return 0;
}
