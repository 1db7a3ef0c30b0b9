// Figure 7: the performance breakdown of synchronous IPC implementations.
//
// Null-message ping-pong, 100k roundtrips each:
//   SkyBridge (on all three kernels) | seL4 fast/cross | Fiasco fast/cross |
//   Zircon single/cross
// with the per-bucket decomposition the figure's stacked bars show, read off
// the cores' cycle ledgers (hw::CycleLedger). A single-core row is the
// caller core's ledger delta; a cross-core row adds the server core's delta
// and drops both wait buckets, and its IPI column is the caller's wait minus
// the server's busy cycles. The bench exits non-zero unless every row's
// columns sum to its elapsed cycles and the IPI column equals the IPIs sent
// times the IPI latency.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/table.h"

namespace {

constexpr int kWarmup = 200;
constexpr int kIters = 100000;

struct Result {
  std::string name;
  uint64_t elapsed = 0;      // Caller-core cycles over the measured calls.
  hw::CycleLedger cycles;    // Caller + server ledger deltas, wait dropped.
  uint64_t ipi = 0;          // Caller's wait minus the server's busy cycles.
  uint64_t ipi_expected = 0;  // IPIs sent x the IPI latency.
  std::string registry_json;  // Telemetry snapshot of the run's machine.
};

// Ledgers and IPI count of the caller core (and of the server core, for a
// cross-core run) at the start of the measured calls.
class Window {
 public:
  Window(hw::Machine& machine, hw::Core& caller, hw::Core* server)
      : machine_(machine),
        caller_(caller),
        server_(server),
        start_(caller.cycles()),
        caller_before_(caller.ledger()),
        server_before_(server != nullptr ? server->ledger() : hw::CycleLedger{}),
        ipis_before_(machine.telemetry().Value("hw.ipi.sent")) {}

  void Close(Result& r) const {
    r.elapsed = caller_.cycles() - start_;
    const hw::CycleLedger caller = caller_.ledger() - caller_before_;
    const hw::CycleLedger server =
        server_ != nullptr ? server_->ledger() - server_before_ : hw::CycleLedger{};
    const uint64_t server_busy = server.total() - server[hw::Bucket::kWait];
    SB_CHECK(caller[hw::Bucket::kWait] >= server_busy);
    r.ipi = caller[hw::Bucket::kWait] - server_busy;
    r.cycles = caller;
    r.cycles += server;
    r.cycles[hw::Bucket::kWait] = 0;
    r.ipi_expected =
        (machine_.telemetry().Value("hw.ipi.sent") - ipis_before_) * machine_.costs().ipi;
  }

 private:
  hw::Machine& machine_;
  hw::Core& caller_;
  hw::Core* server_;
  uint64_t start_;
  hw::CycleLedger caller_before_;
  hw::CycleLedger server_before_;
  uint64_t ipis_before_;
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
  const Window window(*world.machine, world.machine->core(0),
                      cross_core ? &world.machine->core(1) : nullptr);
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(kernel.IpcCall(thread, slot, mk::Message(0)).ok());
  }
  window.Close(result);
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
  const Window window(*world.machine, world.machine->core(0), nullptr);
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(world.sky->DirectServerCall(thread, sid, mk::Message(0)).ok());
  }
  window.Close(result);
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
                   "copy", "schedule", "others", "gate"});
  bool ok = true;
  for (const Result& r : results) {
    // The printed columns, in table order, with their JSON key stems.
    const std::pair<const char*, uint64_t> columns[] = {
        {"vmfunc", r.cycles[hw::Bucket::kVmfunc]},
        {"syscall", r.cycles[hw::Bucket::kSyscall]},
        {"ctx_switch", r.cycles[hw::Bucket::kCtxSwitch]},
        {"ipi", r.ipi},
        {"copy", r.cycles[hw::Bucket::kCopy]},
        {"schedule", r.cycles[hw::Bucket::kSchedule]},
        {"others", r.cycles[hw::Bucket::kOthers]},
        {"gate", r.cycles[hw::Bucket::kGate]},
    };
    std::vector<std::string> row = {r.name, sb::Table::Int(r.elapsed / kIters)};
    uint64_t sum = 0;
    reporter.Add(r.name + ".cycles_per_op", r.elapsed / kIters);
    for (const auto& [key, cycles] : columns) {
      row.push_back(sb::Table::Int(cycles / kIters));
      reporter.Add(r.name + "." + key + "_cycles_per_op", cycles / kIters);
      sum += cycles;
    }
    table.AddRow(row);
    if (sum != r.elapsed) {
      std::printf("FAIL: %s columns sum to %llu of %llu elapsed cycles\n", r.name.c_str(),
                  static_cast<unsigned long long>(sum),
                  static_cast<unsigned long long>(r.elapsed));
      ok = false;
    }
    if (r.ipi != r.ipi_expected) {
      std::printf("FAIL: %s IPI column %llu != IPIs sent x latency %llu\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.ipi),
                  static_cast<unsigned long long>(r.ipi_expected));
      ok = false;
    }
  }
  table.Print();
  // The registry snapshot of the seL4 SkyBridge run (direct_calls, lookup
  // hits/misses, slot faults, per-phase percentiles).
  reporter.AddRegistryJson(results[0].registry_json);

  std::printf("\nIPC speed improvement of SkyBridge (ratio - 1, the paper's convention): ");
  for (int i = 0; i < 3; ++i) {
    std::printf("%s %.2fx  ", results[static_cast<size_t>(i)].name.c_str(),
                static_cast<double>(results[static_cast<size_t>(3 + 2 * i)].elapsed / kIters) /
                        static_cast<double>(results[static_cast<size_t>(i)].elapsed / kIters) -
                    1.0);
  }
  std::printf("(paper: 1.49x / 5.86x / 19.6x)\n");
  return ok ? 0 : 1;
}
