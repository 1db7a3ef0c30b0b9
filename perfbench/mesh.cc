// mesh: 64 servers, each from its own 16-page code image, and 1,024
// clients cloned from one 16-page template with planted gate patterns.
// Each client binds 16 servers (16,384 bindings) under eager registration
// with the rewrite cache, so set-up mixes real page scans (distinct server
// images) with cache replays (cloned clients). Then closed-loop zipfian
// calls run from 4 simulated caller cores with a per-core EPTP working set
// of 32, mixing resident hits with the slot-fault slow path. One op is a
// context switch to the caller if needed, plus DirectServerCall.
//
// Oracle: every reply echoes its request tag.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/constants.h"
#include "perfbench/workloads.h"
#include "src/apps/ycsb.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/vmm/rootkernel.h"

namespace perfbench {
namespace {

constexpr int kConnectionsPerServer = kMeshClients * kMeshServersPerClient / kMeshServers;
constexpr uint64_t kBindings = static_cast<uint64_t>(kMeshClients) * kMeshServersPerClient;
static_assert(kConnectionsPerServer <= 256, "server connection table is 256 slots");

// Client group g = c / kMeshCallerCores; server s takes the groups with
// g % kMeshCallerCores == (kMeshCallerCores - s % kMeshCallerCores) % kMeshCallerCores, so
// every client gets exactly kMeshServersPerClient servers and every server
// kConnectionsPerServer clients (the roster of bench_scaling_mesh).
uint32_t RosterClient(uint64_t server, uint64_t index) {
  const uint64_t residue = (kMeshCallerCores - server % kMeshCallerCores) % kMeshCallerCores;
  const uint64_t group = (index / kMeshCallerCores) * kMeshCallerCores + residue;
  return static_cast<uint32_t>(group * kMeshCallerCores + index % kMeshCallerCores);
}

// A 16-page NOP sled. Every page opens with `mov rax, imm64` carrying an
// image-and-page-unique immediate (no 0x0f byte, so no accidental gate
// pattern) — distinct images never share a page in the rewrite cache — and
// two pages carry a `mov eax, imm32` whose immediate embeds VMFUNC
// (0f 01 d4), at seeded offsets.
std::vector<uint8_t> CodeImage(uint64_t seed, uint64_t image_id) {
  std::vector<uint8_t> image(kMeshImagePages * sb::kPageSize, 0x90);
  sb::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (image_id + 1) * 0xc2b2ae3d27d4eb4fULL);
  for (size_t page = 0; page < kMeshImagePages; ++page) {
    uint8_t* p = image.data() + page * sb::kPageSize;
    p[0] = 0x48;
    p[1] = 0xb8;
    for (int i = 0; i < 8; ++i) {
      p[2 + i] = static_cast<uint8_t>(rng.Next() | 0x10);
    }
  }
  const size_t first = 1 + rng.Below(kMeshImagePages / 2 - 1);
  const size_t second = kMeshImagePages / 2 + rng.Below(kMeshImagePages / 2 - 1);
  for (const size_t page : {first, second}) {
    uint8_t* p = image.data() + page * sb::kPageSize + 64 + rng.Below(sb::kPageSize - 128);
    p[0] = 0xb8;
    p[1] = 0x0f;
    p[2] = 0x01;
    p[3] = 0xd4;
    p[4] = 0x00;
  }
  image.back() = 0xc3;
  return image;
}

struct MeshWorld {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<mk::Kernel> kernel;
  std::unique_ptr<skybridge::SkyBridge> sky;
  std::vector<mk::Process*> clients;
  std::vector<mk::Thread*> threads;  // threads[c] pinned to core c % kMeshCallerCores.
  std::vector<skybridge::ServerId> sids;
};

sb::Status BuildMesh(uint64_t seed, MeshWorld& mesh, SetupCost& cost) {
  hw::MachineConfig mc;
  mc.num_cores = kMeshCallerCores;
  mc.ram_bytes = 8 * sb::kGiB;
  mesh.machine = std::make_unique<hw::Machine>(mc);
  mk::KernelOptions options;
  // 1,088 processes: a small heap keeps guest-frame use bounded.
  options.process_heap_bytes = 256 * 1024;
  options.rootkernel_config.reserved_bytes = 256ULL * 1024 * 1024;
  mesh.kernel = std::make_unique<mk::Kernel>(*mesh.machine, mk::Sel4Profile(), options);
  SB_RETURN_IF_ERROR(mesh.kernel->Boot());

  skybridge::SkyBridgeConfig config;
  PinConfig(config);
  config.eptp_working_set = kMeshWorkingSet;
  // Short messages: one 4 KiB slice per binding keeps 16k buffer regions small.
  config.shared_buffer_bytes = 4 * 1024;
  config.buffer_slices = 1;
  mesh.sky = std::make_unique<skybridge::SkyBridge>(*mesh.kernel, config);

  std::vector<mk::Process*> servers;
  const std::vector<uint8_t> client_template = CodeImage(seed, kMeshServers);
  const int64_t create_start = HostNowNs();
  for (int s = 0; s < kMeshServers; ++s) {
    SB_ASSIGN_OR_RETURN(mk::Process * server,
                        mesh.kernel->CreateProcessWithImage(
                            "srv" + std::to_string(s), CodeImage(seed, static_cast<uint64_t>(s))));
    servers.push_back(server);
  }
  for (int c = 0; c < kMeshClients; ++c) {
    SB_ASSIGN_OR_RETURN(mk::Process * client, mesh.kernel->CreateProcessWithImage(
                                                  "cli" + std::to_string(c), client_template));
    mesh.clients.push_back(client);
    mesh.threads.push_back(client->AddThread(c % kMeshCallerCores));
  }
  cost.create_process_s = static_cast<double>(HostNowNs() - create_start) * 1e-9;
  cost.processes = kMeshServers + kMeshClients;

  hw::Core& core0 = mesh.machine->core(0);
  cost.reg_before = TakeSnapshot(*mesh.machine);
  const int64_t reg_start = HostNowNs();
  for (mk::Process* server : servers) {
    const uint64_t c0 = core0.cycles();
    SB_ASSIGN_OR_RETURN(skybridge::ServerId sid,
                        mesh.sky->RegisterServer(server, kConnectionsPerServer,
                                                 [](mk::CallEnv& env) { return env.request; }));
    cost.register_server_cycles += core0.cycles() - c0;
    mesh.sids.push_back(sid);
  }
  cost.servers = kMeshServers;
  for (int s = 0; s < kMeshServers; ++s) {
    for (int i = 0; i < kConnectionsPerServer; ++i) {
      const uint64_t c0 = core0.cycles();
      SB_RETURN_IF_ERROR(mesh.sky->RegisterClient(mesh.clients[RosterClient(s, i)],
                                                  mesh.sids[static_cast<size_t>(s)]));
      cost.register_client_cycles += core0.cycles() - c0;
    }
  }
  cost.bindings = kBindings;
  cost.register_s = static_cast<double>(HostNowNs() - reg_start) * 1e-9;
  cost.reg_after = TakeSnapshot(*mesh.machine);
  return sb::OkStatus();
}

}  // namespace

sb::Status RunMesh(const Options& options, Report& report) {
  // ---- Set-up: boot, process creation and registration, repeated ----
  std::unique_ptr<MeshWorld> owner;
  std::vector<double> setup_times;
  SetupCost cost;
  for (int i = 0; i < kSetupRepeats; ++i) {
    owner.reset();  // Members tear down in reverse: sky first, machine last.
    owner = std::make_unique<MeshWorld>();
    cost = SetupCost();
    const CalibratedTimer timer;
    {
      Tracer::Scope span(GlobalTracer(), "perfbench.BuildMesh", 0, nullptr);
      SB_RETURN_IF_ERROR(BuildMesh(options.seed, *owner, cost));
    }
    setup_times.push_back(timer.Seconds());
  }
  MeshWorld& mesh = *owner;
  CheckPinned(report, *mesh.sky);
  hw::Machine& machine = *mesh.machine;
  ReportSetup(report, cost, setup_times, TakeSnapshot(machine));
  std::printf("mesh: %d servers x %d clients, %llu bindings, %zu EPTs\n", kMeshServers,
              kMeshClients, static_cast<unsigned long long>(kBindings),
              mesh.kernel->rootkernel()->ept_count());

  // One zipfian key stream per caller core over the binding space.
  std::vector<std::unique_ptr<sb::Rng>> rngs;
  std::vector<std::unique_ptr<apps::ZipfianGenerator>> zipf;
  for (int d = 0; d < kMeshCallerCores; ++d) {
    rngs.push_back(std::make_unique<sb::Rng>(options.seed ^ (0x6d657368ULL + d)));
    zipf.push_back(std::make_unique<apps::ZipfianGenerator>(kBindings, 0.99, rngs.back().get()));
  }
  uint64_t next_tag = 0;
  const auto call = [&](uint32_t caller, uint64_t key) -> sb::Status {
    const uint64_t server = key / kConnectionsPerServer;
    const uint64_t index = key % kConnectionsPerServer;
    // Steer the key's client to this caller's core: same roster group,
    // member = caller, so the pair stays bound.
    const uint32_t c = (RosterClient(server, index) & ~(kMeshCallerCores - 1u)) | caller;
    hw::Core& core = machine.core(static_cast<int>(caller));
    const uint64_t tag = ++next_tag;
    if (mesh.kernel->current_process(core.id()) != mesh.clients[c]) {
      Tracer::Scope span(GlobalTracer(), "mk.Kernel::ContextSwitchTo", tag, &core);
      SB_RETURN_IF_ERROR(mesh.kernel->ContextSwitchTo(core, mesh.clients[c]));
    }
    const sb::StatusOr<mk::Message> reply = [&] {
      Tracer::Scope span(GlobalTracer(), "skybridge.SkyBridge::DirectServerCall", tag, &core);
      return mesh.sky->DirectServerCall(mesh.threads[c], mesh.sids[server], mk::Message(tag));
    }();
    SB_RETURN_IF_ERROR(reply.status());
    if (reply->tag != tag) {
      report.Fail("mesh: reply tag " + std::to_string(reply->tag) + " for request " +
                  std::to_string(tag));
      return sb::Internal("wrong reply");
    }
    return sb::OkStatus();
  };
  std::vector<int> cores;
  for (int d = 0; d < kMeshCallerCores; ++d) {
    cores.push_back(d);
  }
  const auto closed_call = [&](uint32_t caller, uint64_t) {
    return call(caller, zipf[caller]->Next());
  };

  // ---- Warm-up ----
  RunClosedLoop(machine, cores, kMeshWarmCalls, closed_call, report);

  // ---- Measured phase: closed loop, then the open-loop ladder ----
  const Snapshot before = TakeSnapshot(machine);
  const double closed_start = HostNowS();
  const double deadline = closed_start + options.seconds;
  ClosedLoopResult closed = RunClosedLoop(machine, cores, kMeshMeasuredCalls, closed_call, report);
  const double closed_host_s = HostNowS() - closed_start;
  const uint64_t closed_crossings =
      Delta(before, TakeSnapshot(machine), "skybridge.ipc.direct_calls");

  OpHooks hooks;
  hooks.call = call;
  LoadSpec spec;
  spec.ladder = kMeshLadder;
  spec.rungs = std::size(kMeshLadder);
  spec.reference = kMeshReference;
  spec.p99_limit_cycles = kMeshP99LimitCycles;
  spec.events = kMeshLadderEvents;
  spec.batch_depth = kBatchDepth;
  spec.num_keys = kBindings;
  spec.cores = cores;
  spec.seed = options.seed;
  const LadderResult ladder = RunLadder(machine, spec, hooks, report);
  const Snapshot after = TakeSnapshot(machine);

  report.EndToEnd("op_p50_cycles", static_cast<double>(Percentile(closed.latencies, 50)),
                  "cycles", true);
  std::printf("op_p50/p99_cycles over %zu samples\n", closed.latencies.size());
  report.EndToEnd("op_p99_cycles", static_cast<double>(Percentile(closed.latencies, 99)),
                  "cycles", true);
  report.EndToEnd("sim_ops_per_s", OpsPerSimSecond(closed.ops, closed.elapsed_cycles),
                  "ops/sim_s", true);
  ReportLadder(report, ladder, /*op_latency_from_ladder=*/false);
  ReportCommonLayers(report, before, after, closed.ops + ladder.ops);
  report.Layer("skybridge.call_host_ns",
               closed_host_s * 1e9 / static_cast<double>(std::max<uint64_t>(closed_crossings, 1)),
               "ns", false);
  ReportStorageIdle(report);
  report.Layer("apps.get_service_cycles", 0, "cycles", true);
  CheckVmExits(report, before, after, /*allow_hypercalls=*/true);
  std::printf("mesh: %llu closed-loop calls, %llu ladder calls\n",
              static_cast<unsigned long long>(closed.ops),
              static_cast<unsigned long long>(ladder.ops));

  // ---- Host throughput rounds ----
  ReportHostRounds(report, deadline, [&] {
    return RunClosedLoop(machine, cores, kMeshHostRoundCalls, closed_call, report).ops;
  });

  CheckQuiesced(report, *mesh.sky);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", false);
  return sb::OkStatus();
}

}  // namespace perfbench
