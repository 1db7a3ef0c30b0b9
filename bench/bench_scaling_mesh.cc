// EPTP slot virtualization at mesh scale (DESIGN.md section 15).
//
// 64 servers x 1024 clients, each client bound to 16 servers: 16,384
// live bindings against a per-core EPTP-list working set swept from 16 to
// the full 512-entry hardware list. Routing is zipfian over the binding
// space (sim::LoadGenerator key streams, theta 0.99), so a small hot set of
// (client, server) pairs carries most of the traffic while the long tail
// slot-faults in and out of residency.
//
// Part 1 — consolidation ON (the default): every client of one server
// shares that server's binding EPT, so the 16,384 bindings translate
// through only 64 + 1024 distinct EPTs (server views + client process
// views). The sweep shows ops/s converging to the all-resident baseline as
// the working set grows past the hot set, plus the LRU-vs-round-robin
// victim ablation (config.lru_slot_eviction).
//
// Part 2 — consolidation OFF (the pre-section-15 shape): every binding is
// its own EPT, 16,384 + 1024 of them, an order of magnitude past the
// 512-entry hardware list. The bench's existence proof: every call is
// still served from a 512-slot budget, with the slot-fault rate as the
// price curve.
//
// Self-checks printed at the end (CI gates them from the --json output):
//   no rejected calls or load-generator errors anywhere in the sweep
//   consolidation-off serves >= 10k bindings from <= 512 slots
//   hot-set cycles/op under LRU >= 1.5x better than the naive-rotation
//     ablation at the tightest working set (ws=16)
//   hot-set cycles/op at ws=16 under LRU within 1.5x of the all-resident
//     run — the zipfian hot set never pays the slot-fault slow path
//
// Flags: --seed N, --events N, plus the standard --json.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/sim/loadgen.h"
#include "src/skybridge/config.h"
#include "src/vmm/rootkernel.h"

namespace {

uint64_t g_seed = 42;
uint32_t g_events = 16384;

// Mesh geometry. Groups of kDrivers clients are roster-aligned so a zipfian
// key can be steered to the issuing driver's core without leaving the
// binding set (see KeyToCall).
constexpr int kServers = 64;
constexpr int kClients = 1024;
constexpr int kServersPerClient = 16;
constexpr int kConnectionsPerServer = kClients * kServersPerClient / kServers;  // 256
constexpr int kDrivers = 4;  // One load-generator client per simulated core.
constexpr uint64_t kBindings = static_cast<uint64_t>(kClients) * kServersPerClient;
static_assert(kConnectionsPerServer <= 256, "server connection table is 256 slots");

// Client group g = c / kDrivers. Group g is in server s's roster iff
// g % kDrivers == s % kDrivers... inverted: server s draws the 64 groups
// with g % kDrivers == (kDrivers - s % kDrivers) % kDrivers, giving every
// client exactly kServersPerClient servers and every server exactly
// kConnectionsPerServer clients. Low roster indices map to low groups, so
// zipfian-hot keys concentrate on few servers AND few client processes.
uint32_t RosterClient(uint64_t server, uint64_t index) {
  const uint64_t residue = (kDrivers - server % kDrivers) % kDrivers;
  const uint64_t group = (index / kDrivers) * kDrivers + residue;
  return static_cast<uint32_t>(group * kDrivers + index % kDrivers);
}

struct Mesh {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<mk::Kernel> kernel;
  std::unique_ptr<skybridge::SkyBridge> sky;
  std::vector<mk::Process*> clients;
  std::vector<mk::Thread*> threads;  // threads[c] pinned to core c % kDrivers.
  std::vector<skybridge::ServerId> sids;
};

struct MeshParams {
  size_t working_set = hw::kEptpListCapacity;
  bool consolidate = true;
  bool lru = true;
};

Mesh BuildMesh(const MeshParams& params) {
  Mesh mesh;
  hw::MachineConfig mc;
  mc.num_cores = kDrivers;
  mc.ram_bytes = 8 * sb::kGiB;
  mesh.machine = std::make_unique<hw::Machine>(mc);
  mk::KernelOptions options;
  // 1088 processes: a small heap keeps guest-frame consumption bounded, and
  // the Rootkernel EPT pool must hold ~17k shallow copies + remap splits
  // under the consolidation-off ablation.
  options.process_heap_bytes = 256 * 1024;
  options.rootkernel_config.reserved_bytes = 768ULL * 1024 * 1024;
  mesh.kernel = std::make_unique<mk::Kernel>(*mesh.machine, mk::Sel4Profile(), options);
  SB_CHECK(mesh.kernel->Boot().ok());

  skybridge::SkyBridgeConfig config;
  config.eptp_working_set = params.working_set;
  config.consolidate_bindings = params.consolidate;
  config.lru_slot_eviction = params.lru;
  // Short-message mesh: one 4 KiB slice per binding keeps the 16k shared
  // buffer regions at ~64 MiB instead of 4 GiB.
  config.shared_buffer_bytes = 4 * 1024;
  config.buffer_slices = 1;
  mesh.sky = std::make_unique<skybridge::SkyBridge>(*mesh.kernel, config);

  for (int s = 0; s < kServers; ++s) {
    auto* server = mesh.kernel->CreateProcess("srv" + std::to_string(s)).value();
    mesh.sids.push_back(mesh.sky
                            ->RegisterServer(server, kConnectionsPerServer,
                                             [](mk::CallEnv& env) { return env.request; })
                            .value());
  }
  mesh.clients.reserve(kClients);
  mesh.threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    auto* client = mesh.kernel->CreateProcess("cli" + std::to_string(c)).value();
    mesh.clients.push_back(client);
    mesh.threads.push_back(client->AddThread(c % kDrivers));
  }
  for (int s = 0; s < kServers; ++s) {
    for (int i = 0; i < kConnectionsPerServer; ++i) {
      SB_CHECK(mesh.sky->RegisterClient(mesh.clients[RosterClient(s, i)], mesh.sids[s]).ok());
    }
  }
  return mesh;
}

struct MeshResult {
  double ops_per_sec = 0;
  uint64_t calls = 0;
  uint64_t errors = 0;
  uint64_t slot_faults = 0;
  uint64_t stale_retries = 0;
  uint64_t rejected = 0;
  uint64_t ept_count = 0;
  double fault_rate = 0;  // slot faults per completed call.
  double hot_cpo = 0;     // Hot-set probe: cycles/op on the hottest binding.
};

// Closed-loop hot-set probe on core 0: the hottest binding (client 0 ->
// server 0) interleaved with bursts of cold calls that churn far more EPTs
// through the working set than a tight budget holds. Clients 0, 4, 8 and 12
// all placed their threads on core 0 (c % kDrivers == 0) and their rosters
// cover all 64 servers between them, so the cold stream cycles ~63 distinct
// server EPTs (plus the four client views) against <= 15 usable slots —
// every cold touch misses under *any* eviction policy. Measures cycles/op
// of the *hot* calls only: the hot binding is re-touched every few calls,
// so a recency-aware policy keeps it resident ("hot bindings never fault")
// while the naive rotation ablation's cursor sweeps over the hot slot
// regardless of recency and keeps re-paying the slot-fault slow path.
double ProbeHotSet(Mesh& mesh) {
  constexpr int kWarmRounds = 8;
  constexpr int kRounds = 96;
  hw::Core& core = mesh.machine->core(0);
  const auto switch_to = [&](mk::Process* p) {
    if (mesh.kernel->current_process(core.id()) != p) {
      SB_CHECK(mesh.kernel->ContextSwitchTo(core, p).ok());
    }
  };
  // Client c = 4g reaches servers with s % kDrivers == (kDrivers - g) %
  // kDrivers; the four of them partition the server set. Server 0 stays the
  // hot target; everything else is churn.
  struct ColdCall {
    int client;
    skybridge::ServerId sid;
  };
  std::vector<ColdCall> cold;
  for (int g = 0; g < kDrivers; ++g) {
    const int c = g * kDrivers;
    const int residue = (kDrivers - g) % kDrivers;
    for (int s = residue; s < kServers; s += kDrivers) {
      if (s == 0 && c == 0) continue;
      cold.push_back({c, mesh.sids[s]});
    }
  }
  // Each hot call is followed by a burst of 2-4 cold calls (order reshuffled
  // every wrap so the rotation cursor cannot phase-lock with the pattern).
  // Between consecutive hot touches at most ~9 distinct EPTs are referenced
  // (burst servers + client views), well under the residency budget, so LRU
  // never picks the hot slot as victim. Context switches happen outside the
  // timed window; only the hot DirectServerCall itself is measured.
  uint64_t hot_cycles = 0;
  uint64_t hot_calls = 0;
  sb::Rng probe_rng(g_seed ^ 0x407b1a5eULL);
  size_t next_cold = 0;
  constexpr int kHotPerRound = 5;
  for (int round = 0; round < kWarmRounds + kRounds; ++round) {
    for (int h = 0; h < kHotPerRound; ++h) {
      switch_to(mesh.clients[0]);
      const uint64_t start = core.cycles();
      SB_CHECK(mesh.sky->DirectServerCall(mesh.threads[0], mesh.sids[0], mk::Message(0)).ok());
      if (round >= kWarmRounds) {
        hot_cycles += core.cycles() - start;
        ++hot_calls;
      }
      const size_t burst = 2 + probe_rng.Below(3);
      for (size_t k = 0; k < burst; ++k) {
        if (next_cold % cold.size() == 0) {
          for (size_t m = cold.size(); m > 1; --m) {
            std::swap(cold[m - 1], cold[probe_rng.Below(m)]);
          }
        }
        const ColdCall& cc = cold[next_cold % cold.size()];
        switch_to(mesh.clients[cc.client]);
        SB_CHECK(mesh.sky->DirectServerCall(mesh.threads[cc.client], cc.sid, mk::Message(1)).ok());
        ++next_cold;
      }
    }
  }
  return static_cast<double>(hot_cycles) / static_cast<double>(hot_calls);
}

MeshResult RunMesh(const MeshParams& params) {
  Mesh mesh = BuildMesh(params);
  skybridge::SkyBridge* sky = mesh.sky.get();
  mk::Kernel* kernel = mesh.kernel.get();
  hw::Machine* machine = mesh.machine.get();

  sim::LoadGenConfig config;
  config.seed = g_seed;
  config.events = g_events;
  config.num_clients = kDrivers;
  for (int d = 0; d < kDrivers; ++d) {
    config.client_cores.push_back(d);
  }
  config.num_keys = kBindings;
  config.zipf_theta = 0.99;
  // Saturating offered load: the generator stays backlogged, so completed /
  // elapsed measures the service rate, not the arrival rate.
  config.offered_per_kcycle = 50.0;

  sim::LoadTarget target;
  const Mesh* m = &mesh;
  target.sync_call = [sky, kernel, machine, m](uint32_t driver, uint64_t key) -> sb::Status {
    const uint64_t server = key / kConnectionsPerServer;
    const uint64_t index = key % kConnectionsPerServer;
    // Steer the key's client to this driver's core: same roster group,
    // member = driver. Groups are kDrivers-aligned, so the pair stays bound.
    const uint32_t c = (RosterClient(server, index) & ~(kDrivers - 1u)) | driver;
    mk::Process* client = m->clients[c];
    hw::Core& core = machine->core(static_cast<int>(driver));
    if (kernel->current_process(core.id()) != client) {
      SB_RETURN_IF_ERROR(kernel->ContextSwitchTo(core, client));
    }
    return sky->DirectServerCall(m->threads[c], m->sids[server], mk::Message(key)).status();
  };

  const sb::telemetry::Registry& reg = machine->telemetry();
  const uint64_t faults_before = reg.Value("skybridge.eptp.slot_faults");
  const uint64_t retries_before = reg.Value("skybridge.ipc.stale_slot_retries");
  const uint64_t rejected_before = reg.Value("skybridge.ipc.rejected_calls");
  sim::LoadGenerator gen(*machine, config, target);
  const sim::LoadGenReport report = gen.Run().value();

  MeshResult r;
  // Read before the hot-set probe, whose calls would count too.
  r.slot_faults = reg.Value("skybridge.eptp.slot_faults") - faults_before;
  r.stale_retries = reg.Value("skybridge.ipc.stale_slot_retries") - retries_before;
  r.rejected = reg.Value("skybridge.ipc.rejected_calls") - rejected_before;
  r.hot_cpo = ProbeHotSet(mesh);
  SB_CHECK(sky->CheckInvariants().ok());
  r.calls = report.completed;
  r.errors = report.errors;
  r.ops_per_sec = static_cast<double>(report.completed) /
                  (static_cast<double>(report.elapsed_cycles) /
                   hw::DefaultCosts().cycles_per_second);
  r.ept_count = kernel->rootkernel()->ept_count();
  r.fault_rate = report.completed > 0
                     ? static_cast<double>(r.slot_faults) / static_cast<double>(report.completed)
                     : 0.0;
  return r;
}

std::string Pct(double v) { return sb::Table::Fixed(100.0 * v, 1) + "%"; }

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_scaling_mesh", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--seed") == 0) {
      g_seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--events") == 0) {
      g_events = static_cast<uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  reporter.Stamp("seed", std::to_string(g_seed));
  reporter.Stamp("events", std::to_string(g_events));
  reporter.Stamp("mesh", "{\"servers\": 64, \"clients\": 1024, \"bindings\": 16384}");

  std::printf("== Binding mesh: %d servers x %d clients, %llu bindings, zipfian ==\n",
              kServers, kClients, static_cast<unsigned long long>(kBindings));
  std::printf("%u zipfian calls (theta 0.99, seed %llu) per configuration.\n\n", g_events,
              static_cast<unsigned long long>(g_seed));

  // Part 1: consolidation on, working-set sweep + victim-policy ablation.
  std::printf("-- consolidation ON: %d server EPTs shared by all clients --\n", kServers);
  sb::Table sweep({"WorkingSet", "Policy", "ops/s", "SlotFaults", "FaultRate", "HotCyc/op"});
  double baseline_hot_cpo = 0;
  double ws16_lru_hot_cpo = 0;
  double ws16_naive_hot_cpo = 0;
  for (const size_t ws : {size_t{512}, size_t{128}, size_t{64}, size_t{32}, size_t{16}}) {
    MeshParams params;
    params.working_set = ws;
    const MeshResult r = RunMesh(params);
    SB_CHECK(r.errors == 0 && r.rejected == 0)
        << "mesh errors=" << r.errors << " rejected=" << r.rejected;
    if (ws == 512) {
      baseline_hot_cpo = r.hot_cpo;
    }
    if (ws == 16) {
      ws16_lru_hot_cpo = r.hot_cpo;
    }
    const std::string key = "mesh.consolidated.lru.ws" + std::to_string(ws) + ".";
    reporter.Add(key + "ops_per_sec", r.ops_per_sec);
    reporter.Add(key + "slot_faults", r.slot_faults);
    reporter.Add(key + "slot_fault_rate", r.fault_rate);
    reporter.Add(key + "hot.cycles_per_op", r.hot_cpo);
    sweep.AddRow({sb::Table::Int(ws), "lru", bench::Humanize(r.ops_per_sec),
                  sb::Table::Int(r.slot_faults), Pct(r.fault_rate),
                  sb::Table::Fixed(r.hot_cpo, 0)});
  }
  {
    MeshParams params;
    params.working_set = 16;
    params.lru = false;
    const MeshResult r = RunMesh(params);
    SB_CHECK(r.errors == 0 && r.rejected == 0);
    ws16_naive_hot_cpo = r.hot_cpo;
    reporter.Add("mesh.consolidated.naive.ws16.ops_per_sec", r.ops_per_sec);
    reporter.Add("mesh.consolidated.naive.ws16.slot_faults", r.slot_faults);
    reporter.Add("mesh.consolidated.naive.ws16.slot_fault_rate", r.fault_rate);
    reporter.Add("mesh.consolidated.naive.ws16.hot.cycles_per_op", r.hot_cpo);
    sweep.AddRow({sb::Table::Int(16), "naive", bench::Humanize(r.ops_per_sec),
                  sb::Table::Int(r.slot_faults), Pct(r.fault_rate),
                  sb::Table::Fixed(r.hot_cpo, 0)});
  }
  sweep.Print();

  // Part 2: consolidation off — one EPT per binding, 32x past the hardware
  // list; the slot-fault price curve of serving it anyway.
  std::printf("\n-- consolidation OFF: one EPT per binding (the >10k ablation) --\n");
  sb::Table flat({"WorkingSet", "ops/s", "SlotFaults", "FaultRate", "EPTs"});
  uint64_t flat_epts = 0;
  for (const size_t ws : {size_t{512}, size_t{256}, size_t{128}, size_t{64}}) {
    MeshParams params;
    params.working_set = ws;
    params.consolidate = false;
    const MeshResult r = RunMesh(params);
    SB_CHECK(r.errors == 0 && r.rejected == 0)
        << "flat mesh errors=" << r.errors << " rejected=" << r.rejected;
    flat_epts = r.ept_count;
    const std::string key = "mesh.flat.ws" + std::to_string(ws) + ".";
    reporter.Add(key + "ops_per_sec", r.ops_per_sec);
    reporter.Add(key + "slot_faults", r.slot_faults);
    reporter.Add(key + "slot_fault_rate", r.fault_rate);
    flat.AddRow({sb::Table::Int(ws), bench::Humanize(r.ops_per_sec),
                 sb::Table::Int(r.slot_faults), Pct(r.fault_rate), sb::Table::Int(r.ept_count)});
  }
  flat.Print();

  // Self-checks. The hot-set claim is about the
  // calls that dominate the zipf mass: under LRU they stay resident and pay the
  // all-resident price, while naive round-robin replacement keeps re-evicting
  // them. Aggregate ops/s cannot separate the policies (the zipf tail faults
  // under both), so the gates are on the hot-binding probe's cycles/op.
  const double lru_vs_naive = ws16_naive_hot_cpo / ws16_lru_hot_cpo;
  const double ws16_over_resident = ws16_lru_hot_cpo / baseline_hot_cpo;
  reporter.Add("mesh.selfcheck.bindings", kBindings);
  reporter.Add("mesh.selfcheck.flat_epts", flat_epts);
  reporter.Add("mesh.selfcheck.lru_vs_naive_speedup", lru_vs_naive);
  reporter.Add("mesh.selfcheck.ws16_over_resident", ws16_over_resident);
  std::printf("\nflat-ablation EPTs: %llu (bindings %llu) from a 512-slot budget\n",
              static_cast<unsigned long long>(flat_epts),
              static_cast<unsigned long long>(kBindings));
  std::printf("hot-set cycles/op, naive vs LRU at ws=16: %.2fx (target >= 1.5x)\n",
              lru_vs_naive);
  std::printf("hot-set cycles/op, ws=16 LRU over all-resident: %.2fx (target <= 1.5x)\n",
              ws16_over_resident);
  if (flat_epts < 10000) {
    std::printf("FAIL: the consolidation-off ablation must serve >= 10k EPTs\n");
    return 1;
  }
  if (lru_vs_naive < 1.5 || ws16_over_resident > 1.5) {
    std::printf("FAIL: the LRU hot set must beat naive rotation >= 1.5x and stay within "
                "1.5x of all-resident\n");
    return 1;
  }
  return 0;
}
