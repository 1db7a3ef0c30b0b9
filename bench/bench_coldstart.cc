// Cold-start sweep (DESIGN.md section 17): spawn-to-first-call latency for a
// fleet of workers cloned from one multi-page template image, under the four
// registration strategies:
//
//   eager-nocache  full per-page scan on every registration (the ablation
//                  baseline: rewrite_cache_entries = 0)
//   eager          scan once, every identical fork replays from the
//                  content-hashed rewrite cache
//   lazy           rewrite-on-first-execute: registration arms non-exec
//                  pages, the first call faults its pages in
//   snapshot       first worker scans and auto-captures; every clone
//                  restores the finished registration (bulk copy, no scan)
//
// Swept over 1 / 10 / 100 / 1000 workers. Self-checks (CI gates these via
// scripts/run_all.sh):
//   snapshot spawn-to-first-call >= 10x cheaper than eager-nocache @ 100
//   100% rewrite-cache hit rate for the 99 identical forks @ 100 (eager)
//   lazy steady-state cycles/call within 10% of eager after warm-up
//
// JSON keys: coldstart.<mode>.workers<N>.cycles_per_spawn plus the gate
// metrics coldstart.snapshot_speedup_100, coldstart.fork_hit_rate_100 and
// coldstart.lazy_steady_overhead.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/table.h"
#include "src/base/units.h"
#include "src/skybridge/skybridge.h"
#include "src/x86/scanner.h"

namespace {

constexpr size_t kTemplatePages = 16;  // The full code window: a realistic service binary.
constexpr int kWorkerCounts[] = {1, 10, 100, 1000};
constexpr int kSteadyWarmup = 64;
constexpr int kSteadyOps = 4096;

struct Mode {
  const char* name;
  skybridge::RegistrationMode mode;
  size_t cache_entries;
};

const Mode kModes[] = {
    {"eager-nocache", skybridge::RegistrationMode::kEager, 0},
    {"eager", skybridge::RegistrationMode::kEager, 4096},
    {"lazy", skybridge::RegistrationMode::kLazy, 4096},
    {"snapshot", skybridge::RegistrationMode::kSnapshot, 4096},
};

// The worker template: a 16-page NOP sled with two embedded gate patterns —
// enough image for the scan cost to dominate the eager cold start, with
// real rewrite work (snippets) for the cache and snapshots to carry.
std::vector<uint8_t> TemplateImage() {
  std::vector<uint8_t> image(kTemplatePages * sb::kPageSize, 0x90);
  auto plant = [&image](size_t offset) {
    image[offset] = 0xb8;  // mov eax, imm32 embedding 0f 01 d4.
    image[offset + 1] = 0x0f;
    image[offset + 2] = 0x01;
    image[offset + 3] = 0xd4;
    image[offset + 4] = 0x00;
  };
  plant(2 * sb::kPageSize + 2048);
  plant(5 * sb::kPageSize + 2048);
  image.back() = 0xc3;
  return image;
}

struct World {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<mk::Kernel> kernel;
  std::unique_ptr<skybridge::SkyBridge> sky;
  // Workers shard round-robin across servers (max_connections caps at 256).
  std::vector<skybridge::ServerId> sids;
};

World MakeWorld(const Mode& mode, int workers) {
  World w;
  hw::MachineConfig mc;
  mc.num_cores = 2;
  mc.ram_bytes = 32 * sb::kGiB;  // Sparse host backing; 1000 workers need headroom.
  w.machine = std::make_unique<hw::Machine>(mc);
  w.kernel = std::make_unique<mk::Kernel>(*w.machine, mk::Sel4Profile());
  SB_CHECK(w.kernel->Boot().ok());
  skybridge::SkyBridgeConfig config;
  config.crossing_backend = skybridge::CrossingBackendKind::kEptp;
  config.registration_mode = mode.mode;
  config.rewrite_cache_entries = mode.cache_entries;
  w.sky = std::make_unique<skybridge::SkyBridge>(*w.kernel, config);
  const int shards = (workers + 249) / 250;
  for (int i = 0; i < shards; ++i) {
    auto* server =
        w.kernel->CreateProcess("coldstart-server-" + std::to_string(i)).value();
    w.sids.push_back(w.sky
                         ->RegisterServer(server, 256,
                                          [](mk::CallEnv& env) { return env.request; })
                         .value());
  }
  return w;
}

struct SpawnResult {
  double cycles_per_spawn = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // The last worker's thread and binding, left resident on core 0 for the
  // steady phase.
  mk::Thread* last_thread = nullptr;
  skybridge::ServerId last_sid = 0;
};

// Spawns `workers` clones of the template and drives each through its first
// call; returns the average core-0 cycle cost of one spawn-to-first-call.
SpawnResult SpawnFleet(World& w, int workers, const std::vector<uint8_t>& image) {
  hw::Core& core = w.machine->core(0);
  const sb::telemetry::Registry& reg = w.machine->telemetry();
  const uint64_t hits_before = reg.Value("skybridge.registration.cache_hits");
  const uint64_t misses_before = reg.Value("skybridge.registration.cache_misses");
  const uint64_t start = core.cycles();
  SpawnResult result;
  for (int i = 0; i < workers; ++i) {
    const skybridge::ServerId sid = w.sids[static_cast<size_t>(i) % w.sids.size()];
    auto* worker =
        w.kernel->CreateProcessWithImage("worker-" + std::to_string(i), image).value();
    SB_CHECK(w.sky->RegisterClient(worker, sid).ok());
    result.last_thread = worker->AddThread(0);
    result.last_sid = sid;
    SB_CHECK(w.kernel->ContextSwitchTo(core, worker).ok());
    SB_CHECK(w.sky->DirectServerCall(result.last_thread, sid, mk::Message(0)).ok());
  }
  result.cycles_per_spawn = static_cast<double>(core.cycles() - start) / workers;
  result.cache_hits = reg.Value("skybridge.registration.cache_hits") - hits_before;
  result.cache_misses = reg.Value("skybridge.registration.cache_misses") - misses_before;
  return result;
}

// Warm steady-state cycles/call on the fleet's last worker.
double SteadyCyclesPerCall(World& w, const SpawnResult& spawn) {
  hw::Core& core = w.machine->core(0);
  for (int i = 0; i < kSteadyWarmup; ++i) {
    SB_CHECK(w.sky->DirectServerCall(spawn.last_thread, spawn.last_sid, mk::Message(0)).ok());
  }
  const uint64_t start = core.cycles();
  for (int i = 0; i < kSteadyOps; ++i) {
    SB_CHECK(w.sky->DirectServerCall(spawn.last_thread, spawn.last_sid, mk::Message(0)).ok());
  }
  return static_cast<double>(core.cycles() - start) / kSteadyOps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_coldstart", argc, argv);
  const std::vector<uint8_t> image = TemplateImage();
  SB_CHECK(x86::FindVmfuncBytes(image).size() == 2);

  sb::Table table({"workers", "eager-nocache", "eager", "lazy", "snapshot", "snap speedup"});
  double eager_nocache_100 = 0;
  double snapshot_100 = 0;
  double fork_hit_rate_100 = 0;
  double eager_steady = 0;
  double lazy_steady = 0;
  std::string registry_json;

  for (const int workers : kWorkerCounts) {
    std::vector<double> row;
    for (const Mode& mode : kModes) {
      World w = MakeWorld(mode, workers);
      const SpawnResult spawn = SpawnFleet(w, workers, image);
      row.push_back(spawn.cycles_per_spawn);
      reporter.Add("coldstart." + std::string(mode.name) + ".workers" +
                       std::to_string(workers) + ".cycles_per_spawn",
                   spawn.cycles_per_spawn);
      if (workers == 100) {
        if (std::string(mode.name) == "eager-nocache") {
          eager_nocache_100 = spawn.cycles_per_spawn;
        } else if (std::string(mode.name) == "eager") {
          // Worker 1 scans the template's pages cold; workers 2..100 must
          // replay every page from the cache: hit rate over the forks.
          const uint64_t expected = static_cast<uint64_t>(workers - 1) * kTemplatePages;
          fork_hit_rate_100 =
              expected == 0 ? 0.0 : static_cast<double>(spawn.cache_hits) / expected;
          eager_steady = SteadyCyclesPerCall(w, spawn);
          registry_json = w.machine->telemetry().SnapshotJson();
        } else if (std::string(mode.name) == "lazy") {
          lazy_steady = SteadyCyclesPerCall(w, spawn);
        } else {
          snapshot_100 = spawn.cycles_per_spawn;
        }
      }
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", row[0] / row[3]);
    table.AddRow({std::to_string(workers), std::to_string(static_cast<uint64_t>(row[0])),
                  std::to_string(static_cast<uint64_t>(row[1])),
                  std::to_string(static_cast<uint64_t>(row[2])),
                  std::to_string(static_cast<uint64_t>(row[3])), speedup});
  }

  const double snapshot_speedup = eager_nocache_100 / snapshot_100;
  const double lazy_overhead = lazy_steady / eager_steady;
  reporter.Add("coldstart.snapshot_speedup_100", snapshot_speedup);
  reporter.Add("coldstart.fork_hit_rate_100", fork_hit_rate_100);
  reporter.Add("coldstart.eager.steady_cycles_per_call", eager_steady);
  reporter.Add("coldstart.lazy.steady_cycles_per_call", lazy_steady);
  reporter.Add("coldstart.lazy_steady_overhead", lazy_overhead);
  reporter.AddRegistryJson(registry_json);

  std::printf("Cold start: spawn-to-first-call cycles per worker (template: %zu pages)\n",
              kTemplatePages);
  table.Print();
  std::printf("\nsnapshot speedup @100: %.1fx (bound: >= 10x)   fork hit rate @100: "
              "%.1f%% (bound: 100%%)   lazy steady-state: %.0f vs eager %.0f "
              "cycles/call (bound: within 10%%)\n",
              snapshot_speedup, fork_hit_rate_100 * 100.0, lazy_steady, eager_steady);

  // ---- Self-checks ----
  if (snapshot_speedup < 10.0) {
    std::printf("FAIL: snapshot restore must beat the eager full scan >= 10x at 100 "
                "workers\n");
    return 1;
  }
  if (fork_hit_rate_100 < 1.0) {
    std::printf("FAIL: identical forks must replay 100%% from the rewrite cache\n");
    return 1;
  }
  if (lazy_overhead > 1.10 || lazy_overhead < 0.90) {
    std::printf("FAIL: lazy steady-state must stay within 10%% of eager cycles/call\n");
    return 1;
  }
  return 0;
}
