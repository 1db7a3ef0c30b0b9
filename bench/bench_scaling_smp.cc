// SMP scaling of the SkyBridge control plane (DESIGN.md section 11).
//
// Part 1 — aggregate throughput: N disjoint (client, server) pairs, pair i
// pinned to simulated core i, each client hammering DirectServerCall over
// the sim::Executor. Steady-state calls on different cores share no mutable
// control-plane word, so aggregate ops/s should scale ~linearly 1 -> 8.
//
// Part 2 — migration sweep: one pair whose client thread migrates to the
// next core every K calls, comparing the scheduler's eager EPTP-list
// re-install (skybridge.eptp.migration_installs) against the lazy
// dispatch-on-next-call fallback.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/table.h"
#include "src/sim/executor.h"

namespace {

struct Pair {
  mk::Process* client = nullptr;
  mk::Process* server = nullptr;
  mk::Thread* thread = nullptr;
  skybridge::ServerId sid = 0;
};

Pair MakePair(bench::World& world, int core, int index) {
  Pair p;
  p.client = world.kernel->CreateProcess("client" + std::to_string(index)).value();
  p.server = world.kernel->CreateProcess("server" + std::to_string(index)).value();
  p.sid = world.sky
              ->RegisterServer(p.server, /*max_connections=*/8,
                               [](mk::CallEnv& env) { return env.request; })
              .value();
  SB_CHECK(world.sky->RegisterClient(p.client, p.sid).ok());
  p.thread = p.client->AddThread(core);
  SB_CHECK(world.kernel->ContextSwitchTo(world.machine->core(core), p.client).ok());
  // Pre-warm: first call pays rewrite/dispatch/cache-miss costs once, so the
  // measured loop is the steady state.
  SB_CHECK(world.sky->DirectServerCall(p.thread, p.sid, mk::Message(0)).ok());
  return p;
}

// Aligns every core clock to the latest setup-time cycle count and returns it.
uint64_t AlignClocks(bench::World& world) {
  uint64_t base = 0;
  for (int c = 0; c < world.machine->num_cores(); ++c) {
    base = std::max(base, world.machine->core(c).cycles());
  }
  for (int c = 0; c < world.machine->num_cores(); ++c) {
    world.machine->core(c).SyncClockTo(base);
  }
  return base;
}

constexpr uint64_t kOpsPerClient = 4096;

// N pairs on N cores; returns aggregate ops/s.
double RunScaling(int pairs) {
  bench::World world = bench::MakeWorld(mk::Sel4Profile(), /*rootkernel=*/true,
                                        /*skybridge=*/true, /*cores=*/8);
  std::vector<Pair> ps;
  for (int i = 0; i < pairs; ++i) {
    ps.push_back(MakePair(world, /*core=*/i, i));
  }
  const uint64_t base = AlignClocks(world);
  sim::Executor exec(*world.machine);
  for (int i = 0; i < pairs; ++i) {
    const Pair& p = ps[static_cast<size_t>(i)];
    skybridge::SkyBridge* sky = world.sky.get();
    sim::SimThread* t =
        exec.AddThread("client" + std::to_string(i), i, [=](sim::SimThread& st) {
          SB_CHECK(sky->DirectServerCall(p.thread, p.sid, mk::Message(1)).ok());
          return st.iterations() + 1 < kOpsPerClient;
        });
    t->set_now(base);
  }
  exec.RunToCompletion();
  const double seconds = static_cast<double>(exec.max_time() - base) /
                         hw::DefaultCosts().cycles_per_second;
  return static_cast<double>(kOpsPerClient) * pairs / seconds;
}

struct MigrationResult {
  double ops_per_sec = 0;
  uint64_t migration_installs = 0;
  uint64_t stale_slot_retries = 0;
};

// One pair; the client hops to the next core every `period` calls (0 = never).
MigrationResult RunMigration(uint64_t period, bool eager) {
  bench::World world = bench::MakeWorld(mk::Sel4Profile(), /*rootkernel=*/true,
                                        /*skybridge=*/true, /*cores=*/8);
  Pair p = MakePair(world, /*core=*/0, 0);
  // Unrelated work runs on the other cores between visits, so the roamer
  // never finds its address space still live on the destination.
  mk::Process* polluter = world.kernel->CreateProcess("polluter").value();
  const sb::telemetry::Registry& reg = world.machine->telemetry();
  const uint64_t installs0 = reg.Value("skybridge.eptp.migration_installs");
  const uint64_t retries0 = reg.Value("skybridge.ipc.stale_slot_retries");
  const uint64_t base = AlignClocks(world);
  sim::Executor exec(*world.machine);
  skybridge::SkyBridge* sky = world.sky.get();
  mk::Kernel* kernel = world.kernel.get();
  hw::Machine* machine = world.machine.get();
  sim::SimThread* t = exec.AddThread("roamer", 0, [=](sim::SimThread& st) {
    if (period != 0 && st.iterations() != 0 && st.iterations() % period == 0) {
      const int src = p.thread->core_id();
      const int dest = (src + 1) % machine->num_cores();
      // Wall-clock continuity: the thread resumes on the destination no
      // earlier than when it left the source core.
      machine->core(dest).SyncClockTo(machine->core(src).cycles());
      SB_CHECK(kernel->ContextSwitchTo(machine->core(dest), polluter).ok());
      SB_CHECK(kernel->MigrateThread(p.thread, dest, eager).ok());
      st.set_core(&machine->core(dest));
    }
    SB_CHECK(sky->DirectServerCall(p.thread, p.sid, mk::Message(1)).ok());
    return st.iterations() + 1 < kOpsPerClient;
  });
  t->set_now(base);
  exec.RunToCompletion();
  const double seconds = static_cast<double>(exec.max_time() - base) /
                         hw::DefaultCosts().cycles_per_second;
  MigrationResult r;
  r.ops_per_sec = static_cast<double>(kOpsPerClient) / seconds;
  r.migration_installs = reg.Value("skybridge.eptp.migration_installs") - installs0;
  r.stale_slot_retries = reg.Value("skybridge.ipc.stale_slot_retries") - retries0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_scaling_smp", argc, argv);
  std::printf("== SMP scaling: disjoint SkyBridge pairs across cores ==\n");
  std::printf("Steady-state calls share no control-plane state; aggregate ops/s\n");
  std::printf("should scale ~linearly with cores.\n\n");

  sb::Table scaling({"Cores", "Aggregate ops/s", "Speedup"});
  double ops1 = 0;
  for (const int cores : {1, 2, 4, 8}) {
    const double ops = RunScaling(cores);
    if (cores == 1) {
      ops1 = ops;
    }
    reporter.Add("scaling.cores" + std::to_string(cores) + ".ops_per_sec", ops);
    scaling.AddRow({sb::Table::Int(static_cast<uint64_t>(cores)), bench::Humanize(ops),
                    sb::Table::Fixed(ops / ops1, 2) + "x"});
  }
  scaling.Print();
  const double speedup8 = RunScaling(8) / ops1;
  reporter.Add("scaling.speedup_8c", speedup8);
  std::printf("\n8-core speedup: %.2fx (target: >= 6x)\n\n", speedup8);

  std::printf("== Migration sweep: one pair, client hops cores every K calls ==\n");
  std::printf("Eager: the scheduler re-installs the EPTP list at migration time.\n");
  std::printf("Lazy: the next call dispatches (and installs) on the new core.\n\n");
  sb::Table mig({"Period", "Mode", "ops/s", "MigrationInstalls", "StaleRetries"});
  bool installs_ok = true;  // Migrating runs: eager installs, lazy never does.
  for (const uint64_t period : {uint64_t{0}, uint64_t{64}, uint64_t{16}, uint64_t{4}}) {
    for (const bool eager : {true, false}) {
      if (period == 0 && !eager) {
        continue;  // No migrations: the modes are identical.
      }
      const MigrationResult r = RunMigration(period, eager);
      const std::string mode = eager ? "eager" : "lazy";
      const std::string key =
          "migration.period" + std::to_string(period) + "." + mode + ".";
      reporter.Add(key + "ops_per_sec", r.ops_per_sec);
      reporter.Add(key + "migration_installs", r.migration_installs);
      reporter.Add(key + "stale_slot_retries", r.stale_slot_retries);
      if (period != 0 && (r.migration_installs > 0) != eager) {
        installs_ok = false;
      }
      mig.AddRow({period == 0 ? "never" : sb::Table::Int(period), mode,
                  bench::Humanize(r.ops_per_sec), sb::Table::Int(r.migration_installs),
                  sb::Table::Int(r.stale_slot_retries)});
    }
  }
  mig.Print();

  // ---- Self-checks ----
  if (speedup8 < 6.0) {
    std::printf("FAIL: disjoint pairs must scale >= 6x on 8 cores\n");
    return 1;
  }
  if (!installs_ok) {
    std::printf("FAIL: migrations must install eagerly in eager mode and never in lazy mode\n");
    return 1;
  }
  return 0;
}
