// Open-loop offered-load sweep (DESIGN.md section 14): latency vs offered
// load for the echo, KV-pipeline and SQLite stacks, sync and batched client
// mixes, measured by the coordinated-omission-safe load generator.
//
// Per stack: a closed-loop run measures the saturation cycles/op, then the
// generator sweeps 0.1x..1.2x of that rate. Latency runs from each op's
// *intended* Poisson arrival, so queueing above saturation shows up as the
// latency explosion it really is. Every point carries an SLO (p99 < 20x the
// saturation service time) and the report's goodput = ops meeting it.
//
// The echo stack is then re-run at 0.5x with the PR 4 fault catalog armed
// (pre-VMFUNC kill, handler crash, reply corruption) to show recovery keeps
// goodput within 10% of the fault-free run.
//
// Self-checks printed at the end (CI gates them from the --json output):
//   zero SLO breaches at 0.5x load on every stack/mode
//   fault-enabled goodput >= 90% of fault-free
//
// Flags: --seed N, --events N (per sweep point; KV and SQLite scale it
// down), plus the standard --json / --faults. When --faults is passed on
// the command line the whole run is faulted, so the self-checks are
// reported but not meaningful as gates.

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/sqlite_stack.h"
#include "src/base/faultpoint.h"
#include "src/base/rng.h"
#include "src/base/table.h"
#include "src/sim/loadgen.h"
#include "src/skybridge/config.h"

namespace {

uint64_t g_seed = 42;
uint32_t g_events = 4096;

constexpr double kLoadFactors[] = {0.1, 0.25, 0.5, 0.8, 1.0, 1.2};
constexpr double kHalfLoad = 0.5;
constexpr double kSloMultiple = 20.0;  // p99 bound = 20x saturation cpo.
constexpr double kFaultRate = 0.002;   // Per-point probability, fault rerun.

struct EchoWorld {
  bench::World world;
  skybridge::ServerId sid = 0;
  mk::Thread* thread = nullptr;
};

EchoWorld MakeEchoWorld(
    skybridge::CrossingBackendKind backend = skybridge::CrossingBackendKind::kEptp) {
  EchoWorld ew;
  ew.world = bench::MakeWorld(mk::Sel4Profile(), true, true);
  auto* client = ew.world.kernel->CreateProcess("client").value();
  auto* server = ew.world.kernel->CreateProcess("server").value();
  ew.sid = ew.world.sky
               ->RegisterServer(server, 8, [](mk::CallEnv& env) { return env.request; },
                                backend)
               .value();
  SB_CHECK(ew.world.sky->RegisterClient(client, ew.sid).ok());
  ew.thread = client->AddThread(0);
  SB_CHECK(ew.world.kernel->ContextSwitchTo(ew.world.machine->core(0), client).ok());
  return ew;
}

sim::LoadTarget MakeEchoTarget(EchoWorld& ew) {
  skybridge::SkyBridge& sky = *ew.world.sky;
  sim::LoadTarget target;
  target.sync_call = [&ew, &sky](uint32_t, uint64_t key) {
    return sky.DirectServerCall(ew.thread, ew.sid, mk::Message(key)).status();
  };
  target.submit = [&ew, &sky](uint32_t, uint64_t key) {
    return sky.SubmitCall(ew.thread, ew.sid, mk::Message(key));
  };
  target.flush = [&ew, &sky](uint32_t) { return sky.FlushBatch(ew.thread, ew.sid); };
  target.poll = [&ew, &sky](uint32_t, uint64_t token) {
    return sky.PollCompletion(ew.thread, ew.sid, token).status();
  };
  return target;
}

// Closed-loop cycles/op of the sync path: back-to-back calls, no think time.
double MeasureSaturation(const std::function<sb::Status(uint64_t)>& op, hw::Core& core,
                         int ops, uint64_t num_keys) {
  sb::Rng rng(7);
  for (int i = 0; i < ops / 8 + 1; ++i) {
    (void)op(rng.Below(num_keys));  // Warm.
  }
  const uint64_t start = core.cycles();
  for (int i = 0; i < ops; ++i) {
    SB_CHECK(op(rng.Below(num_keys)).ok());
  }
  return static_cast<double>(core.cycles() - start) / ops;
}

std::string LoadTag(double factor) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", factor);
  return buf;
}

struct SweepResult {
  // (mode name, load factor) -> report.
  std::map<std::pair<std::string, double>, sim::LoadGenReport> points;
  double saturation_cpo = 0;
};

// Sweeps one stack over the load factors for each mode. `target` must carry
// sync_call; batched hooks are optional (SQLite coalesces bursts instead).
SweepResult SweepStack(bench::JsonReporter& reporter, const std::string& stack,
                       hw::Machine& machine, int client_core, uint64_t num_keys,
                       uint32_t events, double saturation_cpo, const sim::LoadTarget& target) {
  SweepResult result;
  result.saturation_cpo = saturation_cpo;
  reporter.Add("openloop." + stack + ".saturation_cycles_per_op", saturation_cpo);

  sb::telemetry::SloSpec slo;
  slo.percentile = 99.0;
  slo.bound_cycles = static_cast<uint64_t>(kSloMultiple * saturation_cpo) + 1;
  slo.window = 256;

  for (const char* mode : {"sync", "batched"}) {
    for (const double factor : kLoadFactors) {
      sim::LoadGenConfig config;
      config.seed = g_seed;
      config.events = events;
      config.num_clients = 1;
      config.client_cores = {client_core};
      config.num_keys = num_keys;
      config.offered_per_kcycle = factor * 1000.0 / saturation_cpo;
      config.batched = std::strcmp(mode, "batched") == 0;
      config.batch_depth = 16;
      config.slos = {slo};
      sim::LoadGenerator gen(machine, config, target);
      auto report = gen.Run();
      SB_CHECK(report.ok()) << report.status().ToString();
      const std::string prefix = "openloop." + stack + "." + mode + ".load" + LoadTag(factor);
      reporter.Add(prefix + ".p50", report->p50);
      reporter.Add(prefix + ".p99", report->p99);
      reporter.Add(prefix + ".p999", report->p999);
      reporter.Add(prefix + ".goodput", report->goodput_fraction);
      reporter.Add(prefix + ".goodput_per_kcycle", report->goodput_per_kcycle);
      reporter.Add(prefix + ".breaches", report->slo_breaches);
      reporter.Add(prefix + ".completed", report->completed);
      reporter.Add(prefix + ".errors", report->errors);
      result.points[{mode, factor}] = *report;
    }
  }

  sb::Table table({"load", "sync p50", "sync p99", "sync goodput", "batch p50", "batch p99",
                   "batch goodput"});
  for (const double factor : kLoadFactors) {
    const sim::LoadGenReport& s = result.points[{"sync", factor}];
    const sim::LoadGenReport& b = result.points[{"batched", factor}];
    char sg[16];
    char bg[16];
    std::snprintf(sg, sizeof(sg), "%.3f", s.goodput_fraction);
    std::snprintf(bg, sizeof(bg), "%.3f", b.goodput_fraction);
    table.AddRow({LoadTag(factor) + "x", std::to_string(s.p50), std::to_string(s.p99), sg,
                  std::to_string(b.p50), std::to_string(b.p99), bg});
  }
  std::printf("\n%s, open-loop sweep (saturation: %.0f cycles/op, SLO p99 < %llu)\n",
              stack.c_str(), saturation_cpo,
              static_cast<unsigned long long>(slo.bound_cycles));
  table.Print();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_openloop", argc, argv);
  bool cli_faults = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--seed") == 0) {
      g_seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (i + 1 < argc && std::strcmp(argv[i], "--events") == 0) {
      g_events = static_cast<uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (std::strncmp(argv[i], "--faults", 8) == 0) {
      cli_faults = true;
    }
  }
  reporter.Stamp("seed", std::to_string(g_seed));
  reporter.Stamp("events", std::to_string(g_events));
  reporter.Stamp("offered_loads", "[0.1,0.25,0.5,0.8,1.0,1.2]");

  // ---- Echo: one VMFUNC round trip per op ----
  EchoWorld ew = MakeEchoWorld();
  sim::LoadTarget echo_target = MakeEchoTarget(ew);
  const double echo_cpo = MeasureSaturation(
      [&](uint64_t key) { return echo_target.sync_call(0, key); },
      ew.world.machine->core(0), 2048, 1024);
  const SweepResult echo = SweepStack(reporter, "echo", *ew.world.machine, 0, 1024, g_events,
                                      echo_cpo, echo_target);

  // ---- Echo on the other crossing backends (DESIGN.md section 16): the
  // open-loop shape must hold whether the crossing is WRPKRU or a syscall,
  // just with a different saturation point. The legacy "echo" stack stays
  // EPTP so trend lines are continuous. ----
  EchoWorld ew_mpk = MakeEchoWorld(skybridge::CrossingBackendKind::kMpk);
  sim::LoadTarget mpk_target = MakeEchoTarget(ew_mpk);
  const double mpk_cpo = MeasureSaturation(
      [&](uint64_t key) { return mpk_target.sync_call(0, key); },
      ew_mpk.world.machine->core(0), 2048, 1024);
  const SweepResult echo_mpk = SweepStack(reporter, "echo_mpk", *ew_mpk.world.machine, 0, 1024,
                                          g_events, mpk_cpo, mpk_target);

  EchoWorld ew_sys = MakeEchoWorld(skybridge::CrossingBackendKind::kSyscall);
  sim::LoadTarget sys_target = MakeEchoTarget(ew_sys);
  const double sys_cpo = MeasureSaturation(
      [&](uint64_t key) { return sys_target.sync_call(0, key); },
      ew_sys.world.machine->core(0), 2048, 1024);
  const SweepResult echo_syscall = SweepStack(reporter, "echo_syscall", *ew_sys.world.machine,
                                              0, 1024, g_events, sys_cpo, sys_target);

  // ---- Fault rerun: echo at 0.5x with the recovery catalog armed ----
  // kFaultRevokeInflight stays out: revocation is permanent, so arming it
  // turns the rest of the run into a dead route rather than a recoverable
  // blip. CLI --faults runs skip this (the "clean" sweep was already
  // faulted, so the ratio would compare faulted to faulted).
  double fault_ratio_min = 1.0;
  if (!cli_faults) {
    char spec[256];
    std::snprintf(spec, sizeof(spec), "seed=%llu,%s:p=%g,%s:p=%g,%s:p=%g",
                  static_cast<unsigned long long>(g_seed), skybridge::kFaultPreVmfunc,
                  kFaultRate, skybridge::kFaultHandlerCrash, kFaultRate,
                  skybridge::kFaultReplyCorrupt, kFaultRate);
    SB_CHECK(sb::fault::ArmFromSpec(spec).ok());
    for (const char* mode : {"sync", "batched"}) {
      sim::LoadGenConfig config;
      config.seed = g_seed;
      config.events = g_events;
      config.num_clients = 1;
      config.client_cores = {0};
      config.num_keys = 1024;
      config.offered_per_kcycle = kHalfLoad * 1000.0 / echo_cpo;
      config.batched = std::strcmp(mode, "batched") == 0;
      sb::telemetry::SloSpec slo;
      slo.bound_cycles = static_cast<uint64_t>(kSloMultiple * echo_cpo) + 1;
      slo.window = 256;
      config.slos = {slo};
      sim::LoadGenerator gen(*ew.world.machine, config, echo_target);
      auto faulted = gen.Run();
      SB_CHECK(faulted.ok()) << faulted.status().ToString();
      const double clean = echo.points.at({mode, kHalfLoad}).goodput_fraction;
      const double ratio = clean > 0 ? faulted->goodput_fraction / clean : 1.0;
      fault_ratio_min = std::min(fault_ratio_min, ratio);
      const std::string prefix = std::string("openloop.fault.echo.") + mode;
      reporter.Add(prefix + ".goodput", faulted->goodput_fraction);
      reporter.Add(prefix + ".goodput_ratio", ratio);
      reporter.Add(prefix + ".errors", faulted->errors);
      std::printf("fault rerun (echo %s @0.5x): goodput %.3f vs clean %.3f (ratio %.3f)\n",
                  mode, faulted->goodput_fraction, clean, ratio);
    }
    sb::fault::DisarmAll();
  }

  // ---- KV: Figure-1 pipeline, query-only load over 128 preloaded keys ----
  bench::KvWorld kvw = bench::MakeKvWorld(apps::KvWiring::kSkyBridge);
  apps::KvPipeline& pipeline = *kvw.pipeline;
  constexpr uint64_t kKvKeys = 128;
  const auto key_for = [](uint64_t key) { return "key-" + std::to_string(key % kKvKeys); };
  for (uint64_t i = 0; i < kKvKeys; ++i) {
    SB_CHECK(pipeline.Insert(key_for(i), std::string(64, 'v')).ok());
  }
  sim::LoadTarget kv_target;
  kv_target.sync_call = [&](uint32_t, uint64_t key) {
    return pipeline.Query(key_for(key)).status();
  };
  kv_target.submit = [&](uint32_t, uint64_t key) { return pipeline.SubmitQuery(key_for(key)); };
  kv_target.flush = [&](uint32_t) { return pipeline.FlushQueries(); };
  kv_target.poll = [&](uint32_t, uint64_t token) { return pipeline.PollQuery(token).status(); };
  const int kv_core = static_cast<int>(pipeline.client_core().id());
  const double kv_cpo = MeasureSaturation(
      [&](uint64_t key) { return kv_target.sync_call(0, key); }, pipeline.client_core(), 512,
      kKvKeys);
  const uint32_t kv_events = std::max<uint32_t>(512, g_events / 4);
  const SweepResult kv = SweepStack(reporter, "kv", *kvw.world.machine, kv_core, kKvKeys,
                                    kv_events, kv_cpo, kv_target);

  // ---- SQLite: full stack, query-only zipfian load; no submission ring, so
  // the batched mode exercises the generator's burst-coalescing fallback ----
  apps::SqliteStackConfig sconfig;
  sconfig.kernel = mk::KernelKind::kSel4;
  sconfig.transport = apps::StackTransport::kSkyBridge;
  sconfig.preload_records = 600;
  sconfig.db.row_cache_entries = 96;
  sconfig.db.pager_cache_pages = 48;
  auto stack = apps::SqliteStack::Create(sconfig);
  SB_CHECK(stack.ok()) << stack.status().ToString();
  sim::LoadTarget sql_target;
  sql_target.sync_call = [&](uint32_t, uint64_t key) {
    return (*stack)->Query(0, key % sconfig.preload_records).status();
  };
  const double sql_cpo = MeasureSaturation(
      [&](uint64_t key) { return sql_target.sync_call(0, key); }, (*stack)->machine().core(0),
      96, sconfig.preload_records);
  const uint32_t sql_events = std::max<uint32_t>(256, g_events / 16);
  const SweepResult sql = SweepStack(reporter, "sqlite", (*stack)->machine(), 0,
                                     sconfig.preload_records, sql_events, sql_cpo, sql_target);

  // ---- Self-checks ----
  uint64_t breaches_at_half = 0;
  for (const auto* sweep : {&echo, &echo_mpk, &echo_syscall, &kv, &sql}) {
    for (const char* mode : {"sync", "batched"}) {
      breaches_at_half += sweep->points.at({mode, kHalfLoad}).slo_breaches;
    }
  }
  reporter.Add("openloop.selfcheck.breaches_at_half_load", breaches_at_half);
  reporter.Add("openloop.selfcheck.fault_goodput_ratio_min", fault_ratio_min);
  std::printf("\nbreaches @0.5x across stacks: %llu (bound: 0)   fault goodput ratio: %.3f "
              "(bound: >= 0.9)\n",
              static_cast<unsigned long long>(breaches_at_half), fault_ratio_min);
  if (breaches_at_half != 0) {
    std::printf("FAIL: no stack may breach its SLO at 0.5x saturation\n");
    return 1;
  }
  if (fault_ratio_min < 0.9) {
    std::printf("FAIL: the fault-catalog rerun must keep >= 90%% of fault-free goodput\n");
    return 1;
  }
  return 0;
}
