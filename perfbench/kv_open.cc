// kv_open: the Figure-1 pipeline (client -> encrypt -> kv, real XTEA) under
// open-loop Poisson gets over preloaded keys. The same seeded schedule runs
// with sync clients (one crossing per get) and batched clients
// (SubmitQuery / FlushQueries / PollQuery: one crossing per flush) at every
// rung of a fixed ladder of absolute offered rates.
//
// Oracle: every decrypted get equals the value inserted for its key.

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/constants.h"
#include "perfbench/workloads.h"
#include "src/apps/kv.h"
#include "src/base/rng.h"
#include "src/base/units.h"

namespace perfbench {
namespace {

struct KvWorld {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<mk::Kernel> kernel;
  std::unique_ptr<skybridge::SkyBridge> sky;
  std::unique_ptr<apps::KvPipeline> pipeline;
};

}  // namespace

sb::Status RunKvOpen(const Options& options, Report& report) {
  std::vector<std::string> keys(kKvKeys);
  std::vector<std::string> values(kKvKeys);
  sb::Rng value_rng(options.seed ^ 0x6b765f76616cULL);
  for (uint64_t k = 0; k < kKvKeys; ++k) {
    keys[k] = "key-" + std::to_string(k);
    values[k].resize(kKvValueBytes);
    for (char& c : values[k]) {
      c = static_cast<char>('a' + value_rng.Below(26));
    }
  }

  // ---- Set-up: boot, registration and preload, repeated for setup_s ----
  std::unique_ptr<KvWorld> owner;
  std::vector<double> setup_times;
  SetupCost cost;
  for (int i = 0; i < kKvSetupRepeats; ++i) {
    owner.reset();  // Members tear down in reverse: pipeline first, machine last.
    owner = std::make_unique<KvWorld>();
    KvWorld& world = *owner;
    cost = SetupCost();
    const CalibratedTimer timer;
    hw::MachineConfig mc;
    mc.ram_bytes = 4 * sb::kGiB;
    world.machine = std::make_unique<hw::Machine>(mc);
    world.kernel = std::make_unique<mk::Kernel>(*world.machine, mk::Sel4Profile());
    SB_RETURN_IF_ERROR(world.kernel->Boot());
    skybridge::SkyBridgeConfig config;
    PinConfig(config);
    world.sky = std::make_unique<skybridge::SkyBridge>(*world.kernel, config);
    world.pipeline = std::make_unique<apps::KvPipeline>(*world.kernel, world.sky.get(),
                                                        apps::KvWiring::kSkyBridge);
    {
      Tracer::Scope span(GlobalTracer(), "apps.KvPipeline::Setup", 0, nullptr);
      SB_RETURN_IF_ERROR(world.pipeline->Setup());
    }
    const double preload_start = HostNowS();
    for (uint64_t k = 0; k < kKvKeys; ++k) {
      SB_RETURN_IF_ERROR(world.pipeline->Insert(keys[k], values[k]));
    }
    cost.preload_s = HostNowS() - preload_start;
    SB_RETURN_IF_ERROR(ProbeRegistration(*world.kernel, *world.sky, 4, cost));
    setup_times.push_back(timer.Seconds());
  }
  KvWorld& world = *owner;
  CheckPinned(report, *world.sky);
  hw::Machine& machine = *world.machine;
  apps::KvPipeline& pipeline = *world.pipeline;
  hw::Core& core = pipeline.client_core();
  ReportSetup(report, cost, setup_times, TakeSnapshot(machine));

  uint64_t op_id = 0;
  const auto check = [&](uint64_t key, const sb::StatusOr<std::string>& got) -> sb::Status {
    SB_RETURN_IF_ERROR(got.status());
    if (*got != values[key]) {
      report.Fail("kv_open: get of " + keys[key] + " returned wrong bytes");
      return sb::Internal("wrong bytes");
    }
    return sb::OkStatus();
  };
  const auto get = [&](uint64_t key) -> sb::Status {
    Tracer::Scope span(GlobalTracer(), "apps.KvPipeline::Query", ++op_id, &core);
    return check(key, pipeline.Query(keys[key]));
  };
  std::unordered_map<uint64_t, uint64_t> token_keys;
  OpHooks hooks;
  hooks.call = [&](uint32_t, uint64_t key) { return get(key); };
  hooks.submit = [&](uint32_t, uint64_t key) -> sb::StatusOr<uint64_t> {
    Tracer::Scope span(GlobalTracer(), "apps.KvPipeline::SubmitQuery", ++op_id, &core);
    sb::StatusOr<uint64_t> token = pipeline.SubmitQuery(keys[key]);
    if (token.ok()) {
      token_keys[*token] = key;
    }
    return token;
  };
  hooks.flush = [&](uint32_t) {
    Tracer::Scope span(GlobalTracer(), "apps.KvPipeline::FlushQueries", op_id, &core);
    return pipeline.FlushQueries();
  };
  hooks.poll = [&](uint32_t, uint64_t token) -> sb::Status {
    Tracer::Scope span(GlobalTracer(), "apps.KvPipeline::PollQuery", op_id, &core);
    sb::StatusOr<std::string> reply = pipeline.PollQuery(token);
    if (reply.status().code() == sb::ErrorCode::kUnavailable) {
      return reply.status();
    }
    const auto it = token_keys.find(token);
    if (it == token_keys.end()) {
      report.Fail("kv_open: completion for an unknown token");
      return sb::Internal("unknown token");
    }
    const uint64_t key = it->second;
    token_keys.erase(it);
    return check(key, reply);
  };

  sb::Rng pick(options.seed ^ 0x6b765f6765ULL);
  const std::vector<int> cores = {core.id()};
  const auto closed_get = [&](uint32_t, uint64_t) { return get(pick.Below(kKvKeys)); };

  // ---- Warm-up ----
  RunClosedLoop(machine, cores, kKvWarmGets, closed_get, report);

  // ---- Measured phase: warm closed-loop gets, then the ladder ----
  const Snapshot before = TakeSnapshot(machine);
  const double service_start = HostNowS();
  const double deadline = service_start + options.seconds;
  ClosedLoopResult service = RunClosedLoop(machine, cores, kKvServiceGets, closed_get, report);
  const double service_host_s = HostNowS() - service_start;
  const uint64_t service_crossings =
      Delta(before, TakeSnapshot(machine), "skybridge.ipc.direct_calls");

  LoadSpec spec;
  spec.ladder = kKvLadder;
  spec.rungs = std::size(kKvLadder);
  spec.reference = kKvReference;
  spec.p99_limit_cycles = kKvP99LimitCycles;
  spec.events = kKvLadderEvents;
  spec.batch_depth = kBatchDepth;
  spec.num_keys = kKvKeys;
  spec.cores = cores;
  spec.seed = options.seed;
  const LadderResult ladder = RunLadder(machine, spec, hooks, report);
  const Snapshot after = TakeSnapshot(machine);

  ReportLadder(report, ladder, /*op_latency_from_ladder=*/true);
  report.EndToEnd("sim_ops_per_s", OpsPerSimSecond(service.ops, service.elapsed_cycles),
                  "ops/sim_s", true);
  ReportCommonLayers(report, before, after, service.ops + ladder.ops);
  report.Layer("skybridge.call_host_ns",
               service_host_s * 1e9 / static_cast<double>(std::max<uint64_t>(service_crossings, 1)),
               "ns", false);
  ReportStorageIdle(report);
  report.Layer("apps.get_service_cycles", static_cast<double>(Percentile(service.latencies, 50)),
               "cycles", true);
  CheckVmExits(report, before, after, /*allow_hypercalls=*/false);
  std::printf("kv_open: %llu closed-loop gets, %llu ladder ops\n",
              static_cast<unsigned long long>(service.ops),
              static_cast<unsigned long long>(ladder.ops));

  // ---- Host throughput rounds: the sync mix at the reference rate ----
  ReportHostRounds(report, deadline, [&] {
    return RunOpenLoop(machine, spec, hooks, kKvReference, false, report).ops;
  });

  if (!token_keys.empty()) {
    report.Fail("kv_open: batched gets never completed: " + std::to_string(token_keys.size()));
  }
  CheckQuiesced(report, *world.sky);
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", false);
  return sb::OkStatus();
}

}  // namespace perfbench
