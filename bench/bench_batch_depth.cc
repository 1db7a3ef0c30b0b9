// Batch-depth sweep (DESIGN.md section 13): how much of the crossing does
// the submission/completion ring amortize?
//
// Echo: null-message ping-pong through SubmitCall x depth + one FlushBatch
// + PollCompletion x depth, swept over depths 1..64, against the
// DirectServerCall baseline — once per crossing backend (DESIGN.md section
// 16: EPTP, MPK, kernel fastpath), since what batching buys is exactly one
// saved crossing per submitted call and the crossing cost differs per
// backend. KV: batched gets through the Figure-1 pipeline (client ->
// encrypt crosses once per batch; encrypt -> kv stays one nested call per
// get, so the kv sweep bounds what batching one hop of a compute-heavy
// pipeline buys).
//
// Self-checks printed at the end (CI gates them from the --json output):
//   echo speedup at depth 16 >= 3x over depth 1, on EPTP and on MPK
//   depth-1 batch within 5% of DirectServerCall (EPTP)
//
// JSON keys: the EPTP axis keeps the legacy unprefixed names
// (batch.echo.depthN...) so scripts/diff_bench.py trends stay continuous;
// mpk/syscall get batch.echo.<backend>.* keys.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/table.h"

namespace {

constexpr int kWarmup = 64;
constexpr int kEchoOps = 16384;  // Per depth; divisible by every depth below.
constexpr int kKvQueries = 1024;
constexpr int kDepths[] = {1, 2, 4, 8, 16, 32, 64};

struct EchoWorld {
  bench::World world;
  skybridge::ServerId sid = 0;
  mk::Thread* thread = nullptr;
};

EchoWorld MakeEchoWorld(skybridge::CrossingBackendKind backend) {
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

// One batched echo round: depth submissions, one flush, depth polls.
void EchoRound(skybridge::SkyBridge& sky, mk::Thread* thread, skybridge::ServerId sid,
               int depth) {
  uint64_t first_token = 0;
  for (int i = 0; i < depth; ++i) {
    auto token = sky.SubmitCall(thread, sid, mk::Message(0));
    SB_CHECK(token.ok()) << token.status().ToString();
    if (i == 0) {
      first_token = *token;
    }
  }
  SB_CHECK(sky.FlushBatch(thread, sid).ok());
  for (int i = 0; i < depth; ++i) {
    SB_CHECK(sky.PollCompletion(thread, sid, first_token + i).ok());
  }
}

struct EchoSweep {
  double direct_cpo = 0;
  double depth1_cpo = 0;
  double depth16_cpo = 0;
  double speedup_16 = 0;
  double depth1_overhead = 0;
  std::string registry_json;
};

// The full direct-baseline + depth sweep on one backend. `key_prefix` is
// "batch.echo." for the legacy EPTP axis, "batch.echo.<backend>." otherwise.
EchoSweep RunEchoSweep(bench::JsonReporter& reporter, skybridge::CrossingBackendKind backend,
                       const std::string& key_prefix) {
  EchoWorld ew = MakeEchoWorld(backend);
  skybridge::SkyBridge& sky = *ew.world.sky;
  hw::Core& core = ew.world.machine->core(0);
  EchoSweep sweep;

  for (int i = 0; i < kWarmup; ++i) {
    SB_CHECK(sky.DirectServerCall(ew.thread, ew.sid, mk::Message(0)).ok());
  }
  uint64_t start = core.cycles();
  for (int i = 0; i < kEchoOps; ++i) {
    SB_CHECK(sky.DirectServerCall(ew.thread, ew.sid, mk::Message(0)).ok());
  }
  sweep.direct_cpo = static_cast<double>(core.cycles() - start) / kEchoOps;
  reporter.Add(key_prefix + "direct_cycles_per_op", sweep.direct_cpo);

  sb::Table echo_table({"depth", "cycles/op", "Mops/s", "vs direct", "vs depth 1"});
  EchoRound(sky, ew.thread, ew.sid, 1);  // Carve the ring + warm the path.
  for (int i = 0; i < kWarmup; ++i) {
    EchoRound(sky, ew.thread, ew.sid, 1);
  }
  for (const int depth : kDepths) {
    for (int i = 0; i < kWarmup / depth + 1; ++i) {
      EchoRound(sky, ew.thread, ew.sid, depth);
    }
    start = core.cycles();
    for (int round = 0; round < kEchoOps / depth; ++round) {
      EchoRound(sky, ew.thread, ew.sid, depth);
    }
    const double cpo = static_cast<double>(core.cycles() - start) / kEchoOps;
    if (depth == 1) {
      sweep.depth1_cpo = cpo;
    }
    if (depth == 16) {
      sweep.depth16_cpo = cpo;
    }
    reporter.Add(key_prefix + "depth" + std::to_string(depth) + ".cycles_per_op", cpo);
    char mops[32];
    std::snprintf(mops, sizeof(mops), "%.1f", bench::OpsPerSecond(cpo) / 1e6);
    char vs_direct[32];
    std::snprintf(vs_direct, sizeof(vs_direct), "%.2fx", sweep.direct_cpo / cpo);
    char vs_d1[32];
    std::snprintf(vs_d1, sizeof(vs_d1), "%.2fx", sweep.depth1_cpo / cpo);
    echo_table.AddRow({std::to_string(depth), std::to_string(static_cast<uint64_t>(cpo)),
                       mops, vs_direct, vs_d1});
  }
  sweep.speedup_16 = sweep.depth1_cpo / sweep.depth16_cpo;
  sweep.depth1_overhead = sweep.depth1_cpo / sweep.direct_cpo;
  reporter.Add(key_prefix + "speedup_16", sweep.speedup_16);
  reporter.Add(key_prefix + "depth1_overhead", sweep.depth1_overhead);

  std::printf("Batched echo on %s, depth sweep (direct call: %.0f cycles/op)\n",
              skybridge::CrossingBackendName(backend), sweep.direct_cpo);
  echo_table.Print();
  std::printf("\n");
  sweep.registry_json = ew.world.machine->telemetry().SnapshotJson();
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_batch_depth", argc, argv);

  // ---- Echo: direct baseline + depth sweep, per crossing backend ----
  const EchoSweep eptp =
      RunEchoSweep(reporter, skybridge::CrossingBackendKind::kEptp, "batch.echo.");
  const EchoSweep mpk =
      RunEchoSweep(reporter, skybridge::CrossingBackendKind::kMpk, "batch.echo.mpk.");
  const EchoSweep syscall =
      RunEchoSweep(reporter, skybridge::CrossingBackendKind::kSyscall, "batch.echo.syscall.");

  // ---- KV: batched gets through the Figure-1 pipeline ----
  bench::KvWorld kvw = bench::MakeKvWorld(apps::KvWiring::kSkyBridge);
  apps::KvPipeline& pipeline = *kvw.pipeline;
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("key-" + std::to_string(i));
    SB_CHECK(pipeline.Insert(keys.back(), std::string(64, 'v')).ok());
  }
  sb::Table kv_table({"depth", "cycles/get", "vs depth 1"});
  double kv_depth1_cpo = 0;
  double kv_depth16_cpo = 0;
  hw::Core& kv_core = pipeline.client_core();
  for (const int depth : kDepths) {
    std::vector<std::string> group;
    for (int i = 0; i < depth; ++i) {
      group.push_back(keys[static_cast<size_t>(i) % keys.size()]);
    }
    for (int i = 0; i < 4; ++i) {
      (void)pipeline.QueryBatch(group);  // Warm.
    }
    const uint64_t start = kv_core.cycles();
    for (int round = 0; round < kKvQueries / depth; ++round) {
      const auto results = pipeline.QueryBatch(group);
      for (const auto& r : results) {
        SB_CHECK(r.ok()) << r.status().ToString();
      }
    }
    const double cpo =
        static_cast<double>(kv_core.cycles() - start) / (kKvQueries / depth * depth);
    if (depth == 1) {
      kv_depth1_cpo = cpo;
    }
    if (depth == 16) {
      kv_depth16_cpo = cpo;
    }
    reporter.Add("batch.kv.depth" + std::to_string(depth) + ".cycles_per_op", cpo);
    char vs_d1[32];
    std::snprintf(vs_d1, sizeof(vs_d1), "%.2fx", kv_depth1_cpo / cpo);
    kv_table.AddRow({std::to_string(depth), std::to_string(static_cast<uint64_t>(cpo)), vs_d1});
  }
  reporter.Add("batch.kv.speedup_16", kv_depth1_cpo / kv_depth16_cpo);

  std::printf("Batched KV gets (client->encrypt crossing amortized; encrypt->kv nested)\n");
  kv_table.Print();

  // ---- Self-checks ----
  std::printf("\necho speedup @16: eptp %.2fx, mpk %.2fx, syscall %.2fx (bound: >= 3x on "
              "eptp and mpk)   depth-1 overhead: %.1f%% (bound: <= 5%%)\n",
              eptp.speedup_16, mpk.speedup_16, syscall.speedup_16,
              (eptp.depth1_overhead - 1.0) * 100.0);
  reporter.AddRegistryJson(eptp.registry_json);
  if (eptp.speedup_16 < 3.0 || mpk.speedup_16 < 3.0) {
    std::printf("FAIL: batching must amortize the crossing >= 3x at depth 16\n");
    return 1;
  }
  if (eptp.depth1_overhead > 1.05) {
    std::printf("FAIL: a depth-1 ring must cost within 5%% of DirectServerCall\n");
    return 1;
  }
  return 0;
}
