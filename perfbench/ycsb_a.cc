// ycsb_a: the Section 6.5 stack (minisql -> xv6fs -> ramdisk over
// SkyBridge, seL4 profile) under YCSB-A — 50% reads, 50% updates, zipf
// 0.99 — from one closed-loop client thread, then the same op mix on the
// open-loop rate ladder. The table outgrows minisql's row cache and pager
// cache, so the zipf tail reaches the file system and the RAM disk.
//
// Oracle: every read's bytes equal the preloaded YcsbWorkload::ValueFor
// bytes or the last value this run wrote to the key (each update writes
// distinct bytes); Xv6Fs::Fsck() passes after the run.

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/constants.h"
#include "perfbench/workloads.h"
#include "src/apps/sqlite_stack.h"
#include "src/base/rng.h"

namespace perfbench {

sb::Status RunYcsbA(const Options& options, Report& report) {
  apps::SqliteStackConfig config;
  config.kernel = mk::KernelKind::kSel4;
  config.transport = apps::StackTransport::kSkyBridge;
  config.num_client_threads = 1;
  config.preload_records = kYcsbRecords;
  config.db.row_cache_entries = kYcsbRowCache;
  config.db.pager_cache_pages = kYcsbPagerPages;

  // ---- Set-up: boot, registration and preload, repeated for setup_s ----
  std::unique_ptr<apps::SqliteStack> stack;
  std::vector<double> setup_times;
  SetupCost cost;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    cost = SetupCost();
    const CalibratedTimer timer;
    const double start = HostNowS();
    sb::StatusOr<std::unique_ptr<apps::SqliteStack>> created = [&] {
      Tracer::Scope span(GlobalTracer(), "apps.SqliteStack::Create", 0, nullptr);
      return apps::SqliteStack::Create(config);
    }();
    SB_RETURN_IF_ERROR(created.status());
    stack = std::move(*created);
    cost.preload_s = HostNowS() - start;
    SB_RETURN_IF_ERROR(ProbeRegistration(stack->kernel(), *stack->sky(), 4, cost));
    setup_times.push_back(timer.Seconds());
  }
  CheckPinned(report, *stack->sky());
  hw::Machine& machine = stack->machine();
  hw::Core& core = machine.core(stack->client_thread(0)->core_id());
  ReportSetup(report, cost, setup_times, TakeSnapshot(machine));

  // ---- The oracle's model of the table ----
  apps::YcsbConfig preload_config;  // Create preloads with the default value seed.
  preload_config.record_count = kYcsbRecords;
  const apps::YcsbWorkload preloaded(preload_config);
  std::vector<std::vector<uint8_t>> expected(kYcsbRecords);
  for (uint64_t key = 0; key < kYcsbRecords; ++key) {
    expected[key] = preloaded.ValueFor(key);
  }

  apps::YcsbConfig wl = apps::YcsbA();
  wl.record_count = kYcsbRecords;
  wl.seed = options.seed;
  apps::YcsbWorkload workload(wl);
  uint64_t version = 0;
  uint64_t op_id = 0;
  std::vector<uint64_t> read_cycles;
  std::vector<uint64_t> update_cycles;
  bool record_types = false;

  const auto run_op = [&](const apps::YcsbOp& op) -> sb::Status {
    ++op_id;
    const uint64_t start = core.cycles();
    if (op.type == apps::YcsbOpType::kRead) {
      const sb::StatusOr<std::vector<uint8_t>> row = [&] {
        Tracer::Scope span(GlobalTracer(), "apps.SqliteStack::Query", op_id, &core);
        return stack->Query(0, op.key);
      }();
      SB_RETURN_IF_ERROR(row.status());
      if (*row != expected[op.key]) {
        report.Fail("ycsb_a: read of key " + std::to_string(op.key) + " returned wrong bytes");
        return sb::Internal("wrong bytes");
      }
      if (record_types) {
        read_cycles.push_back(core.cycles() - start);
      }
      return sb::OkStatus();
    }
    std::vector<uint8_t> value = workload.ValueFor(op.key);
    ++version;
    std::memcpy(value.data(), &version, sizeof(version));
    sb::Status status;
    {
      Tracer::Scope span(GlobalTracer(), "apps.SqliteStack::Update", op_id, &core);
      status = stack->Update(0, op.key, value);
    }
    if (!status.ok()) {
      report.Fail("ycsb_a: update failed, table state unknown: " + status.ToString());
      return status;
    }
    expected[op.key] = std::move(value);
    if (record_types) {
      update_cycles.push_back(core.cycles() - start);
    }
    return sb::OkStatus();
  };
  const std::vector<int> cores = {core.id()};
  const auto closed_op = [&](uint32_t, uint64_t) { return run_op(workload.NextOp()); };

  // ---- Warm-up ----
  RunClosedLoop(machine, cores, kYcsbWarmOps, closed_op, report);

  // ---- Measured phase: closed loop, then the open-loop ladder ----
  const Snapshot before = TakeSnapshot(machine);
  const fsys::FsStats fs_before = stack->fs().stats();
  const minisql::DbStats db_before = stack->db().stats();
  const uint64_t pager_before = stack->db().pager().cache_hits();
  record_types = true;
  const double closed_start = HostNowS();
  const double deadline = closed_start + options.seconds;
  ClosedLoopResult closed = RunClosedLoop(machine, cores, kYcsbMeasuredOps, closed_op, report);
  const double closed_host_s = HostNowS() - closed_start;
  const uint64_t closed_crossings =
      Delta(before, TakeSnapshot(machine), "skybridge.ipc.direct_calls");
  record_types = false;

  sb::Rng mix(options.seed ^ 0x9cb5a11dULL);
  OpHooks hooks;
  hooks.call = [&](uint32_t, uint64_t key) {
    apps::YcsbOp op;
    op.key = key;
    op.type = mix.NextDouble() < wl.read_fraction ? apps::YcsbOpType::kRead
                                                  : apps::YcsbOpType::kUpdate;
    return run_op(op);
  };
  LoadSpec spec;
  spec.ladder = kYcsbLadder;
  spec.rungs = std::size(kYcsbLadder);
  spec.reference = kYcsbReference;
  spec.p99_limit_cycles = kYcsbP99LimitCycles;
  spec.events = kYcsbLadderEvents;
  spec.batch_depth = kBatchDepth;
  spec.num_keys = kYcsbRecords;
  spec.zipf_theta = wl.zipfian_theta;
  spec.cores = cores;
  spec.seed = options.seed;
  const LadderResult ladder = RunLadder(machine, spec, hooks, report);
  const Snapshot after = TakeSnapshot(machine);
  const fsys::FsStats& fs_after = stack->fs().stats();
  const minisql::DbStats& db_after = stack->db().stats();
  const uint64_t ops = closed.ops + ladder.ops;

  // YCSB-A's even read/update mix has two latency modes that do not
  // overlap, so the plain median of all ops lands on whichever mode the
  // seed's coin flips favour. The median op is taken per type instead,
  // weighted by the mix.
  const double read_p50 = static_cast<double>(Percentile(read_cycles, 50));
  const double update_p50 = static_cast<double>(Percentile(update_cycles, 50));
  report.EndToEnd("op_p50_cycles",
                  wl.read_fraction * read_p50 + (1 - wl.read_fraction) * update_p50, "cycles",
                  true);
  std::printf("op_p50/p99_cycles over %zu samples\n", closed.latencies.size());
  report.EndToEnd("op_p99_cycles", static_cast<double>(Percentile(closed.latencies, 99)),
                  "cycles", true);
  report.EndToEnd("sim_ops_per_s", OpsPerSimSecond(closed.ops, closed.elapsed_cycles),
                  "ops/sim_s", true);
  ReportLadder(report, ladder, /*op_latency_from_ladder=*/false);
  ReportCommonLayers(report, before, after, ops);
  report.Layer("skybridge.call_host_ns", closed_host_s * 1e9 / static_cast<double>(
                                             std::max<uint64_t>(closed_crossings, 1)),
               "ns", false);

  const uint64_t reads = fs_after.block_reads - fs_before.block_reads;
  const uint64_t fs_hits = fs_after.cache_hits - fs_before.cache_hits;
  report.Layer("fs.block_reads_per_op", PerOp(reads, ops), "count/op", true);
  report.Layer("fs.block_writes_per_op", PerOp(fs_after.block_writes - fs_before.block_writes, ops),
               "count/op", true);
  report.Layer("fs.cache_hit_ratio", PerOp(fs_hits, fs_hits + reads), "ratio", true);
  report.Layer("fs.transactions_per_op",
               PerOp(fs_after.transactions - fs_before.transactions, ops), "count/op", true);
  report.Layer("fs.log_absorptions_per_op",
               PerOp(fs_after.log_absorptions - fs_before.log_absorptions, ops), "count/op", true);
  report.Layer("db.row_cache_hit_ratio",
               PerOp(db_after.row_cache_hits - db_before.row_cache_hits,
                     db_after.queries - db_before.queries),
               "ratio", true);
  report.Layer("db.pager_hits_per_op", PerOp(stack->db().pager().cache_hits() - pager_before, ops),
               "count/op", true);
  report.Layer("apps.read_p50_cycles", read_p50, "cycles", true);
  report.Layer("apps.update_p50_cycles", update_p50, "cycles", true);
  report.Layer("apps.update_p99_cycles", static_cast<double>(Percentile(update_cycles, 99)),
               "cycles", true);
  report.Layer("apps.get_service_cycles", 0, "cycles", true);
  CheckVmExits(report, before, after, /*allow_hypercalls=*/false);
  std::printf("ycsb_a: %llu closed-loop ops (%zu reads, %zu updates), %llu ladder ops\n",
              static_cast<unsigned long long>(closed.ops), read_cycles.size(),
              update_cycles.size(), static_cast<unsigned long long>(ladder.ops));

  // ---- Host throughput rounds ----
  ReportHostRounds(report, deadline, [&] {
    return RunClosedLoop(machine, cores, kYcsbHostRoundOps, closed_op, report).ops;
  });

  // ---- Final checks ----
  CheckQuiesced(report, *stack->sky());
  const sb::Status fsck = stack->fs().Fsck();
  if (!fsck.ok()) {
    report.Fail("ycsb_a: Fsck: " + fsck.ToString());
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB", false);
  return sb::OkStatus();
}

}  // namespace perfbench
