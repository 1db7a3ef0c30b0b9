// Open-loop load generator tests (DESIGN.md section 14): schedule
// determinism (the PR 4 replay-fingerprint idiom applied to load), the
// coordinated-omission anchor, SLO/goodput accounting, and the batched and
// burst-coalesced client mixes against a real SkyBridge echo server.

#include "src/sim/loadgen.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/skybridge/skybridge.h"
#include "tests/trace_spans.h"

namespace sim {
namespace {

// A self-contained SkyBridge echo world: one client thread on core 0, one
// echo server, plus the LoadTarget hooks bound to it.
struct EchoWorld {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<mk::Kernel> kernel;
  std::unique_ptr<skybridge::SkyBridge> sky;
  mk::Thread* thread = nullptr;
  skybridge::ServerId sid = 0;
  LoadTarget target;
};

EchoWorld MakeEchoWorld() {
  EchoWorld w;
  hw::MachineConfig mc;
  mc.num_cores = 2;
  mc.ram_bytes = 2ULL << 30;
  w.machine = std::make_unique<hw::Machine>(mc);
  w.kernel = std::make_unique<mk::Kernel>(*w.machine, mk::Sel4Profile());
  SB_CHECK(w.kernel->Boot().ok());
  w.sky = std::make_unique<skybridge::SkyBridge>(*w.kernel);
  auto* client = w.kernel->CreateProcess("client").value();
  auto* server = w.kernel->CreateProcess("server").value();
  w.sid = w.sky->RegisterServer(server, 4, [](mk::CallEnv& env) { return env.request; }).value();
  SB_CHECK(w.sky->RegisterClient(client, w.sid).ok());
  w.thread = client->AddThread(0);
  SB_CHECK(w.kernel->ContextSwitchTo(w.machine->core(0), client).ok());
  skybridge::SkyBridge& sky = *w.sky;
  mk::Thread* thread = w.thread;
  const skybridge::ServerId sid = w.sid;
  w.target.sync_call = [&sky, thread, sid](uint32_t, uint64_t key) {
    return sky.DirectServerCall(thread, sid, mk::Message(key)).status();
  };
  w.target.submit = [&sky, thread, sid](uint32_t, uint64_t key) {
    return sky.SubmitCall(thread, sid, mk::Message(key));
  };
  w.target.flush = [&sky, thread, sid](uint32_t) { return sky.FlushBatch(thread, sid); };
  w.target.poll = [&sky, thread, sid](uint32_t, uint64_t token) {
    return sky.PollCompletion(thread, sid, token).status();
  };
  return w;
}

LoadGenConfig SmallConfig(uint64_t seed = 42) {
  LoadGenConfig config;
  config.seed = seed;
  config.events = 512;
  config.num_clients = 1;
  config.client_cores = {0};
  config.num_keys = 64;
  config.offered_per_kcycle = 0.5;  // Well below echo saturation (~1/400).
  return config;
}

TEST(LoadGenSchedule, SameSeedSameSchedule) {
  EchoWorld w = MakeEchoWorld();
  const LoadGenConfig config = SmallConfig();
  LoadGenerator a(*w.machine, config, w.target);
  LoadGenerator b(*w.machine, config, w.target);
  ASSERT_EQ(a.schedule().size(), config.events);
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].cycles, b.schedule()[i].cycles);
    EXPECT_EQ(a.schedule()[i].key, b.schedule()[i].key);
    EXPECT_EQ(a.schedule()[i].client, b.schedule()[i].client);
  }
}

TEST(LoadGenSchedule, DifferentSeedDifferentSchedule) {
  EchoWorld w = MakeEchoWorld();
  LoadGenerator a(*w.machine, SmallConfig(42), w.target);
  LoadGenerator b(*w.machine, SmallConfig(43), w.target);
  bool differs = false;
  for (size_t i = 0; i < a.schedule().size() && !differs; ++i) {
    differs = a.schedule()[i].cycles != b.schedule()[i].cycles ||
              a.schedule()[i].key != b.schedule()[i].key;
  }
  EXPECT_TRUE(differs);
}

TEST(LoadGenSchedule, ArrivalsAreTimeOrdered) {
  EchoWorld w = MakeEchoWorld();
  LoadGenerator gen(*w.machine, SmallConfig(), w.target);
  for (size_t i = 1; i < gen.schedule().size(); ++i) {
    EXPECT_GE(gen.schedule()[i].cycles, gen.schedule()[i - 1].cycles);
  }
}

// The replay-fingerprint idiom: the same seed and load on two fresh worlds
// produce the identical report fingerprint — schedule hash, histogram
// digest, and completion counts all byte-identical.
TEST(LoadGenDeterminism, SameSeedSameFingerprint) {
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    EchoWorld w = MakeEchoWorld();
    LoadGenerator gen(*w.machine, SmallConfig(), w.target);
    const auto report = gen.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->completed, 512u);
    EXPECT_EQ(report->errors, 0u);
    *out = report->Fingerprint();
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("sched="), std::string::npos);
  EXPECT_NE(first.find("hist="), std::string::npos);
}

TEST(LoadGenDeterminism, DifferentSeedDifferentFingerprint) {
  EchoWorld wa = MakeEchoWorld();
  LoadGenerator a(*wa.machine, SmallConfig(42), wa.target);
  const auto ra = a.Run();
  ASSERT_TRUE(ra.ok());
  EchoWorld wb = MakeEchoWorld();
  LoadGenerator b(*wb.machine, SmallConfig(43), wb.target);
  const auto rb = b.Run();
  ASSERT_TRUE(rb.ok());
  EXPECT_NE(ra->schedule_hash, rb->schedule_hash);
  EXPECT_NE(ra->Fingerprint(), rb->Fingerprint());
}

// The coordinated-omission anchor: on a world whose clocks already advanced
// (warmup), the schedule re-bases at the current cycle instead of charging
// the prior epoch to the first arrivals as latency.
TEST(LoadGenRun, WarmedWorldDoesNotChargeTheClockEpoch) {
  EchoWorld w = MakeEchoWorld();
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(w.target.sync_call(0, 1).ok());
  }
  const uint64_t epoch = w.machine->core(0).cycles();
  ASSERT_GT(epoch, 50000u);
  LoadGenerator gen(*w.machine, SmallConfig(), w.target);
  const auto report = gen.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed, 512u);
  // At 0.2x load the p50 is one quiet round trip — far below the epoch a
  // mis-anchored run would report.
  EXPECT_LT(report->p50, 5000u);
  EXPECT_LT(report->max, epoch);
}

TEST(LoadGenRun, SloBreachesAndGoodputAccounting) {
  // An impossible bound: every window breaches, every op misses.
  EchoWorld w = MakeEchoWorld();
  LoadGenConfig config = SmallConfig();
  sb::telemetry::SloSpec impossible;
  impossible.percentile = 50.0;
  impossible.bound_cycles = 1;
  impossible.window = 64;
  config.slos = {impossible};
  LoadGenerator gen(*w.machine, config, w.target);
  const auto report = gen.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->slo_breaches, 0u);
  EXPECT_EQ(report->in_slo, 0u);
  EXPECT_DOUBLE_EQ(report->goodput_fraction, 0.0);

  // A generous bound: zero breaches, goodput 1.0.
  EchoWorld w2 = MakeEchoWorld();
  LoadGenConfig relaxed = SmallConfig();
  sb::telemetry::SloSpec generous;
  generous.percentile = 99.0;
  generous.bound_cycles = 1000000;
  generous.window = 64;
  relaxed.slos = {generous};
  LoadGenerator gen2(*w2.machine, relaxed, w2.target);
  const auto report2 = gen2.Run();
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2->slo_breaches, 0u);
  EXPECT_EQ(report2->in_slo, report2->completed);
  EXPECT_DOUBLE_EQ(report2->goodput_fraction, 1.0);
  EXPECT_GT(report2->goodput_per_kcycle, 0.0);
}

TEST(LoadGenRun, BatchedModeDrainsEverything) {
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    EchoWorld w = MakeEchoWorld();
    LoadGenConfig config = SmallConfig();
    config.batched = true;
    config.batch_depth = 8;
    config.offered_per_kcycle = 4.0;  // Dense enough to fill real batches.
    LoadGenerator gen(*w.machine, config, w.target);
    const auto report = gen.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->completed + report->errors, 512u);
    EXPECT_EQ(report->errors, 0u);
    EXPECT_GT(report->batch_flushes, 0u);
    // Flush-on-idle keeps flushes well under one per op, but batching must
    // actually happen: fewer flushes than completions.
    EXPECT_LT(report->batch_flushes, report->completed);
    *out = report->Fingerprint();
  }
  EXPECT_EQ(first, second);  // Batched runs replay byte-identically too.
}

// While tracing is on, each op's span starts at its intended arrival: a
// traced batched run rebuilds every op's full span chain, in pipeline order.
// The second run's batches outgrow the ring, so a full ring is flushed
// between an op's arrival and its submission. The third runs against a
// target without a ring: the burst fallback defers each op and serves it
// with a sync call later, so the op's span is arrival -> vmfunc -> return.
TEST(LoadGenRun, TracedBatchedRunGivesEveryOpTheFullSpanChain) {
  using sb::telemetry::SpanPhase;
  constexpr uint32_t kOps = 2 * skybridge::kBatchRingEntries;  // Fits one trace ring.
  struct Mix {
    uint32_t batch_depth;
    double offered_per_kcycle;
    bool ring;
  };
  for (const Mix mix : {Mix{8, 4.0, true}, Mix{2 * skybridge::kBatchRingEntries, 1000.0, true},
                        Mix{8, 4.0, false}}) {
    SCOPED_TRACE(testing::Message() << "batch_depth " << mix.batch_depth << " ring " << mix.ring);
    EchoWorld w = MakeEchoWorld();
    LoadGenConfig config = SmallConfig();
    config.events = kOps;
    config.batched = true;
    config.batch_depth = mix.batch_depth;
    config.offered_per_kcycle = mix.offered_per_kcycle;
    LoadTarget target = w.target;
    if (!mix.ring) {
      target.submit = nullptr;
      target.flush = nullptr;
      target.poll = nullptr;
    }
    LoadGenerator gen(*w.machine, config, target);
    w.machine->trace().SetEnabled(true);
    const auto report = gen.Run();
    w.machine->trace().SetEnabled(false);
    const std::vector<sb::telemetry::CallSpan> spans =
        sb::telemetry::BuildSpans(w.machine->trace().Snapshot());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->completed, kOps);
    EXPECT_LT(report->batch_flushes, report->completed);

    const std::vector<SpanPhase> chain =
        mix.ring ? std::vector<SpanPhase>{SpanPhase::kArrival, SpanPhase::kEnqueue,
                                          SpanPhase::kFlush,   SpanPhase::kVmfunc,
                                          SpanPhase::kDrain,   SpanPhase::kReturn,
                                          SpanPhase::kPoll}
                 : std::vector<SpanPhase>{SpanPhase::kArrival, SpanPhase::kVmfunc,
                                          SpanPhase::kReturn};
    uint32_t ops = 0;
    for (const sb::telemetry::CallSpan& span : spans) {
      if (span.Find(SpanPhase::kArrival) == nullptr) {
        continue;  // A flush crossing's own span.
      }
      ++ops;
      if (mix.ring) {
        EXPECT_NE(span.crossing_id, 0u) << span.call_id;
      }
      for (size_t i = 1; i < chain.size(); ++i) {
        const sb::telemetry::SpanEvent* prev = span.Find(chain[i - 1]);
        const sb::telemetry::SpanEvent* cur = span.Find(chain[i]);
        ASSERT_NE(cur, nullptr) << span.call_id << " " << SpanPhaseName(chain[i]);
        EXPECT_LT(prev->seq, cur->seq) << span.call_id << " " << SpanPhaseName(chain[i]);
      }
    }
    EXPECT_EQ(ops, kOps);
  }
}

TEST(LoadGenRun, BurstFallbackWhenTargetHasNoRing) {
  EchoWorld w = MakeEchoWorld();
  LoadTarget sync_only;
  sync_only.sync_call = w.target.sync_call;
  LoadGenConfig config = SmallConfig();
  config.batched = true;
  config.batch_depth = 8;
  config.offered_per_kcycle = 4.0;
  LoadGenerator gen(*w.machine, config, sync_only);
  const auto report = gen.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed, 512u);
  EXPECT_EQ(report->batch_flushes, 0u);  // No ring to flush.
}

TEST(LoadGenRun, MissingSyncCallIsInvalid) {
  EchoWorld w = MakeEchoWorld();
  LoadTarget empty;
  LoadGenerator gen(*w.machine, SmallConfig(), empty);
  EXPECT_EQ(gen.Run().status().code(), sb::ErrorCode::kInvalidArgument);
}

TEST(LoadGenRun, PartialBatchHooksAreInvalid) {
  EchoWorld w = MakeEchoWorld();
  LoadTarget partial;
  partial.sync_call = w.target.sync_call;
  partial.submit = w.target.submit;  // flush/poll missing.
  LoadGenerator gen(*w.machine, SmallConfig(), partial);
  EXPECT_EQ(gen.Run().status().code(), sb::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace sim
