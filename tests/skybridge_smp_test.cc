// Cross-core control-plane tests (DESIGN.md section 11): thread migration
// racing in-flight calls, revocation racing migration, eager-vs-lazy EPTP
// re-install parity, and calls on several simulated cores interleaved
// round-robin on the one host thread that owns the machine.

#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/skybridge/skybridge.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::kGiB;

hw::MachineConfig SmpMachine() {
  hw::MachineConfig config;
  config.num_cores = 8;
  config.ram_bytes = 4 * kGiB;
  return config;
}

class SkyBridgeSmpTest : public ::testing::Test {
 protected:
  void Boot(SkyBridgeConfig config = {}) {
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(SmpMachine());
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  struct Pair {
    mk::Process* client;
    mk::Process* server;
    mk::Thread* thread;
    ServerId sid;
  };

  Pair MakePair(Handler handler, int core, const std::string& tag = "") {
    Pair p;
    p.client = kernel_->CreateProcess("client" + tag).value();
    p.server = kernel_->CreateProcess("server" + tag).value();
    p.sid = sky_->RegisterServer(p.server, /*max_connections=*/8, std::move(handler)).value();
    SB_CHECK(sky_->RegisterClient(p.client, p.sid).ok());
    p.thread = p.client->AddThread(core);
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(core), p.client).ok());
    return p;
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
  // Filled after MakePair so handlers (captured at registration) can reach
  // the calling thread / binding of the pair they serve.
  mk::Thread* roamer_ = nullptr;
  mk::Process* roamer_client_ = nullptr;
  ServerId roamer_sid_ = 0;
};

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

// A call is mid-handler when the scheduler migrates its thread to another
// core. The in-flight call must complete on the core it entered on, and the
// next call must run (with the binding resident) on the new core.
TEST_F(SkyBridgeSmpTest, MigrateWhileInFlight) {
  Boot();
  Pair p = MakePair(
      [this](CallEnv& env) {
        if (env.request.tag == 42) {
          // Mid-handler migration: the scheduler moves the calling thread.
          SB_CHECK(kernel_->MigrateThread(roamer_, /*dest_core=*/3, /*eager_install=*/true).ok());
        }
        return env.request;
      },
      /*core=*/0);
  roamer_ = p.thread;

  // Warm call, then the migrating call.
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  const uint64_t installs_before = Metric("skybridge.eptp.migration_installs");
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(42));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 42u);
  EXPECT_EQ(p.thread->core_id(), 3);
  EXPECT_EQ(Metric("skybridge.eptp.migration_installs"), installs_before + 1);
  ASSERT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();

  // The next call runs on the new core without re-dispatch or stale retries.
  const uint64_t retries_before = Metric("skybridge.ipc.stale_slot_retries");
  auto after = sky_->DirectServerCall(p.thread, p.sid, Message(7));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(kernel_->current_process(3), p.client);
  EXPECT_EQ(Metric("skybridge.ipc.stale_slot_retries"), retries_before);
  ASSERT_TRUE(sky_->CheckInvariants().ok());
}

// Revocation lands while the binding's call is both in flight AND migrating:
// the in-flight reply still returns, the EPTP surgery defers to the drain,
// and afterwards new calls are refused until re-registration revives the
// binding — on the thread's new core.
TEST_F(SkyBridgeSmpTest, RevokeDuringMigration) {
  Boot();
  Pair p = MakePair(
      [this](CallEnv& env) {
        if (env.request.tag == 42) {
          SB_CHECK(kernel_->MigrateThread(roamer_, /*dest_core=*/2, /*eager_install=*/true).ok());
          SB_CHECK(sky_->RevokeBinding(roamer_client_, roamer_sid_).ok());
        }
        return env.request;
      },
      /*core=*/0);
  roamer_ = p.thread;
  roamer_client_ = p.client;
  roamer_sid_ = p.sid;

  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  // The in-flight call drains normally despite the mid-flight revoke+migrate.
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(42));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(sky_->InFlightCalls(), 0u);
  ASSERT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
  // Drained: the revocation swept the binding's slot on every core.
  for (int c = 0; c < machine_->num_cores(); ++c) {
    EXPECT_EQ(sky_->ResidentBindingSlot(p.client, p.sid, static_cast<uint32_t>(c)), kNoEptpSlot)
        << "core " << c;
  }

  // New calls are refused on the new core.
  auto refused = sky_->DirectServerCall(p.thread, p.sid, Message(1));
  EXPECT_EQ(refused.status().code(), sb::ErrorCode::kPermissionDenied);

  // Revival re-keys and reinstalls; the thread keeps calling from core 2.
  ASSERT_TRUE(sky_->RegisterClient(p.client, p.sid).ok());
  auto revived = sky_->DirectServerCall(p.thread, p.sid, Message(9));
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  EXPECT_EQ(revived->tag, 9u);
  ASSERT_TRUE(sky_->CheckInvariants().ok());
}

// Eager-install and lazy-retry migration must produce identical call results
// and identical control-plane state; only the install accounting may differ
// (eager counts migration_installs, lazy recovers via dispatch on the next
// call).
TEST_F(SkyBridgeSmpTest, EagerAndLazyMigrationConverge) {
  struct WorldResult {
    std::vector<uint64_t> tags;
    uint64_t direct_calls = 0;
    uint64_t rejected_calls = 0;
    uint64_t stale_slot_retries = 0;
    uint64_t migration_installs = 0;
    uint32_t resident_slot = kNoEptpSlot;
  };
  auto run = [&](bool eager) -> WorldResult {
    Boot();
    Pair p = MakePair(EchoHandler(), /*core=*/0);
    mk::Process* other = kernel_->CreateProcess("other").value();
    WorldResult r;
    for (uint64_t i = 0; i < 64; ++i) {
      if (i != 0 && i % 8 == 0) {
        const int dest = (p.thread->core_id() + 1) % machine_->num_cores();
        // Another process ran on the destination since the last visit.
        SB_CHECK(kernel_->ContextSwitchTo(machine_->core(dest), other).ok());
        SB_CHECK(kernel_->MigrateThread(p.thread, dest, eager).ok());
      }
      auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(i));
      SB_CHECK(reply.ok()) << reply.status().ToString();
      r.tags.push_back(reply->tag);
    }
    SB_CHECK(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
    r.direct_calls = Metric("skybridge.ipc.direct_calls");
    r.rejected_calls = Metric("skybridge.ipc.rejected_calls");
    r.stale_slot_retries = Metric("skybridge.ipc.stale_slot_retries");
    r.migration_installs = Metric("skybridge.eptp.migration_installs");
    r.resident_slot = sky_->ResidentBindingSlot(p.client, p.sid,
                                                static_cast<uint32_t>(p.thread->core_id()));
    return r;
  };

  const WorldResult eager = run(/*eager=*/true);
  const WorldResult lazy = run(/*eager=*/false);
  EXPECT_EQ(eager.tags, lazy.tags);
  EXPECT_NE(eager.resident_slot, kNoEptpSlot);
  EXPECT_EQ(eager.resident_slot, lazy.resident_slot);
  EXPECT_EQ(eager.direct_calls, lazy.direct_calls);
  EXPECT_EQ(eager.rejected_calls, lazy.rejected_calls);
  EXPECT_EQ(eager.stale_slot_retries, lazy.stale_slot_retries);
  // The one sanctioned difference: where the post-migration install ran.
  EXPECT_GT(eager.migration_installs, 0u);
  EXPECT_EQ(lazy.migration_installs, 0u);
}

// Disjoint (client, server) pairs, one per simulated core, called
// round-robin with batches mixed in. After every round each counter is
// monotonic and within its bound; at the end the counts are exact.
TEST_F(SkyBridgeSmpTest, ConcurrentDisjointPairsAndStatsSnapshot) {
  Boot();
  constexpr int kPairs = 4;
  constexpr uint64_t kCallsPerPair = 2000;
  std::vector<Pair> pairs;
  for (int i = 0; i < kPairs; ++i) {
    pairs.push_back(MakePair(EchoHandler(), /*core=*/i, std::to_string(i)));
  }
  for (const Pair& p : pairs) {
    ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  }
  const uint64_t warm_calls = Metric("skybridge.ipc.direct_calls");

  // Every kBatchEvery direct calls, each caller also pushes one batch of
  // kBatchDepth through its submission ring.
  constexpr uint64_t kBatchEvery = 100;
  constexpr uint64_t kBatchDepth = 4;
  constexpr uint64_t kBatchesPerPair = kCallsPerPair / kBatchEvery;

  uint64_t last_calls = 0;
  uint64_t last_batched = 0;
  uint64_t last_flushes = 0;
  uint64_t last_rounds = 0;
  for (uint64_t n = 0; n < kCallsPerPair; ++n) {
    for (const Pair& p : pairs) {
      auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(n));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->tag, n);
      if ((n + 1) % kBatchEvery == 0) {
        std::vector<Message> msgs(kBatchDepth, Message(n));
        auto batched = sky_->CallBatch(p.thread, p.sid, msgs);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        for (const auto& entry : *batched) {
          ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
          ASSERT_EQ(entry.reply.tag, n);
        }
      }
    }
    const uint64_t calls = Metric("skybridge.ipc.direct_calls");
    const uint64_t batched = Metric("skybridge.ipc.batched_calls");
    const uint64_t flushes = Metric("skybridge.ipc.batch_flushes");
    const uint64_t rounds = Metric("skybridge.ipc.drain_rounds");
    ASSERT_GE(calls, last_calls);
    ASSERT_LE(calls, warm_calls + kPairs * kCallsPerPair);
    ASSERT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
    ASSERT_GE(batched, last_batched);
    ASSERT_LE(batched, kPairs * kBatchesPerPair * kBatchDepth);
    ASSERT_GE(flushes, last_flushes);
    ASSERT_GE(rounds, last_rounds);
    last_calls = calls;
    last_batched = batched;
    last_flushes = flushes;
    last_rounds = rounds;
  }

  EXPECT_EQ(Metric("skybridge.ipc.direct_calls"), warm_calls + kPairs * kCallsPerPair);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
  EXPECT_EQ(Metric("skybridge.ipc.batched_calls"), kPairs * kBatchesPerPair * kBatchDepth);
  EXPECT_EQ(Metric("skybridge.ipc.batch_flushes"), kPairs * kBatchesPerPair);
  EXPECT_EQ(Metric("skybridge.ipc.drain_rounds"), Metric("skybridge.ipc.batch_flushes"));
  EXPECT_EQ(sky_->InFlightCalls(), 0u);
  ASSERT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
}

// Consolidation across cores (DESIGN.md section 15): eight clients on eight
// cores all translate through ONE shared server EPT and call it round-robin,
// each through its own buffer slice. Afterwards, revoking one sibling leaves
// the others served, and revoking the server drains the shared EPT's
// residency on every core.
TEST_F(SkyBridgeSmpTest, ConsolidatedSiblingsCallConcurrentlyAcrossCores) {
  Boot();
  constexpr int kSiblings = 8;
  constexpr uint64_t kCallsEach = 2000;
  auto* server = kernel_->CreateProcess("shared-server").value();
  const ServerId sid =
      sky_->RegisterServer(server, /*max_connections=*/kSiblings, EchoHandler()).value();
  const size_t epts_before = kernel_->rootkernel()->ept_count();

  std::vector<mk::Process*> clients;
  std::vector<mk::Thread*> threads;
  for (int i = 0; i < kSiblings; ++i) {
    auto* c = kernel_->CreateProcess("sibling" + std::to_string(i)).value();
    ASSERT_TRUE(sky_->RegisterClient(c, sid).ok());
    clients.push_back(c);
    threads.push_back(c->AddThread(i));
    ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(i), c).ok());
    ASSERT_TRUE(sky_->DirectServerCall(threads.back(), sid, Message(7)).ok());
  }
  // One process-view EPT per client plus exactly ONE shared binding EPT.
  EXPECT_EQ(kernel_->rootkernel()->ept_count(), epts_before + kSiblings + 1);

  for (uint64_t n = 0; n < kCallsEach; ++n) {
    for (int i = 0; i < kSiblings; ++i) {
      const uint64_t tag = static_cast<uint64_t>(i) * kCallsEach + n;
      auto reply = sky_->DirectServerCall(threads[static_cast<size_t>(i)], sid, Message(tag));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->tag, tag);  // Distinct slices: no cross-sibling bleed.
    }
  }
  EXPECT_EQ(sky_->InFlightCalls(), 0u);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
  ASSERT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();

  // The shared slot survives the storm: every sibling resolves to the same
  // resident slot on its own core's list.
  for (int i = 0; i < kSiblings; ++i) {
    EXPECT_NE(sky_->ResidentBindingSlot(clients[static_cast<size_t>(i)], sid,
                                        static_cast<uint32_t>(i)),
              kNoEptpSlot);
  }

  // Sibling revoke isolation, then server revoke drains every core.
  ASSERT_TRUE(sky_->RevokeBinding(clients[0], sid).ok());
  EXPECT_EQ(sky_->DirectServerCall(threads[0], sid, Message(1)).status().code(),
            sb::ErrorCode::kPermissionDenied);
  auto still = sky_->DirectServerCall(threads[1], sid, Message(2));
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  ASSERT_TRUE(sky_->RevokeServer(sid).ok());
  for (int i = 0; i < kSiblings; ++i) {
    EXPECT_EQ(sky_->ResidentBindingSlot(clients[static_cast<size_t>(i)], sid,
                                        static_cast<uint32_t>(i)),
              kNoEptpSlot);
  }
  ASSERT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
}

// Every counter and gauge value, and every histogram's Digest(), of one
// world's telemetry registry, by name.
using WorldReport = std::vector<std::pair<std::string, uint64_t>>;

// Builds a world, registers one client, calls across two cores with a batch
// in between, registers a second client mid-run and calls through it too.
WorldReport RunWorld(RegistrationMode mode) {
  hw::Machine machine(SmpMachine());
  mk::Kernel kernel(machine, mk::Sel4Profile());
  SB_CHECK(kernel.Boot().ok());
  SkyBridgeConfig config;
  config.registration_mode = mode;
  SkyBridge sky(kernel, config);
  mk::Process* server = kernel.CreateProcess("server").value();
  const ServerId sid = sky.RegisterServer(server, /*max_connections=*/4, EchoHandler()).value();
  std::vector<mk::Thread*> threads;
  for (int core = 0; core < 2; ++core) {
    mk::Process* client = kernel.CreateProcess("client" + std::to_string(core)).value();
    SB_CHECK(sky.RegisterClient(client, sid).ok());
    threads.push_back(client->AddThread(core));
    SB_CHECK(kernel.ContextSwitchTo(machine.core(core), client).ok());
    for (uint64_t n = 0; n < 200; ++n) {
      for (mk::Thread* t : threads) {
        SB_CHECK(sky.DirectServerCall(t, sid, Message(n)).ok());
      }
    }
    SB_CHECK(sky.CallBatch(threads.back(), sid, std::vector<Message>(4, Message(1))).ok());
  }
  SB_CHECK(sky.CheckInvariants().ok());
  WorldReport report;
  sb::telemetry::Registry& registry = machine.telemetry();
  for (const sb::telemetry::MetricValue& m : registry.Snapshot()) {
    report.emplace_back(m.name, m.kind == sb::telemetry::MetricValue::Kind::kHistogram
                                    ? registry.GetHistogram(m.name).Digest()
                                    : m.value);
  }
  return report;
}

// A machine belongs to one host thread, and only process-global state (fault
// points, logging and the pool of freed RAM chunks) is shared between
// machines: two worlds run on two host threads report exactly what they
// report when run one after the other. Under ThreadSanitizer this is the
// cross-machine race check.
TEST(CrossMachine, TwoWorldsOnTwoHostThreadsMatchSerialRuns) {
  const WorldReport serial_eager = RunWorld(RegistrationMode::kEager);
  const WorldReport serial_lazy = RunWorld(RegistrationMode::kLazy);
  ASSERT_NE(serial_eager, serial_lazy);  // Lazy mode takes exec faults.
  WorldReport eager;
  WorldReport lazy;
  std::thread eager_world([&eager] { eager = RunWorld(RegistrationMode::kEager); });
  std::thread lazy_world([&lazy] { lazy = RunWorld(RegistrationMode::kLazy); });
  eager_world.join();
  lazy_world.join();
  EXPECT_EQ(eager, serial_eager);
  EXPECT_EQ(lazy, serial_lazy);
}

}  // namespace
}  // namespace skybridge
