// EPTP slot virtualization and binding consolidation (DESIGN.md section 15):
// bounded per-core slot working sets with LRU eviction serve far more
// bindings than the hardware's 512-entry EPTP list, and all direct clients
// of one server share a single binding EPT. These tests pin down the
// semantics: slot faults are transparent, hot bindings stay resident,
// consolidation keeps per-connection keys/buffers distinct, sibling
// revocation is isolated, and eviction on one core never stales another.

#include "src/skybridge/skybridge.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/base/faultpoint.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::ErrorCode;
using sb::kGiB;

class SkyBridgeEptpTest : public ::testing::Test {
 protected:
  void SetUp() override { sb::fault::DisarmAll(); }
  void TearDown() override { sb::fault::DisarmAll(); }

  void Boot(SkyBridgeConfig config = {}) {
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  mk::Process* NewProcess(const std::string& name) {
    return kernel_->CreateProcess(name).value();
  }

  ServerId NewEchoServer(int connections = 16) {
    auto* server = NewProcess("server" + std::to_string(server_seq_++));
    return sky_->RegisterServer(server, connections,
                                [](CallEnv& env) { return env.request; })
        .value();
  }

  mk::Thread* ClientThread(mk::Process* client, int core) {
    mk::Thread* t = client->AddThread(core);
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(core), client).ok());
    return t;
  }

  void ExpectInvariants() {
    const sb::Status invariants = sky_->CheckInvariants();
    ASSERT_TRUE(invariants.ok()) << invariants.ToString();
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
  int server_seq_ = 0;
};

// ---- Binding consolidation ----

TEST_F(SkyBridgeEptpTest, ConsolidationSharesOneEptAcrossClients) {
  Boot();
  const ServerId sid = NewEchoServer();
  const size_t epts_before = kernel_->rootkernel()->ept_count();

  constexpr int kClients = 6;
  std::vector<mk::Process*> clients;
  std::vector<mk::Thread*> threads;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(NewProcess("c" + std::to_string(i)));
    ASSERT_TRUE(sky_->RegisterClient(clients.back(), sid).ok());
    threads.push_back(ClientThread(clients.back(), 0));
  }
  // Each client process owns one EPT; the server binding adds exactly ONE
  // shared EPT for all six clients (the second..sixth only add a CR3 remap).
  EXPECT_EQ(kernel_->rootkernel()->ept_count(), epts_before + kClients + 1);

  for (int i = 0; i < kClients; ++i) {
    auto reply = sky_->DirectServerCall(threads[i], sid, Message(100 + i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, 100u + i);
  }
  // All six bindings resolve to the same resident slot: one EPT, one slot.
  const uint32_t slot = sky_->ResidentBindingSlot(clients[0], sid, 0);
  ASSERT_NE(slot, kNoEptpSlot);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(sky_->ResidentBindingSlot(clients[i], sid, 0), slot);
  }
  ExpectInvariants();
}

TEST_F(SkyBridgeEptpTest, ConsolidationOffCreatesPerPairEpts) {
  SkyBridgeConfig config;
  config.consolidate_bindings = false;
  Boot(config);
  const ServerId sid = NewEchoServer();
  const size_t epts_before = kernel_->rootkernel()->ept_count();

  constexpr int kClients = 4;
  std::vector<mk::Process*> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(NewProcess("c" + std::to_string(i)));
    ASSERT_TRUE(sky_->RegisterClient(clients.back(), sid).ok());
  }
  // Ablation: every (client, server) pair gets its own binding EPT.
  EXPECT_EQ(kernel_->rootkernel()->ept_count(), epts_before + 2 * kClients);

  mk::Thread* t0 = ClientThread(clients[0], 0);
  mk::Thread* t1 = ClientThread(clients[1], 0);
  ASSERT_TRUE(sky_->DirectServerCall(t0, sid, Message(1)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(t1, sid, Message(2)).ok());
  // Distinct EPTs occupy distinct slots on the same core.
  const uint32_t slot0 = sky_->ResidentBindingSlot(clients[0], sid, 0);
  const uint32_t slot1 = sky_->ResidentBindingSlot(clients[1], sid, 0);
  ASSERT_NE(slot0, kNoEptpSlot);
  ASSERT_NE(slot1, kNoEptpSlot);
  EXPECT_NE(slot0, slot1);
  ExpectInvariants();
}

TEST_F(SkyBridgeEptpTest, ConsolidatedClientsKeepDistinctSlicesAndKeys) {
  Boot();
  const ServerId sid = NewEchoServer();
  auto* a = NewProcess("a");
  auto* b = NewProcess("b");
  ASSERT_TRUE(sky_->RegisterClient(a, sid).ok());
  ASSERT_TRUE(sky_->RegisterClient(b, sid).ok());
  mk::Thread* ta = ClientThread(a, 0);
  mk::Thread* tb = ClientThread(b, 0);

  // Distinct shared-buffer slices: the host views never alias.
  auto buf_a = sky_->AcquireSendBuffer(ta, sid);
  auto buf_b = sky_->AcquireSendBuffer(tb, sid);
  ASSERT_TRUE(buf_a.ok());
  ASSERT_TRUE(buf_b.ok());
  EXPECT_NE(buf_a->data(), buf_b->data());

  // Distinct per-connection calling keys: a wrong key is rejected at the
  // server-side gate even though both clients enter through the SAME EPT.
  ASSERT_TRUE(sky_->DirectServerCall(ta, sid, Message(1)).ok());
  auto forged = sky_->CallWithForgedKey(ta, sid, Message(2), 0xdeadbeefULL);
  EXPECT_EQ(forged.status().code(), ErrorCode::kPermissionDenied);
  auto genuine = sky_->DirectServerCall(tb, sid, Message(3));
  ASSERT_TRUE(genuine.ok()) << genuine.status().ToString();
  EXPECT_EQ(genuine->tag, 3u);
  ExpectInvariants();
}

TEST_F(SkyBridgeEptpTest, SiblingRevokeLeavesOtherClientsServed) {
  Boot();
  const ServerId sid = NewEchoServer();
  auto* a = NewProcess("a");
  auto* b = NewProcess("b");
  ASSERT_TRUE(sky_->RegisterClient(a, sid).ok());
  ASSERT_TRUE(sky_->RegisterClient(b, sid).ok());
  mk::Thread* ta = ClientThread(a, 0);
  mk::Thread* tb = ClientThread(b, 0);
  ASSERT_TRUE(sky_->DirectServerCall(ta, sid, Message(1)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(tb, sid, Message(2)).ok());

  // Revoke A. The shared EPT must stay serviceable for B.
  ASSERT_TRUE(sky_->RevokeBinding(a, sid).ok());
  EXPECT_EQ(sky_->DirectServerCall(ta, sid, Message(3)).status().code(),
            ErrorCode::kPermissionDenied);
  auto still = sky_->DirectServerCall(tb, sid, Message(4));
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still->tag, 4u);
  ExpectInvariants();

  // Revival re-keys A into the shared EPT; both siblings work.
  ASSERT_TRUE(sky_->RegisterClient(a, sid).ok());
  ASSERT_TRUE(sky_->DirectServerCall(ta, sid, Message(5)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(tb, sid, Message(6)).ok());
  ExpectInvariants();
}

TEST_F(SkyBridgeEptpTest, RevokeServerDrainsEveryClient) {
  Boot();
  const ServerId sid = NewEchoServer();
  auto* a = NewProcess("a");
  auto* b = NewProcess("b");
  auto* c = NewProcess("c");
  for (mk::Process* p : {a, b, c}) {
    ASSERT_TRUE(sky_->RegisterClient(p, sid).ok());
  }
  mk::Thread* ta = ClientThread(a, 0);
  mk::Thread* tb = ClientThread(b, 1);
  mk::Thread* tc = ClientThread(c, 2);
  ASSERT_TRUE(sky_->DirectServerCall(ta, sid, Message(1)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(tb, sid, Message(2)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(tc, sid, Message(3)).ok());

  ASSERT_TRUE(sky_->RevokeServer(sid).ok());
  for (mk::Thread* t : {ta, tb, tc}) {
    EXPECT_EQ(sky_->DirectServerCall(t, sid, Message(9)).status().code(),
              ErrorCode::kPermissionDenied);
  }
  // Drained everywhere: the shared EPT holds no residency on any core.
  for (mk::Process* p : {a, b, c}) {
    for (uint32_t core = 0; core < 4; ++core) {
      EXPECT_EQ(sky_->ResidentBindingSlot(p, sid, core), kNoEptpSlot);
    }
  }
  ExpectInvariants();

  // Unknown server ids are refused; an empty server is a clean no-op.
  EXPECT_EQ(sky_->RevokeServer(9999).code(), ErrorCode::kNotFound);
  EXPECT_TRUE(sky_->RevokeServer(sid).ok());

  // All three revive independently.
  for (mk::Process* p : {a, b, c}) {
    ASSERT_TRUE(sky_->RegisterClient(p, sid).ok());
  }
  ASSERT_TRUE(sky_->DirectServerCall(ta, sid, Message(11)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(tb, sid, Message(12)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(tc, sid, Message(13)).ok());
  ExpectInvariants();
}

// ---- Slot working set + LRU ----

TEST_F(SkyBridgeEptpTest, SlotFaultsServeMoreBindingsThanSlots) {
  SkyBridgeConfig config;
  config.eptp_working_set = 4;  // Slot 0 = base EPT; 3 usable slots.
  Boot(config);
  constexpr int kServers = 8;
  std::vector<ServerId> sids;
  for (int i = 0; i < kServers; ++i) {
    sids.push_back(NewEchoServer());
  }
  auto* client = NewProcess("client");
  for (ServerId sid : sids) {
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  }
  mk::Thread* thread = ClientThread(client, 0);

  // Round-robin across all eight servers: every call beyond the working set
  // slot-faults, yet every call succeeds and the invariants hold throughout.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kServers; ++i) {
      auto reply = sky_->DirectServerCall(thread, sids[i], Message(i));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->tag, static_cast<uint64_t>(i));
      ExpectInvariants();
    }
  }
  EXPECT_GT(Metric("skybridge.eptp.slot_faults"), 0u);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
  EXPECT_EQ(Metric("skybridge.ipc.stale_slot_retries"), 0u);
}

TEST_F(SkyBridgeEptpTest, HotBindingNeverFaultsUnderLru) {
  SkyBridgeConfig config;
  config.eptp_working_set = 6;
  Boot(config);
  const ServerId hot = NewEchoServer();
  std::vector<ServerId> cold;
  for (int i = 0; i < 6; ++i) {
    cold.push_back(NewEchoServer());
  }
  auto* client = NewProcess("client");
  ASSERT_TRUE(sky_->RegisterClient(client, hot).ok());
  for (ServerId sid : cold) {
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  }
  mk::Thread* thread = ClientThread(client, 0);

  // Interleave: the hot binding is touched every call; cold ones rotate and
  // thrash the remaining slots. LRU must keep the hot EPT resident.
  ASSERT_TRUE(sky_->DirectServerCall(thread, hot, Message(0)).ok());
  const uint64_t faults_after_warm = Metric("skybridge.eptp.slot_faults");
  uint64_t hot_faults = 0;
  for (int i = 0; i < 48; ++i) {
    const uint64_t before = Metric("skybridge.eptp.slot_faults");
    ASSERT_TRUE(sky_->DirectServerCall(thread, hot, Message(1)).ok());
    hot_faults += Metric("skybridge.eptp.slot_faults") - before;
    ASSERT_TRUE(sky_->DirectServerCall(thread, cold[i % cold.size()], Message(2)).ok());
  }
  EXPECT_EQ(hot_faults, 0u) << "hot binding was evicted under LRU";
  EXPECT_GT(Metric("skybridge.eptp.slot_faults"), faults_after_warm);  // Cold set thrashed.
  ExpectInvariants();
}

TEST_F(SkyBridgeEptpTest, NaiveRotationAblationStillCorrectButFaultsHotSet) {
  SkyBridgeConfig config;
  config.eptp_working_set = 6;
  config.lru_slot_eviction = false;  // Round-robin victim ablation.
  Boot(config);
  const ServerId hot = NewEchoServer();
  std::vector<ServerId> cold;
  for (int i = 0; i < 6; ++i) {
    cold.push_back(NewEchoServer());
  }
  auto* client = NewProcess("client");
  ASSERT_TRUE(sky_->RegisterClient(client, hot).ok());
  for (ServerId sid : cold) {
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  }
  mk::Thread* thread = ClientThread(client, 0);

  ASSERT_TRUE(sky_->DirectServerCall(thread, hot, Message(0)).ok());
  uint64_t hot_faults = 0;
  for (int i = 0; i < 48; ++i) {
    const uint64_t before = Metric("skybridge.eptp.slot_faults");
    ASSERT_TRUE(sky_->DirectServerCall(thread, hot, Message(1)).ok());
    hot_faults += Metric("skybridge.eptp.slot_faults") - before;
    ASSERT_TRUE(sky_->DirectServerCall(thread, cold[i % cold.size()], Message(2)).ok());
    ExpectInvariants();
  }
  // Recency-blind victim selection eventually evicts the hot binding too —
  // the correctness contract holds, only the fault rate suffers.
  EXPECT_GT(hot_faults, 0u);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
}

// Satellite regression: eviction on core A must not leave a stale cached
// slot index on core B — residency is per-core state, keyed per core.
TEST_F(SkyBridgeEptpTest, EvictionOnOneCoreDoesNotStaleAnother) {
  SkyBridgeConfig config;
  config.eptp_working_set = 4;
  Boot(config);
  const ServerId target = NewEchoServer();
  std::vector<ServerId> thrashers;
  for (int i = 0; i < 6; ++i) {
    thrashers.push_back(NewEchoServer());
  }
  auto* client = NewProcess("client");
  ASSERT_TRUE(sky_->RegisterClient(client, target).ok());
  for (ServerId sid : thrashers) {
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  }
  mk::Thread* t0 = ClientThread(client, 0);
  mk::Thread* t1 = ClientThread(client, 1);

  // Make the target binding resident on BOTH cores.
  ASSERT_TRUE(sky_->DirectServerCall(t0, target, Message(0)).ok());
  ASSERT_TRUE(sky_->DirectServerCall(t1, target, Message(1)).ok());
  const uint32_t slot_on_1 = sky_->ResidentBindingSlot(client, target, 1);
  ASSERT_NE(slot_on_1, kNoEptpSlot);

  // Thrash core 0's working set until the target is evicted there.
  for (ServerId sid : thrashers) {
    ASSERT_TRUE(sky_->DirectServerCall(t0, sid, Message(7)).ok());
  }
  ASSERT_EQ(sky_->ResidentBindingSlot(client, target, 0), kNoEptpSlot);
  // Core 1's residency is untouched by core 0's evictions.
  EXPECT_EQ(sky_->ResidentBindingSlot(client, target, 1), slot_on_1);

  // The next call on core 1 is a pure hit: no slot fault, no stale retry.
  const uint64_t faults_before = Metric("skybridge.eptp.slot_faults");
  const uint64_t retries_before = Metric("skybridge.ipc.stale_slot_retries");
  auto reply = sky_->DirectServerCall(t1, target, Message(2));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults_before);
  EXPECT_EQ(Metric("skybridge.ipc.stale_slot_retries"), retries_before);

  // And core 0 transparently faults the binding back in.
  auto refault = sky_->DirectServerCall(t0, target, Message(3));
  ASSERT_TRUE(refault.ok()) << refault.status().ToString();
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults_before + 1);
  ExpectInvariants();
}

// ---- Slot-install fault injection ----

TEST_F(SkyBridgeEptpTest, SlotInstallFaultSurfacesUnavailableThenRecovers) {
  Boot();
  const ServerId sid = NewEchoServer();
  auto* client = NewProcess("client");
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* thread = ClientThread(client, 0);

  // First call on a fresh binding takes the slot-fault slow path; the armed
  // fault makes the rootkernel refuse the install.
  sb::fault::FaultSpec spec;
  spec.nth_hit = 1;
  sb::fault::Arm(kFaultSlotInstall, spec);
  const uint64_t rejected_before = Metric("skybridge.ipc.rejected_calls");
  auto refused = sky_->DirectServerCall(thread, sid, Message(1));
  EXPECT_EQ(refused.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), rejected_before + 1);
  EXPECT_EQ(sky_->InFlightCalls(), 0u);
  ExpectInvariants();

  // Disarmed, the next call faults the slot in and succeeds.
  sb::fault::DisarmAll();
  auto reply = sky_->DirectServerCall(thread, sid, Message(2));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 2u);
  EXPECT_GE(Metric("skybridge.eptp.slot_faults"), 2u);  // The refused attempt counted too.
  ExpectInvariants();
}

// ---- Nested calls under tight working sets ----

TEST_F(SkyBridgeEptpTest, NestedCallSlotFaultSparesPinnedGateSlots) {
  SkyBridgeConfig config;
  config.eptp_working_set = 4;  // Base + 3: entry, outer route, inner route.
  Boot(config);
  // inner chain: client -> front -> back. The inner call's slot fault may
  // need a victim while the outer call's entry and route slots are pinned.
  const ServerId back = NewEchoServer();
  auto* front_proc = NewProcess("front");
  ServerId front = 0;
  mk::Thread* front_thread = nullptr;
  front = sky_
              ->RegisterServer(front_proc, 8,
                               [this, &back, &front_thread](CallEnv& env) {
                                 auto inner = sky_->DirectServerCall(
                                     front_thread, back, Message(env.request.tag + 1));
                                 SB_CHECK(inner.ok()) << inner.status().ToString();
                                 return *inner;
                               })
              .value();
  auto* client = NewProcess("client");
  ASSERT_TRUE(sky_->RegisterClient(client, front).ok());
  ASSERT_TRUE(sky_->RegisterClient(front_proc, back).ok());
  front_thread = front_proc->AddThread(0);
  mk::Thread* thread = ClientThread(client, 0);

  for (int i = 0; i < 8; ++i) {
    auto reply = sky_->DirectServerCall(thread, front, Message(10 * i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, static_cast<uint64_t>(10 * i + 1));
    ExpectInvariants();
  }
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
}

}  // namespace
}  // namespace skybridge
