// EPTP slot virtualization and binding consolidation (DESIGN.md section 15):
// bounded per-core slot working sets with LRU eviction serve far more
// bindings than the hardware's 512-entry EPTP list, and all direct clients
// of one server share a single binding EPT. These tests pin down the
// semantics: slot faults are transparent, hot bindings stay resident,
// consolidation keeps per-connection keys/buffers distinct, sibling
// revocation is isolated, and eviction on one core never stales another.

#include "src/skybridge/skybridge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/base/faultpoint.h"
#include "src/base/rng.h"
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

// ---- Slot policy against a reference model ----

// The per-core slot policy written the plain way: a list LRU over the
// occupied slots (front = most recently used), a LIFO vector of freed slots
// and the round-robin cursor of the ablation. Keys are the test's own
// binding numbers; kSelf is the client's own view.
class SlotModel {
 public:
  static constexpr int kSelf = -1;

  SlotModel(size_t working_set, bool lru) : working_set_(working_set), lru_(lru) {}

  // Makes `key` resident the way RouteTable::EnsureResident must; true on a
  // miss. `active` and `pinned` are the slots no victim may be taken from.
  bool Ensure(int key, uint32_t active, const std::vector<uint32_t>& pinned) {
    const uint32_t hit = SlotOf(key);
    if (hit != kNoEptpSlot) {
      order_.remove(hit);
      order_.push_front(hit);
      return false;
    }
    uint32_t slot = 0;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      if (std::any_of(free_.begin(), free_.end(), [slot](uint32_t s) { return s < slot; })) {
        ++reused_above_lowest;
      }
    } else if (ids_.size() < working_set_) {
      slot = static_cast<uint32_t>(ids_.size());
      ids_.push_back(key);
    } else {
      slot = Victim(active, pinned);
      order_.remove(slot);
      ++evictions;
    }
    ids_[slot] = key;
    order_.push_front(slot);
    return true;
  }

  // Revocation's sweep: the slot goes back to the base EPT and onto the free
  // vector (at an op boundary nothing is pinned and the active view is kSelf).
  void Free(int key) {
    const uint32_t slot = SlotOf(key);
    if (slot == kNoEptpSlot) {
      return;
    }
    ids_[slot] = kFree;
    order_.remove(slot);
    free_.push_back(slot);
    ++evictions;
  }

  uint32_t SlotOf(int key) const {
    for (uint32_t s = 1; s < ids_.size(); ++s) {
      if (ids_[s] == key) {
        return s;
      }
    }
    return kNoEptpSlot;
  }

  uint64_t evictions = 0;
  uint64_t reused_above_lowest = 0;  // Free reuse that did not take the lowest slot.
  uint64_t victims_past_pin = 0;     // LRU victims chosen past a pinned older slot.

 private:
  static constexpr int kFree = -2;

  uint32_t Victim(uint32_t active, const std::vector<uint32_t>& pinned) {
    auto eligible = [&](uint32_t s) {
      return s != active && std::find(pinned.begin(), pinned.end(), s) == pinned.end();
    };
    if (lru_) {
      bool passed_pin = false;
      for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        if (eligible(*it)) {
          victims_past_pin += passed_pin ? 1 : 0;
          return *it;
        }
        passed_pin = passed_pin || *it != active;
      }
    } else {
      const uint32_t n = static_cast<uint32_t>(ids_.size());
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t s = rr_;
        rr_ = rr_ + 1 >= n ? 1 : rr_ + 1;
        if (s != 0 && ids_[s] != kFree && eligible(s)) {
          return s;
        }
      }
    }
    ADD_FAILURE() << "model found no victim";
    return 0;
  }

  size_t working_set_;
  bool lru_;
  std::vector<int> ids_{kFree};  // Slot 0: the base EPT, never a candidate.
  std::list<uint32_t> order_;
  std::vector<uint32_t> free_;
  uint32_t rr_ = 1;
};

class SlotPolicyTest : public SkyBridgeEptpTest,
                       public ::testing::WithParamInterface<std::tuple<size_t, bool>> {};

// One client on core 0 with about three bindings per slot: seeded direct
// calls with a hot set, nested calls (the inner leg's victim must pass over
// the outer call's pinned slots), revocations whose sweep frees slots, and
// revivals. After every op each binding's slot, the client's active view,
// and the fault and eviction counters must match the model.
TEST_P(SlotPolicyTest, ResidencyFollowsTheReferenceModel) {
  const auto [working_set, lru] = GetParam();
  SkyBridgeConfig config;
  config.eptp_working_set = working_set;
  config.lru_slot_eviction = lru;
  Boot(config);

  const int echoes = static_cast<int>(3 * working_set) - 2;
  std::vector<ServerId> sids;  // Keys [0, echoes): echo servers; echoes: front.
  for (int i = 0; i < echoes; ++i) {
    sids.push_back(NewEchoServer());
  }
  const ServerId back = NewEchoServer();
  auto* front_proc = NewProcess("front");
  mk::Thread* front_thread = nullptr;
  sids.push_back(sky_
                     ->RegisterServer(front_proc, 8,
                                      [this, back, &front_thread](CallEnv& env) {
                                        auto inner = sky_->DirectServerCall(
                                            front_thread, back, Message(env.request.tag + 1));
                                        SB_CHECK(inner.ok()) << inner.status().ToString();
                                        return *inner;
                                      })
                     .value());
  const int front = echoes;
  const int chain = echoes + 1;  // The client -> back chain binding of a nested call.
  auto* client = NewProcess("client");
  for (const ServerId sid : sids) {
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  }
  ASSERT_TRUE(sky_->RegisterClient(front_proc, back).ok());
  front_thread = front_proc->AddThread(0);

  const uint64_t evictions_before = Metric("skybridge.eptp.slot_evictions");
  const uint64_t faults_before = Metric("skybridge.eptp.slot_faults");
  mk::Thread* thread = ClientThread(client, 0);
  SlotModel model(working_set, lru);
  model.Ensure(SlotModel::kSelf, kNoEptpSlot, {});
  uint64_t faults = 0;

  auto call = [&](int key, uint64_t tag) {
    const uint32_t self = model.SlotOf(SlotModel::kSelf);
    faults += model.Ensure(key, self, {}) ? 1 : 0;
    if (key == front) {
      const uint32_t outer = model.SlotOf(front);
      faults += model.Ensure(chain, outer, {self, outer}) ? 1 : 0;
    }
    auto reply = sky_->DirectServerCall(thread, sids[static_cast<size_t>(key)], Message(tag));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, key == front ? tag + 1 : tag);
  };

  std::vector<bool> revoked(sids.size(), false);
  sb::Rng rng(0x5107 + working_set * 2 + (lru ? 1 : 0));
  constexpr int kOps = 2000;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t roll = rng.Below(100);
    // Half the direct calls go to a hot set of working_set / 2 servers.
    const int key = rng.OneIn(2)
                        ? static_cast<int>(rng.Below(working_set / 2))
                        : static_cast<int>(rng.Below(sids.size()));
    if (roll < 65) {
      const int target = roll < 50 ? key : front;
      if (revoked[static_cast<size_t>(target)]) {
        EXPECT_EQ(sky_->DirectServerCall(thread, sids[static_cast<size_t>(target)], Message(op))
                      .status()
                      .code(),
                  ErrorCode::kPermissionDenied);
      } else {
        ASSERT_NO_FATAL_FAILURE(call(target, static_cast<uint64_t>(op)));
      }
    } else if (roll < 82) {
      // Revoke a resident binding when there is one, so frees pile up.
      std::vector<int> resident;
      for (int k = 0; k <= front; ++k) {
        if (model.SlotOf(k) != kNoEptpSlot) {
          resident.push_back(k);
        }
      }
      const int victim =
          resident.empty() ? key : resident[static_cast<size_t>(rng.Below(resident.size()))];
      ASSERT_TRUE(sky_->RevokeBinding(client, sids[static_cast<size_t>(victim)]).ok());
      if (!revoked[static_cast<size_t>(victim)]) {
        model.Free(victim);
        revoked[static_cast<size_t>(victim)] = true;
      }
    } else {
      std::vector<int> dead;
      for (int k = 0; k <= front; ++k) {
        if (revoked[static_cast<size_t>(k)]) {
          dead.push_back(k);
        }
      }
      if (!dead.empty()) {
        const int revived = dead[static_cast<size_t>(rng.Below(dead.size()))];
        ASSERT_TRUE(sky_->RegisterClient(client, sids[static_cast<size_t>(revived)]).ok());
        revoked[static_cast<size_t>(revived)] = false;
      }
    }

    for (int k = 0; k <= front; ++k) {
      ASSERT_EQ(sky_->ResidentBindingSlot(client, sids[static_cast<size_t>(k)], 0),
                model.SlotOf(k))
          << "binding " << k << " after op " << op;
    }
    ASSERT_EQ(sky_->ResidentBindingSlot(client, back, 0), model.SlotOf(chain))
        << "chain binding after op " << op;
    ASSERT_EQ(machine_->core(0).vmcs().active_index, model.SlotOf(SlotModel::kSelf));
    ASSERT_EQ(Metric("skybridge.eptp.slot_evictions") - evictions_before, model.evictions)
        << "after op " << op;
    ASSERT_EQ(Metric("skybridge.eptp.slot_faults") - faults_before, faults) << "after op " << op;
    ExpectInvariants();
  }
  // The run reached the choices a wrong policy would get wrong.
  EXPECT_GT(model.reused_above_lowest, 0u);
  if (lru) {
    EXPECT_GT(model.victims_past_pin, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, SlotPolicyTest,
                         ::testing::Combine(::testing::Values(size_t{4}, size_t{8}),
                                            ::testing::Bool()));

}  // namespace
}  // namespace skybridge
