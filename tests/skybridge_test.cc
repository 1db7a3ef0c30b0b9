// SkyBridge integration tests: registration, the 396-cycle direct call, the
// address-space switch, long IPC, and the Section 4.4 / Section 7 security
// properties.
//
// The whole suite is parameterized over crossing backend x registration mode
// (DESIGN.md sections 16-17, tests/crossing_grid.h): every test runs against
// EPTP, MPK and the kernel-fastpath baseline, each registered eagerly, lazily
// and from snapshots, skipping only the cases tied to a capability the
// backend lacks (EPTP slot behaviour on kSyscall, which installs no view
// slots).

#include "src/skybridge/skybridge.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "src/x86/assembler.h"
#include "src/x86/scanner.h"
#include "tests/crossing_grid.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::kGiB;

hw::MachineConfig TestMachine() {
  hw::MachineConfig config;
  config.num_cores = 4;
  config.ram_bytes = 4 * kGiB;
  return config;
}

class SkyBridgeTest : public CrossingGridTest {
 protected:
  void Boot(mk::KernelProfile profile = mk::Sel4Profile(), SkyBridgeConfig config = {}) {
    Apply(config);
    sky_.reset();      // Tear down in dependency order before re-booting.
    kernel_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(TestMachine());
    kernel_ = std::make_unique<mk::Kernel>(*machine_, std::move(profile));
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  struct Pair {
    mk::Process* client;
    mk::Process* server;
    mk::Thread* thread;
    ServerId sid;
  };

  Pair MakePair(Handler handler, int connections = 8) {
    Pair p;
    p.client = kernel_->CreateProcess("client").value();
    p.server = kernel_->CreateProcess("server").value();
    p.sid = sky_->RegisterServer(p.server, connections, std::move(handler)).value();
    SB_CHECK(sky_->RegisterClient(p.client, p.sid).ok());
    p.thread = p.client->AddThread(0);
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(0), p.client).ok());
    return p;
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

INSTANTIATE_TEST_SUITE_P(Backends, SkyBridgeTest, ::testing::ValuesIn(AllCrossingCells()),
                         CrossingCellName);

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

// The defaults are the paper's design — a VMFUNC EPTP switch over eagerly
// rewritten binaries — and no environment variable can change them, so a
// shell setting cannot silently rewrite a bench's figures.
TEST(SkyBridgeConfigTest, DefaultsIgnoreEnvironment) {
  setenv("SB_CROSSING_BACKEND", "mpk", 1);
  setenv("SB_REGISTRATION_MODE", "lazy", 1);
  const SkyBridgeConfig defaults;
  EXPECT_EQ(defaults.crossing_backend, CrossingBackendKind::kEptp);
  EXPECT_EQ(defaults.registration_mode, RegistrationMode::kEager);

  hw::Machine machine(TestMachine());
  mk::Kernel kernel(machine, mk::Sel4Profile());
  ASSERT_TRUE(kernel.Boot().ok());
  SkyBridge sky(kernel);
  mk::Process* server = kernel.CreateProcess("server").value();
  mk::Process* client = kernel.CreateProcess("client").value();
  const ServerId sid = sky.RegisterServer(server, 8, EchoHandler()).value();
  ASSERT_TRUE(sky.RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel.ContextSwitchTo(machine.core(0), client).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sky.DirectServerCall(thread, sid, Message(1)).ok());
  }
  hw::Core& core = machine.core(0);
  const uint64_t start = core.cycles();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sky.DirectServerCall(thread, sid, Message(1)).ok());
  }
  EXPECT_EQ((core.cycles() - start) / 1000, 396u);  // Fig 7's warm roundtrip.
  unsetenv("SB_CROSSING_BACKEND");
  unsetenv("SB_REGISTRATION_MODE");
}

TEST_P(SkyBridgeTest, DirectCallRoundTrip) {
  Boot();
  Pair p = MakePair(EchoHandler());
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(42));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 42u);
  EXPECT_EQ(Metric("skybridge.ipc.direct_calls"), 1u);
}

TEST_P(SkyBridgeTest, WarmRoundtripMatchesTheBackendCostModel) {
  Boot();
  Pair p = MakePair(EchoHandler());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  }
  hw::Core& core = machine_->core(0);
  const uint64_t start = core.cycles();
  const hw::CycleLedger before = core.ledger();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  }
  const uint64_t rt = (core.cycles() - start) / 100;
  const hw::CycleLedger bd = core.ledger() - before;
  const hw::CostModel& costs = machine_->costs();
  if (IsEptp()) {
    EXPECT_GE(rt, 396u);
    EXPECT_LE(rt, 500u);  // 396 + warm key-table/trampoline traffic.
    EXPECT_EQ(bd[hw::Bucket::kVmfunc] / 100, 2 * costs.vmfunc);
    EXPECT_EQ(bd[hw::Bucket::kSyscall], 0u);    // No kernel involvement.
    EXPECT_EQ(bd[hw::Bucket::kCtxSwitch], 0u);  // No CR3 write.
  } else if (IsMpk()) {
    // WRPKRU (~20 cycles) replaces VMFUNC (~134): cheaper than the paper's
    // roundtrip, still fully user-mode.
    EXPECT_LT(rt, 396u);
    EXPECT_EQ(bd[hw::Bucket::kVmfunc] / 100, 2 * costs.wrpkru);
    EXPECT_EQ(bd[hw::Bucket::kSyscall], 0u);
    EXPECT_EQ(bd[hw::Bucket::kCtxSwitch], 0u);
  } else {
    // The kernel fastpath traps and switches CR3 on every leg: no gate
    // cycles, but strictly dearer than either user-mode switch.
    EXPECT_GT(rt, 500u);
    EXPECT_EQ(bd[hw::Bucket::kVmfunc], 0u);
    EXPECT_GT(bd[hw::Bucket::kSyscall], 0u);
    EXPECT_GT(bd[hw::Bucket::kCtxSwitch], 0u);
  }
  EXPECT_EQ(bd[hw::Bucket::kWait], 0u);  // Same-core call: no IPI wait.
}

TEST_P(SkyBridgeTest, NoVmExitsInSteadyState) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  const uint64_t exits_before = Metric("hw.vmexit.total");
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  }
  EXPECT_EQ(Metric("hw.vmexit.total"), exits_before);
}

TEST_P(SkyBridgeTest, HandlerRunsInServerAddressSpace) {
  Boot();
  uint64_t observed_cr3 = 0;
  uint64_t observed_identity = 0;
  Handler handler = [&](CallEnv& env) {
    observed_cr3 = env.core.cr3();
    observed_identity = *env.kernel.CurrentIdentity(env.core);
    SB_CHECK(env.core.WriteVirtU64(mk::kHeapVa + 0x200, 0xabcdULL).ok());
    return Message(0);
  };
  Pair p = MakePair(handler);
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());

  if (IsSyscall()) {
    // The kernel fastpath really switched CR3 to the server's root.
    EXPECT_EQ(observed_cr3, p.server->cr3());
  } else {
    // The hardware CR3 still held the *client's* root during the handler;
    // the view switch remapped it to the server's page tables.
    EXPECT_EQ(observed_cr3, p.client->cr3());
  }
  // Either way the identity page (and thus the kernel's view) said "server".
  EXPECT_EQ(observed_identity, p.server->pid());

  // The handler's write landed in the server's heap, not the client's.
  hw::Core& core = machine_->core(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, p.server).ok());
  EXPECT_EQ(*core.ReadVirtU64(mk::kHeapVa + 0x200), 0xabcdULL);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, p.client).ok());
  EXPECT_EQ(*core.ReadVirtU64(mk::kHeapVa + 0x200), 0u);
}

TEST_P(SkyBridgeTest, LongMessagesThroughSharedBuffer) {
  Boot();
  std::string seen;
  Handler handler = [&seen](CallEnv& env) {
    seen = env.request.ToString();
    return Message::FromString(1, std::string(3000, 'r'));
  };
  Pair p = MakePair(handler);
  std::string big(5000, 'q');
  big[0] = 'Q';
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message::FromString(7, big));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(seen.size(), 5000u);
  EXPECT_EQ(seen[0], 'Q');
  EXPECT_EQ(reply->size(), 3000u);
  EXPECT_EQ(Metric("skybridge.ipc.long_calls"), 1u);
}

TEST_P(SkyBridgeTest, UnregisteredClientRejected) {
  Boot();
  Pair p = MakePair(EchoHandler());
  auto* stranger = kernel_->CreateProcess("stranger").value();
  mk::Thread* t = stranger->AddThread(1);
  auto result = sky_->DirectServerCall(t, p.sid, Message(0));
  EXPECT_EQ(result.status().code(), sb::ErrorCode::kPermissionDenied);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 1u);
}

TEST_P(SkyBridgeTest, ForgedCallingKeyRejected) {
  Boot();
  Pair p = MakePair(EchoHandler());
  auto result = sky_->CallWithForgedKey(p.thread, p.sid, Message(0), 0x1234);
  EXPECT_EQ(result.status().code(), sb::ErrorCode::kPermissionDenied);
  EXPECT_GE(Metric("skybridge.ipc.rejected_calls"), 1u);
  // The legitimate path still works afterwards.
  EXPECT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
}

TEST_P(SkyBridgeTest, CallingKeyCheckCanBeDisabled) {
  SkyBridgeConfig config;
  config.calling_keys = false;
  Boot(mk::Sel4Profile(), config);
  Pair p = MakePair(EchoHandler());
  // With checks off, even a forged key passes (the ablation's insecurity).
  EXPECT_TRUE(sky_->CallWithForgedKey(p.thread, p.sid, Message(0), 0x1234).ok());
}

TEST_P(SkyBridgeTest, RegistrationRewritesPlantedGatePattern) {
  Boot();
  // A client whose binary carries a self-prepared gate instruction (the
  // SeCage-style attack): registration must rewrite away the backend's own
  // primitive — VMFUNC for EPTP, WRPKRU for MPK. The kernel fastpath has no
  // user-mode gate, so kSyscall leaves the image untouched.
  x86::Assembler a;
  a.MovRI64(x86::Reg::kRax, 0);
  if (IsMpk()) {
    a.Wrpkru();  // Malicious key switch.
    a.AddRI(x86::Reg::kRax, 0x00ef010f);  // And an embedded pattern.
  } else {
    a.Vmfunc();  // Malicious gate.
    a.AddRI(x86::Reg::kRax, 0x00d4010f);  // And an embedded pattern.
  }
  a.Ret();
  auto* evil = kernel_->CreateProcessWithImage("evil", a.Take()).value();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid = sky_->RegisterServer(server, 4, EchoHandler()).value();
  ASSERT_TRUE(sky_->RegisterClient(evil, sid).ok());

  if (IsSyscall()) {
    EXPECT_FALSE(evil->code_rewritten());
    EXPECT_EQ(x86::FindVmfuncBytes(evil->code_image()).size(), 2u);
    EXPECT_FALSE(evil->address_space().WalkVa(mk::kRewritePageVa).ok);
    return;
  }
  x86::ScanOptions options;
  options.pattern = IsMpk() ? x86::kWrpkruBytes : x86::kVmfuncBytes;
  if (sky_->config().registration_mode == RegistrationMode::kLazy) {
    // Staged registration (DESIGN.md section 17): nothing is scanned yet —
    // the planted gate is still in the image, but the code page is
    // non-executable in the EPT, so it cannot run before the scrub.
    EXPECT_FALSE(evil->code_rewritten());
    EXPECT_FALSE(x86::FindVmfuncBytes(evil->code_image(), options).empty());
    const hw::GuestWalk code_walk = evil->address_space().WalkVa(mk::kCodeVa);
    ASSERT_TRUE(code_walk.ok);
    hw::Ept* ept = kernel_->rootkernel()->ept(evil->ept_id());
    ASSERT_NE(ept, nullptr);
    EXPECT_FALSE(ept->Walk(code_walk.gpa, hw::kEptExec).ok);
    // The first execution faults into the rewrite-on-first-execute slow
    // path, which scrubs the page and flips it executable.
    mk::Thread* thread = evil->AddThread(0);
    ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), evil).ok());
    ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
    EXPECT_GE(Metric("skybridge.registration.exec_faults"), 1u);
    EXPECT_GE(Metric("skybridge.registration.lazy_rewrites"), 1u);
    EXPECT_TRUE(ept->Walk(code_walk.gpa, hw::kEptExec).ok);
  }
  EXPECT_TRUE(evil->code_rewritten());
  EXPECT_TRUE(x86::FindVmfuncBytes(evil->code_image(), options).empty());
  // The VMFUNC scrub runs for every view-slot backend, MPK included.
  EXPECT_TRUE(x86::FindVmfuncBytes(evil->code_image()).empty());
  EXPECT_GE(Metric("skybridge.rewrite.vmfuncs"), 2u);
  // The rewrite window got mapped at the pattern's fixed address: VMFUNC
  // snippets at window 0 (the paper's address), WRPKRU snippets at window 1.
  const hw::Gva window = mk::kRewritePageVa + (IsMpk() ? 16 * sb::kPageSize : 0);
  EXPECT_TRUE(evil->address_space().WalkVa(window).ok);
}

TEST_P(SkyBridgeTest, CleanBinariesAreLeftAlone) {
  Boot();
  Pair p = MakePair(EchoHandler());
  EXPECT_TRUE(x86::FindVmfuncBytes(p.client->code_image()).empty());
  EXPECT_FALSE(p.client->address_space().WalkVa(mk::kRewritePageVa).ok);
}

TEST_P(SkyBridgeTest, TimeoutForcesReturn) {
  Boot();
  Handler slow = [](CallEnv& env) {
    env.core.AdvanceCycles(kHandlerTimeoutCycles + 1);  // A hanging server.
    return Message(0);
  };
  Pair p = MakePair(slow);
  auto result = sky_->DirectServerCall(p.thread, p.sid, Message(0));
  EXPECT_EQ(result.status().code(), sb::ErrorCode::kTimeout);
  EXPECT_EQ(Metric("skybridge.ipc.timeouts"), 1u);
}

TEST_P(SkyBridgeTest, ConnectionLimitEnforced) {
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid = sky_->RegisterServer(server, 2, EchoHandler()).value();
  auto* c1 = kernel_->CreateProcess("c1").value();
  auto* c2 = kernel_->CreateProcess("c2").value();
  auto* c3 = kernel_->CreateProcess("c3").value();
  EXPECT_TRUE(sky_->RegisterClient(c1, sid).ok());
  EXPECT_TRUE(sky_->RegisterClient(c2, sid).ok());
  EXPECT_EQ(sky_->RegisterClient(c3, sid).code(),
            sb::ErrorCode::kResourceExhausted);
}

TEST_P(SkyBridgeTest, MultiServerFanOut) {
  Boot();
  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  std::vector<ServerId> sids;
  for (int i = 0; i < 5; ++i) {
    auto* server = kernel_->CreateProcess("server" + std::to_string(i)).value();
    const uint64_t marker = 100 + static_cast<uint64_t>(i);
    const ServerId sid =
        sky_->RegisterServer(server, 4, [marker](CallEnv&) { return Message(marker); }).value();
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
    sids.push_back(sid);
  }
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  for (int i = 0; i < 5; ++i) {
    auto reply = sky_->DirectServerCall(t, sids[static_cast<size_t>(i)], Message(0));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->tag, 100u + static_cast<uint64_t>(i));
  }
}

TEST_P(SkyBridgeTest, EptpLruEvictionBeyondCapacity) {
  if (IsSyscall()) {
    GTEST_SKIP() << "kSyscall bindings occupy no EPTP slots";
  }
  SkyBridgeConfig config;
  config.eptp_working_set = 4;  // Base EPT + client view + 2 bindings.
  Boot(mk::Sel4Profile(), config);

  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  std::vector<ServerId> sids;
  for (int i = 0; i < 4; ++i) {
    auto* server = kernel_->CreateProcess("server" + std::to_string(i)).value();
    const uint64_t marker = 200 + static_cast<uint64_t>(i);
    const ServerId sid =
        sky_->RegisterServer(server, 4, [marker](CallEnv&) { return Message(marker); }).value();
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
    sids.push_back(sid);
  }
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  auto resident = [&] {
    size_t n = 0;
    for (const ServerId sid : sids) {
      n += sky_->ResidentBindingSlot(client, sid, 0) != kNoEptpSlot ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(resident(), 0u);  // Registration makes nothing resident.

  // Every server remains callable; evicted bindings fault back in on demand
  // (paper Section 10's future-work mechanism). Cycling four bindings
  // through two slots under LRU faults on every call.
  const uint64_t faults0 = Metric("skybridge.eptp.slot_faults");
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4; ++i) {
      auto reply = sky_->DirectServerCall(t, sids[static_cast<size_t>(i)], Message(0));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_EQ(reply->tag, 200u + static_cast<uint64_t>(i));
    }
  }
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults0 + 8);
  EXPECT_EQ(resident(), 2u);
  EXPECT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
}

TEST_P(SkyBridgeTest, RouteCacheServesRepeatCallsWithoutIndexLookups) {
  Boot();
  Pair p = MakePair(EchoHandler());
  const uint64_t misses0 = Metric("skybridge.lookup.misses");
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  // First call: cold per-thread cache -> one index lookup.
  EXPECT_EQ(Metric("skybridge.lookup.misses"), misses0 + 1);
  const uint64_t hits0 = Metric("skybridge.lookup.hits");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  }
  // Every repeat call hits the per-thread last-route cache; nothing falls
  // through to the index (and, a fortiori, nothing scans the binding table).
  EXPECT_EQ(Metric("skybridge.lookup.hits"), hits0 + 50);
  EXPECT_EQ(Metric("skybridge.lookup.misses"), misses0 + 1);

  // A second thread has its own (cold) cache.
  mk::Thread* t2 = p.client->AddThread(0);
  ASSERT_TRUE(sky_->DirectServerCall(t2, p.sid, Message(0)).ok());
  EXPECT_EQ(Metric("skybridge.lookup.misses"), misses0 + 2);
}

TEST_P(SkyBridgeTest, AlternatingServersFallBackToTheIndex) {
  Boot();
  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  std::vector<ServerId> sids;
  for (int i = 0; i < 2; ++i) {
    auto* server = kernel_->CreateProcess("server" + std::to_string(i)).value();
    const uint64_t marker = 400 + static_cast<uint64_t>(i);
    const ServerId sid =
        sky_->RegisterServer(server, 4, [marker](CallEnv&) { return Message(marker); }).value();
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
    sids.push_back(sid);
  }
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  const uint64_t hits0 = Metric("skybridge.lookup.hits");
  const uint64_t misses0 = Metric("skybridge.lookup.misses");
  for (int i = 0; i < 20; ++i) {
    auto reply = sky_->DirectServerCall(t, sids[static_cast<size_t>(i % 2)], Message(0));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->tag, 400u + static_cast<uint64_t>(i % 2));
  }
  // The alternation defeats the single-entry thread cache: every call is an
  // index lookup, and every one still resolves correctly.
  EXPECT_EQ(Metric("skybridge.lookup.hits"), hits0);
  EXPECT_EQ(Metric("skybridge.lookup.misses"), misses0 + 20);
}

TEST_P(SkyBridgeTest, EvictionReshuffleInvalidatesCachedSlots) {
  if (IsSyscall()) {
    GTEST_SKIP() << "kSyscall bindings occupy no EPTP slots";
  }
  // Regression test: an eviction must never leave a surviving binding
  // routed through a slot that now holds another server's EPT, or the next
  // call would VMFUNC into the wrong address space. Freed slots are refilled
  // in place, so no survivor's slot moves.
  SkyBridgeConfig config;
  config.eptp_working_set = 4;  // Base EPT + client view + 2 bindings.
  Boot(mk::Sel4Profile(), config);

  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  std::vector<ServerId> sids;
  for (int i = 0; i < 3; ++i) {
    auto* server = kernel_->CreateProcess("server" + std::to_string(i)).value();
    const uint64_t marker = 500 + static_cast<uint64_t>(i);
    const ServerId sid =
        sky_->RegisterServer(server, 4, [marker](CallEnv&) { return Message(marker); }).value();
    ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
    sids.push_back(sid);
  }
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  auto expect_marker = [&](int i) {
    auto reply = sky_->DirectServerCall(t, sids[static_cast<size_t>(i)], Message(0));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, 500u + static_cast<uint64_t>(i)) << "server " << i;
  };
  // Warm servers 1 and 2 into the two binding slots, then call 0: its slot
  // fault evicts the LRU binding (1) and takes its slot in place.
  expect_marker(1);
  expect_marker(2);
  const uint32_t slot2 = sky_->ResidentBindingSlot(client, sids[2], 0);
  const uint64_t faults0 = Metric("skybridge.eptp.slot_faults");
  expect_marker(0);
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults0 + 1);
  EXPECT_EQ(sky_->ResidentBindingSlot(client, sids[1], 0), kNoEptpSlot);
  // Server 2's slot did not move, and a call through it still lands in
  // server 2 (a wrong slot would fail the key check or return the wrong
  // marker) without faulting.
  EXPECT_EQ(sky_->ResidentBindingSlot(client, sids[2], 0), slot2);
  expect_marker(2);
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults0 + 1);
  // Churn through every rotation for good measure.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      expect_marker(i);
    }
  }
  EXPECT_GT(Metric("skybridge.eptp.slot_faults"), faults0 + 1);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);
  EXPECT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
}

TEST_P(SkyBridgeTest, NestedCallEvictionSparesThePinnedEntryEpt) {
  if (IsSyscall()) {
    GTEST_SKIP() << "kSyscall bindings occupy no EPTP slots";
  }
  // During a nested call the enclosing binding's EPT is the one the inner
  // call must return through. When making the inner chain binding resident
  // forces an eviction, the pinned entry slots must be skipped even when
  // they are the least recently used candidates.
  SkyBridgeConfig config;
  config.eptp_working_set = 4;  // Base EPT + client view + 2 bindings.
  Boot(mk::Sel4Profile(), config);

  auto* backend1 = kernel_->CreateProcess("backend1").value();
  const ServerId b1_sid =
      sky_->RegisterServer(backend1, 4, [](CallEnv&) { return Message(71); }).value();
  auto* backend2 = kernel_->CreateProcess("backend2").value();
  const ServerId b2_sid =
      sky_->RegisterServer(backend2, 4, [](CallEnv&) { return Message(72); }).value();

  auto* middle = kernel_->CreateProcess("middle").value();
  mk::Thread* middle_thread = middle->AddThread(0);
  SkyBridge* sky = sky_.get();
  // The middle server fans out to both backends. Core 0's slots are [base,
  // client view, middle, chain1] when the second chain binding faults in;
  // the client view and the middle binding are pinned by the outer call, so
  // the fault must pass over them and evict chain1.
  const ServerId middle_sid =
      sky_->RegisterServer(middle, 4, [sky, middle_thread, b1_sid, b2_sid](CallEnv&) {
        auto r1 = sky->DirectServerCall(middle_thread, b1_sid, Message(0));
        SB_CHECK(r1.ok());
        auto r2 = sky->DirectServerCall(middle_thread, b2_sid, Message(0));
        SB_CHECK(r2.ok());
        return Message(r1->tag * 100 + r2->tag);
      }).value();
  ASSERT_TRUE(sky_->RegisterClient(middle, b1_sid).ok());
  ASSERT_TRUE(sky_->RegisterClient(middle, b2_sid).ok());

  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(sky_->RegisterClient(client, middle_sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  auto reply = sky_->DirectServerCall(t, middle_sid, Message(0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 71u * 100 + 72);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), 0u);

  // The enclosing client->middle binding survived both inner faults: the
  // next top-level call finds it in the same slot and only the two chain
  // bindings, which share the one remaining slot, fault again.
  const uint32_t middle_slot = sky_->ResidentBindingSlot(client, middle_sid, 0);
  ASSERT_NE(middle_slot, kNoEptpSlot);
  const uint64_t faults = Metric("skybridge.eptp.slot_faults");
  reply = sky_->DirectServerCall(t, middle_sid, Message(0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 71u * 100 + 72);
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults + 2);
  EXPECT_EQ(sky_->ResidentBindingSlot(client, middle_sid, 0), middle_slot);
  EXPECT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
}

TEST_P(SkyBridgeTest, ChainBindingCreationChargesOneKernelEntry) {
  if (IsSyscall()) {
    GTEST_SKIP() << "kSyscall chain bindings occupy no EPTP slots";
  }
  // client -> middle -> backend. The first nested call creates the client ->
  // backend chain binding lazily: that creation is one kernel entry, on top
  // of the slot faults of the middle binding and the chain binding. The next
  // identical call reuses both and enters the kernel zero times.
  Boot();
  auto* backend = kernel_->CreateProcess("backend").value();
  const ServerId backend_sid =
      sky_->RegisterServer(backend, 4, [](CallEnv&) { return Message(81); }).value();
  auto* middle = kernel_->CreateProcess("middle").value();
  mk::Thread* middle_thread = middle->AddThread(0);
  SkyBridge* sky = sky_.get();
  const ServerId middle_sid =
      sky_->RegisterServer(middle, 4, [sky, middle_thread, backend_sid](CallEnv&) {
        auto inner = sky->DirectServerCall(middle_thread, backend_sid, Message(0));
        SB_CHECK(inner.ok());
        return Message(inner->tag + 1);
      }).value();
  ASSERT_TRUE(sky_->RegisterClient(middle, backend_sid).ok());
  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(sky_->RegisterClient(client, middle_sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  const uint64_t syscalls0 = Metric("mk.syscall.entries");
  const uint64_t faults0 = Metric("skybridge.eptp.slot_faults");
  auto reply = sky_->DirectServerCall(t, middle_sid, Message(0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 82u);
  EXPECT_EQ(Metric("mk.syscall.entries") - syscalls0, 3u);
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults") - faults0, 2u);

  const uint64_t syscalls1 = Metric("mk.syscall.entries");
  const uint64_t faults1 = Metric("skybridge.eptp.slot_faults");
  reply = sky_->DirectServerCall(t, middle_sid, Message(0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 82u);
  EXPECT_EQ(Metric("mk.syscall.entries"), syscalls1);
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults1);
  EXPECT_TRUE(sky_->CheckInvariants().ok()) << sky_->CheckInvariants().ToString();
}

TEST_P(SkyBridgeTest, RegistrationScanStatsAreRecorded) {
  Boot();
  Pair p = MakePair(EchoHandler());
  if (IsSyscall()) {
    // No gate primitive to scrub: registration never scanned anything.
    EXPECT_EQ(Metric("skybridge.rewrite.scan_pages"), 0u);
    return;
  }
  if (sky_->config().registration_mode == RegistrationMode::kLazy) {
    // Staged registration defers every scan to first execution.
    EXPECT_EQ(Metric("skybridge.rewrite.scan_pages"), 0u);
    ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  }
  // Registration (or the first call, under lazy) scanned the code pages.
  EXPECT_GT(Metric("skybridge.rewrite.scan_pages"), 0u);
}

TEST_P(SkyBridgeTest, SkyBridgeBeatsKernelIpcOnEveryPersonality) {
  if (IsSyscall()) {
    GTEST_SKIP() << "the kSyscall backend IS the kernel IPC baseline";
  }
  for (const mk::KernelKind kind :
       {mk::KernelKind::kSel4, mk::KernelKind::kFiasco, mk::KernelKind::kZircon}) {
    Boot(mk::ProfileFor(kind));
    Pair p = MakePair(EchoHandler());

    // Kernel IPC between the same pair.
    auto* ep = kernel_->CreateEndpoint(p.server, EchoHandler(), {}).value();
    const mk::CapSlot slot =
        kernel_->GrantEndpointCap(p.client, ep->id(), mk::kRightCall).value();

    hw::Core& core = machine_->core(0);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
      ASSERT_TRUE(kernel_->IpcCall(p.thread, slot, Message(0)).ok());
    }
    uint64_t t0 = core.cycles();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
    }
    const uint64_t sky_rt = (core.cycles() - t0) / 100;
    t0 = core.cycles();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(kernel_->IpcCall(p.thread, slot, Message(0)).ok());
    }
    const uint64_t ipc_rt = (core.cycles() - t0) / 100;
    EXPECT_LT(sky_rt, ipc_rt) << mk::ProfileFor(kind).name;
  }
}

TEST_P(SkyBridgeTest, NestedDirectCallsAcrossThreeProcesses) {
  // client -> middle -> backend, both hops over SkyBridge (the SQLite-stack
  // shape: app -> fs -> disk). On kSyscall the kernel really switches
  // current_process per leg, so the nest degenerates to plain calls — the
  // reply arithmetic must come out identical regardless.
  Boot();
  auto* backend = kernel_->CreateProcess("backend").value();
  const ServerId backend_sid =
      sky_->RegisterServer(backend, 4, [](CallEnv& env) {
        return Message(env.request.tag * 2);
      }).value();

  auto* middle = kernel_->CreateProcess("middle").value();
  mk::Thread* middle_thread = middle->AddThread(0);
  SkyBridge* sky = sky_.get();
  const ServerId middle_sid =
      sky_->RegisterServer(middle, 4, [sky, middle_thread, backend_sid](CallEnv& env) {
        auto inner = sky->DirectServerCall(middle_thread, backend_sid, Message(env.request.tag + 1));
        SB_CHECK(inner.ok());
        return Message(inner->tag + 100);
      }).value();
  ASSERT_TRUE(sky_->RegisterClient(middle, backend_sid).ok());

  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(sky_->RegisterClient(client, middle_sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  auto reply = sky_->DirectServerCall(t, middle_sid, Message(5));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, (5u + 1) * 2 + 100);
}

TEST_P(SkyBridgeTest, NestedCallPhasesExcludeTheInnerCall) {
  // client -> middle -> backend, where middle's handler makes the inner call
  // with a long message. Each call's phase samples hold its own cycles only:
  // the outer sample leaves out everything middle's handler ran, the inner
  // crossing and its copies included.
  Boot();
  auto* backend = kernel_->CreateProcess("backend").value();
  const ServerId backend_sid =
      sky_->RegisterServer(backend, 4, [](CallEnv& env) { return env.request.ToOwned(); })
          .value();
  auto* middle = kernel_->CreateProcess("middle").value();
  mk::Thread* middle_thread = middle->AddThread(0);
  SkyBridge* sky = sky_.get();
  const Message long_msg(7, std::vector<uint8_t>(1024, 0xab));
  const ServerId middle_sid =
      sky_->RegisterServer(middle, 4, [sky, middle_thread, backend_sid, &long_msg](CallEnv&) {
        auto inner = sky->DirectServerCall(middle_thread, backend_sid, long_msg);
        SB_CHECK(inner.ok());
        return Message(inner->tag);
      }).value();
  ASSERT_TRUE(sky_->RegisterClient(middle, backend_sid).ok());
  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(sky_->RegisterClient(client, middle_sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sky_->DirectServerCall(t, middle_sid, Message(1)).ok());
  }
  sb::telemetry::Registry& reg = machine_->telemetry();
  const sb::telemetry::LatencyHistogram& vmfunc = reg.GetHistogram("skybridge.phase.vmfunc");
  const sb::telemetry::LatencyHistogram& copy = reg.GetHistogram("skybridge.phase.copy");
  EXPECT_EQ(vmfunc.Count(), 20u);  // One sample per call, outer and inner.
  const hw::CostModel& costs = machine_->costs();
  const uint64_t leg = IsEptp() ? costs.vmfunc : IsMpk() ? costs.wrpkru : 0;
  // Every call's own entry and return legs; an outer sample that swallowed
  // the inner crossing would read 4 legs.
  EXPECT_EQ(vmfunc.Max(), 2 * leg);
  // Only the inner calls copy (request and reply); the outer samples are 0.
  EXPECT_GT(copy.Max(), 0u);
  EXPECT_EQ(copy.Percentile(0), 0u);
}

}  // namespace
}  // namespace skybridge
