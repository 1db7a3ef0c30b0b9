// Crash-safe IPC recovery tests: every fault point in the SkyBridge catalog
// is armed, the injected failure observed as a non-OK Status (never an
// SB_CHECK death), and the bridge verified healthy afterwards — EPT view
// restored, invariants intact, subsequent calls succeed.
//
// Parameterized over crossing backend x registration mode (DESIGN.md
// sections 16-17, tests/crossing_grid.h). Abort recovery is
// Rootkernel-mediated on the view-switch backends (EPTP, MPK) and a plain
// kernel reschedule on kSyscall; the stale-slot catalog points only exist
// where view slots do.

#include "src/skybridge/skybridge.h"

#include <gtest/gtest.h>

#include <string_view>

#include "src/base/faultpoint.h"
#include "src/base/telemetry/trace.h"
#include "src/hw/phys_mem.h"
#include "src/vmm/rootkernel.h"
#include "tests/crossing_grid.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::ErrorCode;
using sb::kGiB;

class FaultRecoveryTest : public CrossingGridTest {
 protected:
  void SetUp() override { sb::fault::DisarmAll(); }
  void TearDown() override { sb::fault::DisarmAll(); }

  void Boot(SkyBridgeConfig config = {}, const mk::KernelProfile& profile = mk::Sel4Profile()) {
    Apply(config);
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, profile);
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  // seL4 with KPTI: every kernel entry switches core 0 to the kernel's page
  // tables, so a path that forgets its kernel exit shows in the CR3.
  static mk::KernelProfile KptiProfile() {
    mk::KernelProfile profile = mk::Sel4Profile();
    profile.kpti = true;
    return profile;
  }

  // Aborts route through the Rootkernel hypercall on view-switch backends
  // only; the kernel fastpath recovers with a plain reschedule.
  uint64_t RootkernelAborts(uint64_t n) const { return IsSyscall() ? 0u : n; }

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

  // The bridge is healthy: invariants hold, nothing in flight, and the core
  // is back in the current process's own EPT view (whatever slot the working
  // set virtualizer parked it in — slot indices are no longer architectural).
  void ExpectHealthy() {
    const sb::Status invariants = sky_->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.ToString();
    EXPECT_EQ(sky_->InFlightCalls(), 0u);
    mk::Process* current = kernel_->current_process(0);
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(machine_->core(0).vmcs().active_ept(), kernel_->rootkernel()->ept(current->ept_id()));
  }

  // Both processes map a shared buffer at `va`, on the same frame.
  static void ExpectSharedBufferAt(mk::Process* client, mk::Process* server, hw::Gva va) {
    const hw::GuestWalk buffer = client->address_space().WalkVa(va);
    ASSERT_TRUE(buffer.ok);
    const hw::GuestWalk served = server->address_space().WalkVa(va);
    ASSERT_TRUE(served.ok);
    EXPECT_EQ(served.gpa, buffer.gpa);
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  // Boots with `config` and gives a client one region. The second server
  // then holds a page at the first (or last) page of the client's next
  // region, so that region is refused. Checks that the refusal leaves
  // nothing mapped or allocated, that removing the page frees what it took,
  // and that the retry gets the same VA and carries a call.
  void ExpectRefusedRegionLeavesNothing(const SkyBridgeConfig& config, bool squat_last_page);

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

INSTANTIATE_TEST_SUITE_P(Backends, FaultRecoveryTest, ::testing::ValuesIn(AllCrossingCells()),
                         CrossingCellName);

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

// ---- skybridge.handler.crash: abort + recovery ----

TEST_P(FaultRecoveryTest, HandlerCrashAbortsAndRecovers) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());

  sb::fault::Arm(kFaultHandlerCrash);
  auto crashed = sky_->DirectServerCall(p.thread, p.sid, Message(2));
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), ErrorCode::kAborted);
  ExpectHealthy();
  // On view-switch backends the abort went through the Rootkernel's
  // hypercall, not around it; the kernel fastpath never involves the VMM.
  EXPECT_EQ(Metric("vmm.aborts"), RootkernelAborts(1));
  EXPECT_EQ(Metric("skybridge.ipc.aborted_calls"), 1u);

  // Disarmed, the very next call succeeds on the same binding.
  sb::fault::DisarmAll();
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(3));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 3u);
  ExpectHealthy();
}

TEST_P(FaultRecoveryTest, HandlerCrashEmitsAbortTraceEvent) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  sb::fault::Arm(kFaultHandlerCrash);
  machine_->trace().SetEnabled(true);
  ASSERT_FALSE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());
  machine_->trace().SetEnabled(false);
  bool saw_abort = false;
  for (const auto& r : machine_->trace().Snapshot()) {
    if (r.type == sb::telemetry::TraceEventType::kCallAborted) {
      saw_abort = true;
      EXPECT_EQ(r.arg0, static_cast<uint64_t>(p.client->pid()));
      EXPECT_EQ(r.arg1, static_cast<uint64_t>(p.server->pid()));
    }
  }
  EXPECT_TRUE(saw_abort);
}

TEST_P(FaultRecoveryTest, NestedHandlerCrashAbortsInnerCallOnly) {
  // client -> middle -> backend; the backend handler crashes. The inner call
  // aborts back into the middle's entry view; the outer call completes.
  Boot();
  auto* backend = kernel_->CreateProcess("backend").value();
  const ServerId backend_sid =
      sky_->RegisterServer(backend, 4, [](CallEnv& env) { return env.request; }).value();

  auto* middle = kernel_->CreateProcess("middle").value();
  mk::Thread* middle_thread = middle->AddThread(0);
  SkyBridge* sky = sky_.get();
  sb::Status inner_status = sb::OkStatus();
  const ServerId middle_sid =
      sky_->RegisterServer(middle, 4,
                           [sky, middle_thread, backend_sid, &inner_status](CallEnv& env) {
                             auto inner =
                                 sky->DirectServerCall(middle_thread, backend_sid, Message(7));
                             inner_status = inner.status();
                             return Message(inner.ok() ? 1 : 2);
                           })
          .value();
  ASSERT_TRUE(sky_->RegisterClient(middle, backend_sid).ok());

  auto* client = kernel_->CreateProcess("client").value();
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(sky_->RegisterClient(client, middle_sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // Warm both hops, then crash only the second handler invocation of the
  // next roundtrip — that is the backend's (the middle enters first).
  auto warm = sky_->DirectServerCall(t, middle_sid, Message(0));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(inner_status.ok());

  sb::fault::FaultSpec spec;
  spec.nth_hit = 2;
  sb::fault::Arm(kFaultHandlerCrash, spec);
  auto reply = sky_->DirectServerCall(t, middle_sid, Message(0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 2u);  // The middle observed the inner abort.
  EXPECT_EQ(inner_status.code(), ErrorCode::kAborted);
  EXPECT_EQ(Metric("skybridge.ipc.aborted_calls"), 1u);
  ExpectHealthy();
}

// ---- skybridge.call.pre_vmfunc: stale EPTP slot between lookup and VMFUNC ----

TEST_P(FaultRecoveryTest, StaleSlotRearmsTransparently) {
  if (IsSyscall()) {
    GTEST_SKIP() << "kSyscall has no view slots to go stale";
  }
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());

  sb::fault::FaultSpec spec;
  spec.nth_hit = 1;  // Evict exactly once, right before the VMFUNC.
  sb::fault::Arm(kFaultPreVmfunc, spec);
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(2));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();  // Recovered in-line.
  EXPECT_EQ(reply->tag, 2u);
  EXPECT_EQ(Metric("skybridge.ipc.stale_slot_retries"), 1u);
  ExpectHealthy();
}

TEST_P(FaultRecoveryTest, StaleSlotRetriesAreBoundedThenUnavailable) {
  if (IsSyscall()) {
    GTEST_SKIP() << "kSyscall has no view slots to go stale";
  }
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());

  sb::fault::Arm(kFaultPreVmfunc);  // Evict on every attempt: never recovers.
  auto starved = sky_->DirectServerCall(p.thread, p.sid, Message(2));
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(Metric("skybridge.ipc.stale_slot_retries"), kMaxStaleSlotRetries);
  ExpectHealthy();

  // Disarmed, the evicted binding faults back in through the ordinary
  // slot-fault path.
  sb::fault::DisarmAll();
  const uint64_t faults = Metric("skybridge.eptp.slot_faults");
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(3));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(Metric("skybridge.eptp.slot_faults"), faults + 1);
  ExpectHealthy();
}

// ---- skybridge.gate.reply_corrupt: return-gate rejection ----

TEST_P(FaultRecoveryTest, InjectedCorruptReplyRejectedAtTheGate) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());

  sb::fault::Arm(kFaultReplyCorrupt);
  auto corrupt = sky_->DirectServerCall(p.thread, p.sid, Message(2));
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), 1u);
  ExpectHealthy();

  sb::fault::DisarmAll();
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(3)).ok());
}

TEST_P(FaultRecoveryTest, BorrowedReplyEscapingTheSliceIsStructurallyRejected) {
  // No fault armed: the server "scribbles the descriptor" so its borrowed
  // reply straddles the slice boundary. The gate detects it structurally.
  Boot();
  Handler overflowing = [](CallEnv& env) {
    SB_CHECK(!env.reply_buffer.empty());
    Message reply = Message::Borrowed(
        9, std::span<const uint8_t>(env.reply_buffer.data() + env.reply_buffer.size() - 8, 16));
    return reply;
  };
  Pair p = MakePair(overflowing);
  auto escaped = sky_->DirectServerCall(p.thread, p.sid, Message(1));
  ASSERT_FALSE(escaped.ok());
  EXPECT_EQ(escaped.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), 1u);
  ExpectHealthy();
}

// ---- skybridge.call.revoke_inflight + RevokeBinding semantics ----

TEST_P(FaultRecoveryTest, RevokedBindingRefusesCallsUntilReRegistered) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());
  ASSERT_EQ(sky_->ResidentBindingSlot(p.client, p.sid, 0) != kNoEptpSlot, !IsSyscall());

  ASSERT_TRUE(sky_->RevokeBinding(p.client, p.sid).ok());
  EXPECT_EQ(Metric("skybridge.bindings.revoked"), 1u);
  // No calls in flight: the slot (if any) is freed immediately.
  EXPECT_EQ(sky_->ResidentBindingSlot(p.client, p.sid, 0), kNoEptpSlot);
  ExpectHealthy();

  auto refused = sky_->DirectServerCall(p.thread, p.sid, Message(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_FALSE(sky_->AcquireSendBuffer(p.thread, p.sid).ok());
  EXPECT_GE(Metric("skybridge.ipc.revoked_rejections"), 2u);

  // Re-registration revives the binding with a fresh key; calls flow again.
  ASSERT_TRUE(sky_->RegisterClient(p.client, p.sid).ok());
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(3));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 3u);
  ExpectHealthy();
}

TEST_P(FaultRecoveryTest, RevocationDuringFlightDrainsThenSweeps) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());

  sb::fault::FaultSpec spec;
  spec.nth_hit = 1;
  sb::fault::Arm(kFaultRevokeInflight, spec);
  // The call that races the revocation still completes (it is past the entry
  // gate); the EPTP surgery waits for the drain.
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(2));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 2u);
  EXPECT_EQ(Metric("skybridge.bindings.revoked"), 1u);
  // Drained: the sweep ran, the slot is freed, invariants hold.
  EXPECT_EQ(sky_->ResidentBindingSlot(p.client, p.sid, 0), kNoEptpSlot);
  ExpectHealthy();

  auto refused = sky_->DirectServerCall(p.thread, p.sid, Message(3));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kPermissionDenied);
}

TEST_P(FaultRecoveryTest, RevokeUnknownBindingIsNotFound) {
  Boot();
  Pair p = MakePair(EchoHandler());
  auto* stranger = kernel_->CreateProcess("stranger").value();
  EXPECT_EQ(sky_->RevokeBinding(stranger, p.sid).code(), ErrorCode::kNotFound);
  EXPECT_EQ(sky_->RevokeBinding(p.client, p.sid + 100).code(), ErrorCode::kNotFound);
  // Revoking twice is idempotent.
  ASSERT_TRUE(sky_->RevokeBinding(p.client, p.sid).ok());
  ASSERT_TRUE(sky_->RevokeBinding(p.client, p.sid).ok());
  EXPECT_EQ(Metric("skybridge.bindings.revoked"), 1u);
}

// ---- vmm.rootkernel.binding_ept_refused: registration-time exhaustion ----

TEST_P(FaultRecoveryTest, RootkernelRefusingBindingEptFailsRegistrationCleanly) {
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  auto* client = kernel_->CreateProcess("client").value();
  const ServerId sid = sky_->RegisterServer(server, 4, EchoHandler()).value();
  // The client's first registration: its buffer region is the first one.
  const hw::Gva buffer_va = mk::kSharedBufVa;

  sb::fault::Arm(vmm::kFaultBindingEptRefused);
  const sb::Status refused = sky_->RegisterClient(client, sid);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kInternal);
  const sb::Status invariants = sky_->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  // The buffer region, made before the EPT, is undone in both processes.
  EXPECT_FALSE(client->address_space().WalkVa(buffer_va).ok);
  EXPECT_FALSE(server->address_space().WalkVa(buffer_va).ok);

  // Disarmed, the same registration succeeds, gets the same buffer VA and
  // the pair is usable.
  sb::fault::DisarmAll();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  ExpectSharedBufferAt(client, server, buffer_va);
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
}

// A client that an earlier registration prepared (scrub, trampoline, key
// table) gets back every frame the refused registration's region took.
TEST_P(FaultRecoveryTest, RootkernelRefusingBindingEptFreesAPreparedClientsRegion) {
  Boot();
  auto* client = kernel_->CreateProcess("client").value();
  auto* first = kernel_->CreateProcess("first").value();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId first_sid = sky_->RegisterServer(first, 4, EchoHandler()).value();
  const ServerId sid = sky_->RegisterServer(server, 4, EchoHandler()).value();
  ASSERT_TRUE(sky_->RegisterClient(client, first_sid).ok());
  // The refused registration's region is the next one after the first's.
  const SkyBridgeConfig& config = sky_->config();
  const hw::Gva buffer_va =
      mk::kSharedBufVa + sb::PageUp(config.shared_buffer_bytes) * config.buffer_slices;
  const hw::FrameAllocator& frames = client->address_space().frames();
  const uint64_t allocated = frames.allocated_frames();

  sb::fault::Arm(vmm::kFaultBindingEptRefused);
  const sb::Status refused = sky_->RegisterClient(client, sid);
  EXPECT_EQ(refused.code(), ErrorCode::kInternal) << refused.ToString();
  const sb::Status invariants = sky_->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
  EXPECT_EQ(frames.allocated_frames(), allocated);
  EXPECT_FALSE(client->address_space().WalkVa(buffer_va).ok);
  EXPECT_FALSE(server->address_space().WalkVa(buffer_va).ok);

  sb::fault::DisarmAll();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  ExpectSharedBufferAt(client, server, buffer_va);
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
}

// ---- hw.phys.alloc: a registration that fails inside the kernel path ----

TEST_P(FaultRecoveryTest, FailedBufferRegionLeavesTheKernelAndRetrySucceeds) {
  Boot({}, KptiProfile());
  auto* client = kernel_->CreateProcess("client").value();
  auto* first = kernel_->CreateProcess("first").value();
  auto* second = kernel_->CreateProcess("second").value();
  const ServerId first_sid = sky_->RegisterServer(first, 4, EchoHandler()).value();
  const ServerId sid = sky_->RegisterServer(second, 4, EchoHandler()).value();
  // The first registration prepares the client (scrub, trampoline, key
  // table), so the next one's first anonymous mapping is its buffer region.
  ASSERT_TRUE(sky_->RegisterClient(client, first_sid).ok());
  mk::Thread* thread = client->AddThread(0);
  hw::Core& core = machine_->core(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, client).ok());
  ASSERT_EQ(core.mode(), hw::CpuMode::kUser);

  sb::fault::FaultSpec spec;
  spec.nth_hit = 1;
  sb::fault::Arm(hw::kFaultFrameAlloc, spec);
  const size_t epts = kernel_->rootkernel()->ept_count();
  const sb::Status failed = sky_->RegisterClient(client, sid);
  EXPECT_EQ(sb::fault::StatsFor(hw::kFaultFrameAlloc).fires, 1u);
  sb::fault::DisarmAll();
  EXPECT_EQ(failed.code(), ErrorCode::kResourceExhausted) << failed.ToString();
  EXPECT_EQ(kernel_->rootkernel()->ept_count(), epts);  // The region fails before any EPT work.
  EXPECT_EQ(core.mode(), hw::CpuMode::kUser);
  EXPECT_EQ(core.cr3(), client->cr3());
  ExpectHealthy();

  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  auto reply = sky_->DirectServerCall(thread, sid, Message(5));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 5u);
  ExpectHealthy();
}

// A RegisterServer refused on its stack mapping adds no server and no EPT;
// the retry gets the ServerId the refused one would have had.
TEST_P(FaultRecoveryTest, FailedServerStacksLeaveNoServerAndRetrySucceeds) {
  Boot();
  auto* client = kernel_->CreateProcess("client").value();
  auto* first = kernel_->CreateProcess("first").value();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId first_sid = sky_->RegisterServer(first, 4, EchoHandler()).value();
  // Registering the server process as a client prepares it (scrub,
  // trampoline, key table), so its RegisterServer's first allocation is the
  // stack mapping.
  ASSERT_TRUE(sky_->RegisterClient(server, first_sid).ok());
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  const ServerId sid = first_sid + 1;
  const hw::Gva stacks_va = mk::kServerStacksVa + sid * 256 * kServerStackBytes;
  hw::FrameAllocator& frames = server->address_space().frames();
  const uint64_t allocated = frames.allocated_frames();
  const size_t epts = kernel_->rootkernel()->ept_count();

  sb::fault::FaultSpec spec;
  spec.nth_hit = 1;
  sb::fault::Arm(hw::kFaultFrameAlloc, spec);
  const sb::StatusOr<ServerId> failed = sky_->RegisterServer(server, 4, EchoHandler());
  EXPECT_EQ(sb::fault::StatsFor(hw::kFaultFrameAlloc).fires, 1u);
  sb::fault::DisarmAll();
  EXPECT_EQ(failed.status().code(), ErrorCode::kResourceExhausted) << failed.status().ToString();
  EXPECT_EQ(kernel_->rootkernel()->ept_count(), epts);
  EXPECT_FALSE(server->address_space().WalkVa(stacks_va).ok);
  EXPECT_EQ(frames.allocated_frames(), allocated);
  // The server list did not grow: the id it would have had names no server.
  EXPECT_EQ(sky_->RegisterClient(client, sid).code(), ErrorCode::kNotFound);
  ExpectHealthy();

  const sb::StatusOr<ServerId> retried = sky_->RegisterServer(server, 4, EchoHandler());
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, sid);
  EXPECT_TRUE(server->address_space().WalkVa(stacks_va).ok);
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  auto reply = sky_->DirectServerCall(thread, sid, Message(9));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 9u);
  ExpectHealthy();
}

void FaultRecoveryTest::ExpectRefusedRegionLeavesNothing(const SkyBridgeConfig& config,
                                                         bool squat_last_page) {
  Boot(config);
  auto* client = kernel_->CreateProcess("client").value();
  auto* first = kernel_->CreateProcess("first").value();
  auto* second = kernel_->CreateProcess("second").value();
  const ServerId first_sid = sky_->RegisterServer(first, 4, EchoHandler()).value();
  const ServerId sid = sky_->RegisterServer(second, 4, EchoHandler()).value();
  ASSERT_TRUE(sky_->RegisterClient(client, first_sid).ok());
  // Regions are handed out in order from mk::kSharedBufVa, so the first took
  // one region and the next one starts right after it.
  const uint64_t region_bytes =
      sb::PageUp(sky_->config().shared_buffer_bytes) * sky_->config().buffer_slices;
  const hw::Gva next_va = mk::kSharedBufVa + region_bytes;
  const hw::Gva squat_va = squat_last_page ? next_va + region_bytes - sb::kPageSize : next_va;
  hw::AddressSpace& client_space = client->address_space();
  ASSERT_TRUE(client_space.WalkVa(next_va - sb::kPageSize).ok);
  ASSERT_FALSE(client_space.WalkVa(next_va).ok);

  // The server already has a page in the way, so its side of the region
  // fails, after mapping every page before it.
  hw::AddressSpace& server_space = second->address_space();
  hw::FrameAllocator& frames = client_space.frames();
  const uint64_t without_squatter = frames.allocated_frames();
  ASSERT_TRUE(server_space.MapAnonymous(squat_va, sb::kPageSize, hw::PageFlags{}).ok());
  const hw::GuestWalk squatter = server_space.WalkVa(squat_va);
  // Park a freed run of the region's size: the refused region takes it as
  // the most recently freed run, and must give it back for the retry.
  const uint64_t region_pages = region_bytes / sb::kPageSize;
  const hw::Gpa parked = frames.AllocContiguous(machine_->mem(), region_pages).value();
  frames.FreeContiguous(parked, region_pages);
  const uint64_t allocated = frames.allocated_frames();
  const sb::Status refused = sky_->RegisterClient(client, sid);
  EXPECT_EQ(refused.code(), ErrorCode::kAlreadyExists) << refused.ToString();
  for (uint64_t off = 0; off < region_bytes; off += sb::kPageSize) {
    EXPECT_FALSE(client_space.WalkVa(next_va + off).ok) << "offset " << off;
    if (next_va + off != squat_va) {
      EXPECT_FALSE(server_space.WalkVa(next_va + off).ok) << "offset " << off;
    }
  }
  EXPECT_EQ(frames.allocated_frames(), allocated);  // No frame and no page table is left.
  EXPECT_EQ(server_space.WalkVa(squat_va).gpa, squatter.gpa);  // Left as it was.

  // Removing the server's page frees its frame and the tables it made; the
  // retry gets the same VA and the refused region's frames.
  server_space.UnmapAnonymous(squat_va, squatter.gpa, sb::kPageSize);
  EXPECT_EQ(frames.allocated_frames(), without_squatter);
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  EXPECT_EQ(client_space.WalkVa(next_va).gpa, parked);
  for (const hw::Gva va : {next_va, squat_va}) {
    const hw::GuestWalk client_page = client_space.WalkVa(va);
    ASSERT_TRUE(client_page.ok);
    EXPECT_EQ(server_space.WalkVa(va).gpa, client_page.gpa);
  }
  mk::Thread* thread = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  auto reply = sky_->DirectServerCall(thread, sid, Message(7));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 7u);
  ExpectHealthy();
}

TEST_P(FaultRecoveryTest, RegionRefusedByTheServerLeavesNoHalfMadeRegion) {
  ExpectRefusedRegionLeavesNothing({}, /*squat_last_page=*/false);
}

// A region that crosses a 2 MiB boundary takes a fresh page table in each
// process; refusing it frees those tables along with its frames.
TEST_P(FaultRecoveryTest, RegionRefusedAcrossATableBoundaryFreesItsTables) {
  SkyBridgeConfig config;
  config.shared_buffer_bytes = 768 * sb::kKiB;
  config.buffer_slices = 2;  // 1.5 MiB regions: the second crosses a 2 MiB boundary.
  ExpectRefusedRegionLeavesNothing(config, /*squat_last_page=*/true);
}

// ---- vmm.rootkernel.binding_ept_refused on revival ----

TEST_P(FaultRecoveryTest, RefusedRemapOnRevivalKeepsTheBindingRevoked) {
  Boot({}, KptiProfile());
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(1)).ok());
  ASSERT_TRUE(sky_->RevokeBinding(p.client, p.sid).ok());
  hw::Core& core = machine_->core(0);

  // Under consolidation a revival re-adds the client's CR3 remap into the
  // server's shared EPT; the Rootkernel refuses it.
  sb::fault::Arm(vmm::kFaultBindingEptRefused);
  const sb::Status refused = sky_->RegisterClient(p.client, p.sid);
  EXPECT_GE(sb::fault::StatsFor(vmm::kFaultBindingEptRefused).fires, 1u);
  sb::fault::DisarmAll();
  EXPECT_EQ(refused.code(), ErrorCode::kInternal) << refused.ToString();
  EXPECT_EQ(core.mode(), hw::CpuMode::kUser);
  EXPECT_EQ(core.cr3(), p.client->cr3());
  EXPECT_EQ(sky_->DirectServerCall(p.thread, p.sid, Message(2)).status().code(),
            ErrorCode::kPermissionDenied);
  ExpectHealthy();

  ASSERT_TRUE(sky_->RegisterClient(p.client, p.sid).ok());
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(3));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ExpectHealthy();
}

// ---- The whole catalog is survivable ----

TEST_P(FaultRecoveryTest, EveryCatalogPointRecoversWithoutDeath) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());

  std::vector<const char*> points = {kFaultHandlerCrash, kFaultReplyCorrupt,
                                     kFaultRevokeInflight};
  if (!IsSyscall()) {
    points.push_back(kFaultPreVmfunc);  // Only view slots can go stale.
  }
  for (const char* point : points) {
    sb::fault::FaultSpec spec;
    spec.nth_hit = 1;
    sb::fault::Arm(point, spec);
    // Armed: the call either recovers transparently or fails with a status;
    // either way no SB_CHECK fires and the bridge stays healthy.
    (void)sky_->DirectServerCall(p.thread, p.sid, Message(1));
    EXPECT_GE(sb::fault::StatsFor(point).fires, 1u) << point;
    sb::fault::DisarmAll();
    const sb::Status invariants = sky_->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << point << ": " << invariants.ToString();
    EXPECT_EQ(sky_->InFlightCalls(), 0u) << point;
    // After revoke_inflight the binding needs reviving; for the other points
    // this is a harmless AlreadyExists.
    (void)sky_->RegisterClient(p.client, p.sid);
    auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(2));
    ASSERT_TRUE(reply.ok()) << point << ": " << reply.status().ToString();
  }
}

}  // namespace
}  // namespace skybridge
