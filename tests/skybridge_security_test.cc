// Security-focused SkyBridge tests (paper Sections 4.4, 5, 7 and 9):
// malicious EPT switching, the trampoline as the only gate, W^X dynamic code
// rescanning, and isolation under the KPTI (Meltdown-mitigated) profile.
//
// Parameterized over crossing backend x registration mode (DESIGN.md
// sections 16-17, tests/crossing_grid.h). The suite pins the isolation
// matrix: the EPTP and kSyscall backends block cross-domain reads outright,
// while MPK's user-forgeable PKRU permits them —
// CrossDomainReadMatchesTheBackendIsolationMatrix demonstrates both the hole
// and the fact that the other backends do not share it.

#include <gtest/gtest.h>

#include <string_view>

#include "src/skybridge/guest_exec.h"
#include "src/skybridge/skybridge.h"
#include "src/skybridge/trampoline.h"
#include "src/x86/assembler.h"
#include "src/x86/decoder.h"
#include "src/x86/scanner.h"
#include "tests/crossing_grid.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Message;
using sb::kGiB;

class SecurityTest : public CrossingGridTest {
 protected:
  void Boot(mk::KernelProfile profile = mk::Sel4Profile()) {
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, std::move(profile));
    ASSERT_TRUE(kernel_->Boot().ok());
    SkyBridgeConfig config;
    Apply(config);
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  // The backend's scrubbed gate triple (VMFUNC or WRPKRU).
  const uint8_t* GatePattern() const {
    return IsMpk() ? x86::kWrpkruBytes : x86::kVmfuncBytes;
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

INSTANTIATE_TEST_SUITE_P(Backends, SecurityTest, ::testing::ValuesIn(AllCrossingCells()),
                         CrossingCellName);

TEST_P(SecurityTest, TrampolineIsTheOnlyGate) {
  if (IsSyscall()) {
    GTEST_SKIP() << "the kernel fastpath has no user-mode gate instruction";
  }
  Boot();
  // The backend's trampoline page intentionally carries exactly two gate
  // instructions (VMFUNC for EPTP, WRPKRU for MPK)...
  const TrampolineLayout trampoline = BuildTrampoline(Backend());
  x86::ScanOptions scan;
  scan.pattern = GatePattern();
  const auto hits = x86::ScanForVmfunc(trampoline.code, scan);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].overlap, x86::VmfuncOverlap::kIsVmfunc);
  EXPECT_EQ(hits[1].overlap, x86::VmfuncOverlap::kIsVmfunc);
  EXPECT_EQ(hits[0].pattern_off, trampoline.call_gate_offset);
  EXPECT_EQ(hits[1].pattern_off, trampoline.return_gate_offset);

  // ...and every registered process's own code is pattern-free, so after
  // rewriting the trampoline really is the only entry point.
  auto* server = kernel_->CreateProcess("server").value();
  x86::Assembler evil;
  evil.MovRI32(x86::Reg::kRcx, 1);
  evil.MovRI32(x86::Reg::kRax, 0);
  if (IsMpk()) {
    evil.Wrpkru();  // Self-prepared key switch.
  } else {
    evil.Vmfunc();  // Self-prepared gate.
  }
  evil.Ret();
  auto* client = kernel_->CreateProcessWithImage("evil", evil.Take()).value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  if (sky_->config().registration_mode == RegistrationMode::kLazy) {
    // Staged registration: the pattern survives until first execution, but
    // the page is non-executable in the EPT — the self-prepared gate still
    // cannot run. The first call scrubs it before anything executes.
    EXPECT_FALSE(x86::ScanForVmfunc(client->code_image(), scan).empty());
    const hw::GuestWalk code_walk = client->address_space().WalkVa(mk::kCodeVa);
    ASSERT_TRUE(code_walk.ok);
    hw::Ept* ept = kernel_->rootkernel()->ept(client->ept_id());
    ASSERT_NE(ept, nullptr);
    EXPECT_FALSE(ept->Walk(code_walk.gpa, hw::kEptExec).ok);
    mk::Thread* thread = client->AddThread(0);
    ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
    ASSERT_TRUE(sky_->DirectServerCall(thread, sid, Message(1)).ok());
    EXPECT_TRUE(ept->Walk(code_walk.gpa, hw::kEptExec).ok);
  }
  EXPECT_TRUE(x86::ScanForVmfunc(client->code_image(), scan).empty());
}

TEST_P(SecurityTest, MaliciousEptpIndexCausesVmExitAndNoSwitch) {
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  auto* client = kernel_->CreateProcess("client").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // A malicious process that somehow executes VMFUNC with an out-of-range
  // index: the hardware exits to the Rootkernel and no switch happens. This
  // holds whatever backend the library runs — VMFUNC's microcode check is
  // not the library's to disable.
  hw::Core& core = machine_->core(0);
  const size_t before_index = core.vmcs().active_index;
  const uint64_t exits_before = Metric("hw.vmexit.total");
  const uint64_t invalid_before = Metric("vmm.exits.vmfunc_invalid");
  EXPECT_FALSE(core.Vmfunc(0, 100).ok());
  EXPECT_EQ(core.vmcs().active_index, before_index);
  EXPECT_EQ(Metric("hw.vmexit.total") - exits_before, 1u);
  // The Rootkernel counts the exit under its own reason.
  EXPECT_EQ(Metric("vmm.exits.vmfunc_invalid") - invalid_before, 1u);
}

TEST_P(SecurityTest, CallToUnregisteredServerStillRejected) {
  // A client registered to server A cannot reach server B: its EPTP list
  // simply has no binding EPT for B (no binding at all on kSyscall), and the
  // library rejects the call.
  Boot();
  auto* server_a = kernel_->CreateProcess("a").value();
  auto* server_b = kernel_->CreateProcess("b").value();
  const ServerId sid_a =
      sky_->RegisterServer(server_a, 4, [](CallEnv&) { return Message(0xa); }).value();
  const ServerId sid_b =
      sky_->RegisterServer(server_b, 4, [](CallEnv&) { return Message(0xb); }).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid_a).ok());
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  EXPECT_TRUE(sky_->DirectServerCall(t, sid_a, Message(0)).ok());
  EXPECT_EQ(sky_->DirectServerCall(t, sid_b, Message(0)).status().code(),
            sb::ErrorCode::kPermissionDenied);
}

TEST_P(SecurityTest, WxDynamicCodeRescanOnUpdate) {
  // Paper Section 9: JIT / live update. New code pages must be rescanned
  // when remapped executable; a freshly planted gate instruction is
  // rewritten away and the process keeps working. A kSyscall-only process
  // still gets the VMFUNC pass (the historical W^X contract).
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  auto* client = kernel_->CreateProcess("client").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  ASSERT_TRUE(sky_->DirectServerCall(t, sid, Message(1)).ok());
  const uint64_t rewrites_before = Metric("skybridge.rewrite.vmfuncs");

  // The "JIT" emits new code containing a gate and an embedded pattern.
  x86::Assembler jit;
  jit.MovRI64(x86::Reg::kRax, 7);
  if (IsMpk()) {
    jit.Wrpkru();
    jit.OrRI(x86::Reg::kRbx, 0x00ef010f);
  } else {
    jit.Vmfunc();
    jit.OrRI(x86::Reg::kRbx, 0x00d4010f);
  }
  jit.Ret();
  ASSERT_TRUE(sky_->UpdateProcessCode(client, jit.Take()).ok());

  x86::ScanOptions scan;
  scan.pattern = GatePattern();
  EXPECT_TRUE(x86::FindVmfuncBytes(client->code_image(), scan).empty());
  EXPECT_GE(Metric("skybridge.rewrite.vmfuncs"), rewrites_before + 2);
  // The pattern's rewrite window was (re)generated and the bindings still
  // work (VMFUNC snippets live at window 0, WRPKRU snippets at window 1).
  const hw::Gva window = mk::kRewritePageVa + (IsMpk() ? 16 * sb::kPageSize : 0);
  EXPECT_TRUE(client->address_space().WalkVa(window).ok);
  EXPECT_TRUE(sky_->DirectServerCall(t, sid, Message(2)).ok());
}

TEST_P(SecurityTest, RepeatedCodeUpdatesConverge) {
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  auto* client = kernel_->CreateProcess("client").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  x86::ScanOptions scan;
  scan.pattern = GatePattern();
  for (int round = 0; round < 5; ++round) {
    x86::Assembler jit;
    jit.MovRI64(x86::Reg::kRax, static_cast<uint64_t>(round));
    if (round % 2 == 0) {
      if (IsMpk()) {
        jit.Wrpkru();
      } else {
        jit.Vmfunc();
      }
    }
    jit.AddRI(x86::Reg::kRbx, IsMpk() ? 0x00ef010f : 0x00d4010f);
    jit.Ret();
    ASSERT_TRUE(sky_->UpdateProcessCode(client, jit.Take()).ok()) << round;
    EXPECT_TRUE(x86::FindVmfuncBytes(client->code_image(), scan).empty()) << round;
  }
}

TEST_P(SecurityTest, IsolationHoldsUnderKpti) {
  // Meltdown-mitigated profile: SkyBridge still works and processes stay in
  // separate page tables (the paper's Meltdown defence argument). This holds
  // on every backend — MPK's weakness is the forgeable PKRU, not the page
  // tables, so a plain read through the client's tables still misses.
  mk::KernelProfile profile = mk::Sel4Profile();
  profile.kpti = true;
  Boot(profile);
  auto* server = kernel_->CreateProcess("server").value();
  auto* client = kernel_->CreateProcess("client").value();
  const ServerId sid = sky_->RegisterServer(server, 4, [](CallEnv& env) {
                             SB_CHECK(env.core.WriteVirtU64(mk::kHeapVa + 8, 0x5ec3e7).ok());
                             return env.request;
                           }).value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  ASSERT_TRUE(sky_->DirectServerCall(t, sid, Message(0)).ok());

  // The secret the server wrote is not visible through the client's tables.
  hw::Core& core = machine_->core(0);
  auto leaked = core.ReadVirtU64(mk::kHeapVa + 8);
  ASSERT_TRUE(leaked.ok());
  EXPECT_NE(*leaked, 0x5ec3e7u);
  EXPECT_NE(client->cr3(), server->cr3());
}

TEST_P(SecurityTest, CallingKeysDifferPerBinding) {
  // Two clients of the same server get distinct random keys: leaking one
  // key only exposes the leaker's slot (Section 4.4).
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  auto* c1 = kernel_->CreateProcess("c1").value();
  auto* c2 = kernel_->CreateProcess("c2").value();
  ASSERT_TRUE(sky_->RegisterClient(c1, sid).ok());
  ASSERT_TRUE(sky_->RegisterClient(c2, sid).ok());

  // Read both key slots from the server's table.
  const hw::GuestWalk table = server->address_space().WalkVa(mk::kCallingKeyTableVa);
  ASSERT_TRUE(table.ok);
  const uint64_t key1 = machine_->mem().ReadU64(table.gpa);
  const uint64_t key2 = machine_->mem().ReadU64(table.gpa + 16);
  EXPECT_NE(key1, 0u);
  EXPECT_NE(key2, 0u);
  EXPECT_NE(key1, key2);
}

TEST_P(SecurityTest, RefusingToUseSkyBridgeOnlyHurtsYourself) {
  // Section 7: a process that never registers simply cannot reach servers;
  // other processes are unaffected.
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  auto* good = kernel_->CreateProcess("good").value();
  auto* refusenik = kernel_->CreateProcess("refusenik").value();
  ASSERT_TRUE(sky_->RegisterClient(good, sid).ok());
  mk::Thread* tg = good->AddThread(0);
  mk::Thread* tr = refusenik->AddThread(1);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), good).ok());

  EXPECT_FALSE(sky_->DirectServerCall(tr, sid, Message(0)).ok());
  EXPECT_TRUE(sky_->DirectServerCall(tg, sid, Message(0)).ok());
}

TEST_P(SecurityTest, CrossDomainReadMatchesTheBackendIsolationMatrix) {
  // DESIGN.md section 16 isolation matrix, pinned in CI: a client forging
  // the backend's unprivileged switch primitive can read server memory on
  // MPK (WRPKRU is user-mode writable — PKRU is not a capability), while
  // EPTP and the kernel fastpath refuse the same probe outright.
  Boot();
  constexpr uint64_t kSecret = 0xfeed'5eed'c0de'd00dULL;
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid = sky_->RegisterServer(server, 4, [](CallEnv& env) {
                             SB_CHECK(env.core.WriteVirtU64(mk::kHeapVa + 0x40, kSecret).ok());
                             return env.request;
                           }).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  // One legitimate call plants the secret in the server's heap.
  ASSERT_TRUE(sky_->DirectServerCall(t, sid, Message(0)).ok());

  auto stolen = sky_->ProbeCrossDomainRead(t, sid, mk::kHeapVa + 0x40);
  if (IsMpk()) {
    ASSERT_TRUE(stolen.ok()) << stolen.status().ToString();
    EXPECT_EQ(*stolen, kSecret);
  } else {
    EXPECT_EQ(stolen.status().code(), sb::ErrorCode::kPermissionDenied);
    EXPECT_GE(Metric("skybridge.ipc.rejected_calls"), 1u);
  }
}

TEST_P(SecurityTest, MpkForgeryExposesEvenTheCallingKeyTable) {
  if (!IsMpk()) {
    GTEST_SKIP() << "only the MPK backend has the forgeable-PKRU hole";
  }
  // The sharpest consequence of the weaker envelope: the server-side calling
  // key table — the very credential gating the IPC path — is readable by a
  // PKRU-forging client. (On EPTP the table lives behind the server's EPT;
  // ProbeCrossDomainRead above shows that backend refusing.)
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  auto* client = kernel_->CreateProcess("client").value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  mk::Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  const hw::GuestWalk table = server->address_space().WalkVa(mk::kCallingKeyTableVa);
  ASSERT_TRUE(table.ok);
  const uint64_t real_key = machine_->mem().ReadU64(table.gpa);
  ASSERT_NE(real_key, 0u);

  auto stolen = sky_->ProbeCrossDomainRead(t, sid, mk::kCallingKeyTableVa);
  ASSERT_TRUE(stolen.ok()) << stolen.status().ToString();
  EXPECT_EQ(*stolen, real_key);
  // With the stolen key the client's own slot is all it can forge — but the
  // point stands: MPK's confidentiality story is strictly weaker.
  EXPECT_GT(Metric("skybridge.crossing.mpk.cross_domain_probes"), 0u);
}

TEST_P(SecurityTest, LiteralTrampolineBytesExecuteTheSwitch) {
  if (IsSyscall()) {
    GTEST_SKIP() << "the kernel fastpath has no trampoline page";
  }
  // The deepest fidelity check in the repo: execute the *actual trampoline
  // code page* instruction by instruction through the simulated MMU, and
  // watch the gate instruction inside it (VMFUNC or WRPKRU) switch the
  // translation context to the server and back.
  Boot();
  auto* server = kernel_->CreateProcess("server").value();
  auto* client = kernel_->CreateProcess("client").value();
  const ServerId sid =
      sky_->RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
  ASSERT_TRUE(sky_->RegisterClient(client, sid).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());
  hw::Core& core = machine_->core(0);
  // Warm-up call: faults the binding's EPT into this core's slot working set
  // so the stub below can target its (virtualized) slot index.
  mk::Thread* warmup = client->AddThread(0);
  ASSERT_TRUE(sky_->DirectServerCall(warmup, sid, Message(0)).ok());
  const uint32_t binding_slot = sky_->ResidentBindingSlot(client, sid, 0);
  ASSERT_NE(binding_slot, kNoEptpSlot);
  core.SetMode(hw::CpuMode::kUser);

  // Set up guest registers like the user-level stub would: stack in the
  // client, view-slot index of the binding in rcx, sentinel return address
  // on the stack.
  const hw::Gva trampoline_va = IsMpk() ? mk::kMpkTrampolineVa : mk::kTrampolineVa;
  GuestRegs regs;
  regs.rip = trampoline_va;
  regs.reg(x86::Reg::kRsp) = mk::kStackTopVa - 64;
  regs.reg(x86::Reg::kRcx) = binding_slot;
  // The return slot (the caller's own view) rides in r8; the kernel hands it
  // to the stub at dispatch since slot indices are virtualized.
  regs.reg(x86::Reg::kR8) = core.vmcs().active_index;
  regs.reg(x86::Reg::kRsp) -= 8;
  ASSERT_TRUE(core.WriteVirtU64(regs.reg(x86::Reg::kRsp), kGuestReturnSentinel).ok());

  GuestExecutor exec(&core);
  const uint64_t exits_before = Metric("hw.vmexit.total");  // Steady-state exits only.
  const uint64_t vmfuncs_before = core.pmu().vmfuncs;
  const uint64_t wrpkrus_before = core.pmu().wrpkrus;
  bool saw_server_view = false;
  bool done = false;
  int steps = 0;
  while (!done && steps < 200) {
    auto status = exec.Step(regs, &done);
    ASSERT_TRUE(status.ok()) << status.ToString() << " at step " << steps;
    ++steps;
    if (!done) {
      auto identity = kernel_->CurrentIdentity(core);
      ASSERT_TRUE(identity.ok());
      if (*identity == server->pid()) {
        saw_server_view = true;  // The call gate fired: we are "in" the server.
      }
    }
  }
  ASSERT_TRUE(done) << "trampoline did not return";
  EXPECT_TRUE(saw_server_view);
  // Two gate instructions executed (call gate + return gate), of the
  // backend's own kind only...
  if (IsMpk()) {
    EXPECT_EQ(core.pmu().wrpkrus - wrpkrus_before, 2u);
    EXPECT_EQ(core.pmu().vmfuncs - vmfuncs_before, 0u);
  } else {
    EXPECT_EQ(core.pmu().vmfuncs - vmfuncs_before, 2u);
    EXPECT_EQ(core.pmu().wrpkrus - wrpkrus_before, 0u);
  }
  // ...and we ended back in the client's view with the stack balanced.
  EXPECT_EQ(*kernel_->CurrentIdentity(core), client->pid());
  EXPECT_EQ(regs.reg(x86::Reg::kRsp), mk::kStackTopVa - 64);
  EXPECT_EQ(Metric("hw.vmexit.total"), exits_before);
}

TEST_P(SecurityTest, GuestExecutorRefusesUnknownInstructions) {
  Boot();
  auto* proc = kernel_->CreateProcess("p").value();
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), proc).ok());
  hw::Core& core = machine_->core(0);
  GuestRegs regs;
  regs.rip = mk::kCodeVa;  // The default image starts with push rbp / mov...
  regs.reg(x86::Reg::kRsp) = mk::kStackTopVa - 64;
  GuestExecutor exec(&core);
  bool done = false;
  // push rbp — fine.
  EXPECT_TRUE(exec.Step(regs, &done).ok());
  // mov rbp, rsp — fine.
  EXPECT_TRUE(exec.Step(regs, &done).ok());
}

}  // namespace
}  // namespace skybridge
