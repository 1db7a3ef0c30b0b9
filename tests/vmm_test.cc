// Rootkernel tests: self-virtualization, the no-VM-exit steady state, the
// VMCALL interface and EPT derivation.

#include "src/vmm/rootkernel.h"

#include <gtest/gtest.h>

#include <string_view>

#include "src/hw/paging.h"

namespace vmm {
namespace {

using sb::kGiB;
using sb::kMiB;

hw::MachineConfig SmallMachine() {
  hw::MachineConfig config;
  config.num_cores = 2;
  config.ram_bytes = 4 * kGiB;
  return config;
}

uint64_t Metric(const hw::Machine& machine, std::string_view name) {
  return machine.telemetry().Value(name);
}

// Sum of the per-reason vmm.exits.* counters. Every exit the machine
// delivers has a reason, so this must equal hw.vmexit.total.
uint64_t ExitsByReason(const hw::Machine& machine) {
  uint64_t sum = 0;
  for (const sb::telemetry::MetricValue& m : machine.telemetry().Snapshot()) {
    if (m.name.starts_with("vmm.exits.")) {
      sum += m.value;
    }
  }
  return sum;
}

TEST(Rootkernel, BootDowngradesAllCores) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  for (int i = 0; i < machine.num_cores(); ++i) {
    EXPECT_TRUE(machine.core(i).in_nonroot());
    EXPECT_EQ(machine.core(i).vmcs().active_ept(), (*rk)->base_ept());
  }
}

TEST(Rootkernel, ReservesTopOfRam) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  EXPECT_EQ((*rk)->guest_limit(), 4 * kGiB - 100 * kMiB);
  // Guest memory translates identity...
  EXPECT_TRUE((*rk)->base_ept()->Walk(0x12345000, hw::kEptRead).ok);
  // ...but the reserved region is not reachable through the base EPT.
  EXPECT_FALSE((*rk)->base_ept()->Walk((*rk)->guest_limit() + 0x1000, hw::kEptRead).ok);
}

TEST(Rootkernel, VmcallPing) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  const uint64_t vmcalls_before = Metric(machine, "vmm.exits.vmcall");
  const uint64_t exits_before = Metric(machine, "hw.vmexit.total");
  EXPECT_EQ(machine.core(0).Vmcall(static_cast<uint64_t>(Hypercall::kPing)), kPingValue);
  EXPECT_EQ(Metric(machine, "vmm.exits.vmcall") - vmcalls_before, 1u);
  EXPECT_EQ(Metric(machine, "hw.vmexit.total") - exits_before, 1u);
  EXPECT_EQ(ExitsByReason(machine), Metric(machine, "hw.vmexit.total"));
}

TEST(Rootkernel, CpuidExitsAreCounted) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  const uint64_t cpuids_before = Metric(machine, "vmm.exits.cpuid");
  machine.core(0).Cpuid();
  machine.core(1).Cpuid();
  EXPECT_EQ(Metric(machine, "vmm.exits.cpuid") - cpuids_before, 2u);
  EXPECT_EQ(ExitsByReason(machine), Metric(machine, "hw.vmexit.total"));
}

TEST(Rootkernel, GuestMemoryAccessCausesNoExits) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  const uint64_t exits_before = Metric(machine, "hw.vmexit.total");

  // Build a guest page table and access memory through it: everything stays
  // inside non-root mode (the paper's zero-VM-exit steady state).
  hw::FrameAllocator frames(64 * kMiB, 64 * kMiB);
  auto as = hw::AddressSpace::Create(machine.mem(), frames, 1);
  ASSERT_TRUE(as.ok());
  auto frame = frames.Alloc(machine.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, sb::kPageSize, hw::PageFlags{}).ok());

  hw::Core& core = machine.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  ASSERT_TRUE(core.WriteVirtU64(0x400000, 42).ok());
  auto v = core.ReadVirtU64(0x400000);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42u);
  EXPECT_EQ(Metric(machine, "hw.vmexit.total"), exits_before);
  EXPECT_EQ(ExitsByReason(machine), exits_before);
}

TEST(Rootkernel, CreateProcessEptSharesBaseMappings) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  auto id = (*rk)->CreateProcessEpt();
  ASSERT_TRUE(id.ok());
  hw::Ept* ept = (*rk)->ept(*id);
  ASSERT_NE(ept, nullptr);
  EXPECT_TRUE(ept->Walk(0x7777000, hw::kEptRead).ok);
  EXPECT_EQ(ept->Walk(0x7777000, hw::kEptRead).hpa, 0x7777000u);
}

TEST(Rootkernel, BindingEptRemapsClientCr3) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  const hw::Gpa client_cr3 = 0x10000;
  const hw::Gpa server_cr3 = 0x20000;
  auto id = (*rk)->CreateBindingEpt(client_cr3, server_cr3);
  ASSERT_TRUE(id.ok());
  hw::Ept* ept = (*rk)->ept(*id);
  ASSERT_NE(ept, nullptr);
  // The client's CR3 GPA now translates to the server's CR3 page.
  EXPECT_EQ(ept->Walk(client_cr3 + 0x80, hw::kEptRead).hpa, server_cr3 + 0x80u);
  // Everything else is untouched.
  EXPECT_EQ(ept->Walk(0x30000, hw::kEptRead).hpa, 0x30000u);
  // And the base EPT still identity-maps the client CR3.
  EXPECT_EQ((*rk)->base_ept()->Walk(client_cr3, hw::kEptRead).hpa, client_cr3);
}

TEST(Rootkernel, BindingEptRejectsBogusCr3) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  EXPECT_FALSE((*rk)->CreateBindingEpt(0x1001, 0x2000).ok());  // Misaligned.
  EXPECT_FALSE((*rk)->CreateBindingEpt(4 * kGiB, 0x2000).ok());  // Out of guest range.
}

TEST(Rootkernel, HypercallInterfaceEndToEnd) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  hw::Core& core = machine.core(0);

  const uint64_t ept_id =
      core.Vmcall(static_cast<uint64_t>(Hypercall::kCreateBindingEpt), 0x10000, 0x20000);
  ASSERT_NE(ept_id, kHypercallError);
  EXPECT_EQ(core.Vmcall(static_cast<uint64_t>(Hypercall::kEptpListClear)), 0u);
  EXPECT_EQ(core.Vmcall(static_cast<uint64_t>(Hypercall::kEptpListAppend), 0), 0u);
  EXPECT_EQ(core.Vmcall(static_cast<uint64_t>(Hypercall::kEptpListAppend), ept_id), 1u);
  EXPECT_EQ(core.vmcs().eptp_list.size(), 2u);

  // VMFUNC into the appended EPT works without a VM exit.
  const uint64_t exits_before = Metric(machine, "hw.vmexit.total");
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  EXPECT_EQ(Metric(machine, "hw.vmexit.total"), exits_before);
  // A malformed VMFUNC exits, and the exit is counted under its own reason.
  EXPECT_FALSE(core.Vmfunc(0, 5).ok());
  EXPECT_EQ(Metric(machine, "hw.vmexit.total"), exits_before + 1);
  EXPECT_EQ(Metric(machine, "vmm.exits.vmfunc_invalid"), 1u);
  EXPECT_EQ(ExitsByReason(machine), Metric(machine, "hw.vmexit.total"));
}

TEST(Rootkernel, LazyBaseEptFaultsInPagesOnDemand) {
  hw::Machine machine(SmallMachine());
  RootkernelConfig config;
  config.lazy_base_ept = true;
  auto rk = Rootkernel::Boot(machine, config);
  ASSERT_TRUE(rk.ok());
  const uint64_t violations_before = Metric(machine, "vmm.exits.ept_violation");

  hw::FrameAllocator frames(64 * kMiB, 64 * kMiB);
  auto as = hw::AddressSpace::Create(machine.mem(), frames, 1);
  ASSERT_TRUE(as.ok());
  auto frame = frames.Alloc(machine.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, sb::kPageSize, hw::PageFlags{}).ok());

  hw::Core& core = machine.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  ASSERT_TRUE(core.WriteVirtU64(0x400000, 7).ok());
  // The walk faulted at least once and was healed by the Rootkernel.
  EXPECT_GT(Metric(machine, "vmm.exits.ept_violation"), violations_before);
  EXPECT_EQ(ExitsByReason(machine), Metric(machine, "hw.vmexit.total"));
  auto v = core.ReadVirtU64(0x400000);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7u);
}

TEST(Rootkernel, EptPageAccountingGrowsWithBindings) {
  hw::Machine machine(SmallMachine());
  auto rk = Rootkernel::Boot(machine);
  ASSERT_TRUE(rk.ok());
  const size_t before = (*rk)->ept_pages_allocated();
  ASSERT_TRUE((*rk)->CreateBindingEpt(0x10000, 0x20000).ok());
  // Shallow copy + CR3 remap: "only four pages ... are modified" (Section
  // 4.3): the copied root plus the cloned PDPT and the split PD and PT.
  EXPECT_EQ((*rk)->ept_pages_allocated() - before, 4u);
}

}  // namespace
}  // namespace vmm
