// Ablation: what the 1 GiB huge-page base EPT buys (Section 4.1).
//
// Compares the Rootkernel's eager 1 GiB base EPT against a lazy 4 KiB base
// EPT on (a) EPT violations taken while a process touches fresh memory and
// (b) the memory accesses a 2-D page walk costs after the TLB misses.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/logging.h"
#include "src/base/table.h"
#include "src/base/units.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/vmm/rootkernel.h"

namespace {

struct Result {
  uint64_t vm_exits = 0;
  uint64_t walk_accesses = 0;  // Memory accesses per cold translation.
  uint64_t cycles = 0;
};

Result Measure(bool huge_pages) {
  hw::MachineConfig mc;
  mc.num_cores = 1;
  mc.ram_bytes = 4 * sb::kGiB;
  hw::Machine machine(mc);
  vmm::RootkernelConfig config;
  if (!huge_pages) {
    config.base_ept_page_size = sb::kPageSize;
    config.lazy_base_ept = true;
  }
  auto rk = vmm::Rootkernel::Boot(machine, config);
  SB_CHECK(rk.ok());

  hw::FrameAllocator frames(64 * sb::kMiB, 512 * sb::kMiB);
  auto as = hw::AddressSpace::Create(machine.mem(), frames, 1);
  SB_CHECK(as.ok());
  const int kPages = 512;
  for (int i = 0; i < kPages; ++i) {
    auto frame = frames.Alloc(machine.mem());
    SB_CHECK(frame.ok());
    SB_CHECK((*as)->Map(0x400000 + static_cast<uint64_t>(i) * sb::kPageSize, *frame,
                        sb::kPageSize, hw::PageFlags{})
                 .ok());
  }
  hw::Core& core = machine.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  const uint64_t exits_before = machine.telemetry().Value("hw.vmexit.total");
  const uint64_t accesses_before = core.pmu().mem_accesses;
  const uint64_t cycles_before = core.cycles();
  for (int i = 0; i < kPages; ++i) {
    SB_CHECK(core.ReadVirtU64(0x400000 + static_cast<uint64_t>(i) * sb::kPageSize).ok());
  }
  Result result;
  result.vm_exits = machine.telemetry().Value("hw.vmexit.total") - exits_before;
  result.walk_accesses = (core.pmu().mem_accesses - accesses_before) / kPages;
  result.cycles = (core.cycles() - cycles_before) / kPages;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_ablation_ept_pages", argc, argv);
  std::printf("== Ablation: 1 GiB base-EPT pages vs lazy 4 KiB pages ==\n");
  std::printf("(cold access to 512 fresh pages through the 2-D walk)\n\n");

  const Result huge = Measure(true);
  const Result small = Measure(false);
  reporter.Add("huge_1gib.vm_exits", huge.vm_exits);
  reporter.Add("huge_1gib.cycles_per_access", huge.cycles);
  reporter.Add("lazy_4kib.vm_exits", small.vm_exits);
  reporter.Add("lazy_4kib.cycles_per_access", small.cycles);

  sb::Table table({"Base EPT", "VM exits", "mem accesses / cold access", "cycles / access"});
  table.AddRow({"1 GiB eager (SkyBridge)", sb::Table::Int(huge.vm_exits),
                sb::Table::Int(huge.walk_accesses), sb::Table::Int(huge.cycles)});
  table.AddRow({"4 KiB lazy", sb::Table::Int(small.vm_exits),
                sb::Table::Int(small.walk_accesses), sb::Table::Int(small.cycles)});
  table.Print();
  std::printf("\nThe huge-page design removes every EPT violation and shortens the EPT\n");
  std::printf("leg of the 2-D walk (2 reads/level vs 4) — Section 4.1's two claims.\n");
  return 0;
}
