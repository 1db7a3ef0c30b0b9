#include "src/hw/machine.h"

#include "src/base/logging.h"
#include "src/base/telemetry/trace.h"

namespace hw {
namespace {

// Runs before any member allocates, so an oversized RAM fails without
// building its frame table. The caches keep 32-bit line keys (cache.h), so
// every RAM address must stay below each cache's AddressLimit.
const MachineConfig& CheckedConfig(const MachineConfig& config) {
  for (const CacheConfig& cache : {L1iConfig(), L1dConfig(), L2Config(), L3Config()}) {
    SB_CHECK_LE(config.ram_bytes, Cache::AddressLimit(cache))
        << "RAM too large for the cache model's line keys";
  }
  return config;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(CheckedConfig(config)), mem_(config.ram_bytes), l3_(L3Config()) {
  SB_CHECK(config.num_cores > 0);
  cores_.reserve(static_cast<size_t>(config.num_cores));
  for (int i = 0; i < config.num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, this));
  }

  // Surface the per-core PMU tallies as snapshot-time provider gauges. The
  // lambdas capture `this`; cores_ are machine members, so the lifetimes
  // match the registry's by construction.
  auto sum_pmu = [this](uint64_t hw::PmuCounters::* field) {
    uint64_t sum = 0;
    for (const auto& c : cores_) {
      sum += c->pmu().*field;
    }
    return sum;
  };
  telemetry_.GetGauge("hw.tlb.itlb_misses")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::itlb_miss); });
  telemetry_.GetGauge("hw.tlb.dtlb_misses")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::dtlb_miss); });
  telemetry_.GetGauge("hw.cache.l1i_misses")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::icache_miss); });
  telemetry_.GetGauge("hw.cache.l1d_misses")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::dcache_miss); });
  telemetry_.GetGauge("hw.cache.l2_misses")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::l2_miss); });
  telemetry_.GetGauge("hw.cache.l3_misses")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::l3_miss); });
  telemetry_.GetGauge("hw.core.vmfuncs")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::vmfuncs); });
  telemetry_.GetGauge("hw.core.syscalls")
      .SetProvider([sum_pmu] { return sum_pmu(&PmuCounters::syscalls); });
  telemetry_.GetGauge("hw.ipi.sent").SetProvider([this] { return total_ipis_; });
  telemetry_.GetGauge("hw.vmexit.total").SetProvider([this] { return total_vm_exits_; });
}

uint64_t Machine::DeliverVmExit(Core& core, const VmExitInfo& info) {
  ++total_vm_exits_;
  ++core.pmu().vm_exits;
  if (info.reason == VmExitReason::kEptExecViolation) {
    ++core.pmu().exec_violations;
  }
  core.AdvanceCycles(config_.costs.vm_exit_roundtrip);
  SB_CHECK(has_vm_exit_handler()) << "VM exit with no hypervisor installed (triple fault), reason="
                                  << static_cast<int>(info.reason);
  return vm_exit_handler_(core, info);
}

void Machine::SendIpi(int from_core, int to_core) {
  SB_CHECK(from_core >= 0 && from_core < num_cores());
  SB_CHECK(to_core >= 0 && to_core < num_cores());
  ++total_ipis_;
  ++core(from_core).pmu().ipis_sent;
  SB_TRACE_EVENT(core(from_core), sb::telemetry::TraceEventType::kIpi,
                 static_cast<uint64_t>(to_core), 0);
}

}  // namespace hw
