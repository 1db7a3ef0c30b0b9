// The simulated machine: RAM, cores, shared L3, VM-exit dispatch, IPIs.

#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/telemetry/metrics.h"
#include "src/base/telemetry/trace.h"
#include "src/base/units.h"
#include "src/hw/cache.h"
#include "src/hw/core.h"
#include "src/hw/cost_model.h"
#include "src/hw/phys_mem.h"
#include "src/hw/walk_cache.h"

namespace hw {

struct MachineConfig {
  int num_cores = 8;  // 4 cores x 2 hyperthreads on the paper's i7-6700K.
  uint64_t ram_bytes = 16 * sb::kGiB;
  CostModel costs;
};

// Arguments of a VM exit delivered to the hypervisor.
struct VmExitInfo {
  VmExitReason reason;
  uint64_t qualification = 0;  // e.g. faulting GPA, or hypercall code.
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
  uint64_t arg3 = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  HostPhysMem& mem() { return mem_; }
  // Every core's recorded page walks (walk_cache.h); host-side only.
  WalkCache& walk_cache() { return walk_cache_; }
  Cache& l3() { return l3_; }
  Core& core(int i) { return *cores_[static_cast<size_t>(i)]; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  const CostModel& costs() const { return config_.costs; }
  const MachineConfig& config() const { return config_; }

  // Hypervisor VM-exit handler; returns a value (for VMCALL). Unset handler
  // on a VM exit is a triple fault (CHECK failure).
  using VmExitHandler = std::function<uint64_t(Core&, const VmExitInfo&)>;
  void SetVmExitHandler(VmExitHandler handler) { vm_exit_handler_ = std::move(handler); }
  bool has_vm_exit_handler() const { return static_cast<bool>(vm_exit_handler_); }

  // Dispatches a VM exit from `core`, charging the exit/entry round trip.
  uint64_t DeliverVmExit(Core& core, const VmExitInfo& info);

  // Counts and charges an IPI from one core to another; returns the cycle
  // cost charged to the sender (the delivery latency is modeled by the
  // virtual-time layer on the receiver side).
  void SendIpi(int from_core, int to_core);

  // This machine's metrics registry. Every simulated layer (skybridge, mk,
  // vmm, hw) reports here; provider gauges registered by the constructor
  // surface the per-core PMU tallies (hw.tlb.*, hw.cache.*, ...).
  sb::telemetry::Registry& telemetry() { return telemetry_; }
  const sb::telemetry::Registry& telemetry() const { return telemetry_; }
  // This machine's event trace; every core emits into it (trace.h).
  sb::telemetry::Trace& trace() { return trace_; }

 private:
  // Declared first so they are destroyed after everything that reports into them.
  sb::telemetry::Registry telemetry_;
  sb::telemetry::Trace trace_;
  MachineConfig config_;
  HostPhysMem mem_;
  WalkCache walk_cache_;
  Cache l3_;
  std::vector<std::unique_ptr<Core>> cores_;
  VmExitHandler vm_exit_handler_;
  // Read only through the hw.vmexit.total and hw.ipi.sent gauges.
  uint64_t total_vm_exits_ = 0;
  uint64_t total_ipis_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_MACHINE_H_
