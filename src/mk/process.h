// Processes, threads and capabilities.
//
// A process owns a real 4-level page-table address space built in guest
// memory, a code image (actual x86-64 bytes in its code frames — scanned and
// rewritten there by SkyBridge at registration; the frames are the only
// copy), a heap, per-thread stacks, a capability space and an identity frame
// (Section 4.2's process-misidentification fix).

#ifndef SRC_MK_PROCESS_H_
#define SRC_MK_PROCESS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/hw/paging.h"

namespace mk {

class Kernel;
class Process;

// ---- Virtual address layout (identical for every process) ----
inline constexpr hw::Gva kRewritePageVa = 0x1000;        // Paper Section 5.1.
inline constexpr hw::Gva kCodeVa = 0x400000;
inline constexpr uint64_t kCodeSize = 64 * 1024;
inline constexpr hw::Gva kHeapVa = 0x10000000;
inline constexpr hw::Gva kStackTopVa = 0x7ffe00000000;
inline constexpr uint64_t kStackSize = 64 * 1024;
inline constexpr hw::Gva kTrampolineVa = 0x700000000000;       // SkyBridge code page.
// MPK-backend trampoline variant (WRPKRU gates instead of VMFUNC), one page
// above the VMFUNC trampoline. Both pages are shared frames mapped read-only
// into every prepared process; each is the sole legal site of its gate
// instruction.
inline constexpr hw::Gva kMpkTrampolineVa = 0x700000001000;
// Each server id owns a 16 MiB stack stride (256 connections x 64 KiB), so
// the regions below are spaced far enough apart that hundreds of servers /
// bindings never collide (stacks get 32 GiB of VA; buffers grow upward from
// their own base).
inline constexpr hw::Gva kServerStacksVa = 0x700000100000;     // SkyBridge stacks.
inline constexpr hw::Gva kSharedBufVa = 0x700800000000;        // SkyBridge buffers.
inline constexpr hw::Gva kIdentityVa = 0x700900000000;         // Identity page.
inline constexpr hw::Gva kCallingKeyTableVa = 0x700a00000000;  // Key table.
inline constexpr hw::Gva kKernelCodeVa = 0xffff800000000000;
inline constexpr hw::Gva kKernelDataVa = 0xffff880000000000;

enum class CapType : uint8_t { kNone = 0, kEndpoint, kMemory, kIrq };

inline constexpr uint32_t kRightCall = 1u << 0;
inline constexpr uint32_t kRightRecv = 1u << 1;
inline constexpr uint32_t kRightGrant = 1u << 2;

struct Capability {
  CapType type = CapType::kNone;
  uint64_t object = 0;  // Endpoint id, frame base, ...
  uint32_t rights = 0;
};

using CapSlot = uint32_t;

class Thread {
 public:
  Thread(Process* process, int tid, int core_id)
      : process_(process), tid_(tid), core_id_(core_id) {}

  Process* process() const { return process_; }
  int tid() const { return tid_; }
  int core_id() const { return core_id_; }
  void set_core_id(int core_id) { core_id_ = core_id; }

  // Opaque per-thread last-route cache. SkyBridge stores the binding it
  // resolved for this thread's most recent server lookup, so the common
  // mono-binding call pattern never consults the binding index. `generation`
  // is the owner's invalidation epoch: a mismatch means the entry is stale
  // and must be re-resolved. The kernel itself never reads these fields.
  struct RouteCache {
    uint64_t key = ~0ULL;       // Owner-defined lookup key (server id).
    uint64_t generation = 0;    // Owner's invalidation epoch.
    void* route = nullptr;      // Owner-defined route object.
  };
  RouteCache& route_cache() { return route_cache_; }

 private:
  Process* process_;
  int tid_;
  int core_id_;
  RouteCache route_cache_;
};

class Process {
 public:
  Process(Kernel* kernel, uint64_t pid, std::string name)
      : kernel_(kernel), pid_(pid), name_(std::move(name)) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  uint64_t pid() const { return pid_; }
  const std::string& name() const { return name_; }
  Kernel& kernel() { return *kernel_; }

  hw::AddressSpace& address_space() { return *address_space_; }
  hw::Gpa cr3() const { return address_space_->root_gpa(); }
  uint16_t pcid() const { return address_space_->pcid(); }

  // The process's own EPT id in the Rootkernel.
  uint64_t ept_id() const { return ept_id_; }
  void set_ept_id(uint64_t id) { ept_id_ = id; }

  // Host-physical frame holding this process's identity record.
  hw::Hpa identity_frame() const { return identity_frame_; }
  void set_identity_frame(hw::Hpa f) { identity_frame_ = f; }

  // Raw bytes of the process's executable image, read (uncharged) from the
  // code frames mapped at kCodeVa. Guest memory holds the only copy: the
  // process records just the image length, so this returns exactly the
  // bytes the process would execute, rewrites included.
  std::vector<uint8_t> code_image() const;
  // Writes `image` (at most kCodeSize bytes) over the code frames and records
  // its length. The bytes a longer previous image held past the new end are
  // zeroed, so no tail of old code stays in the executable window. Pages go
  // through HostPhysMem::WriteShared, so clones of one image share host pages.
  void WriteCode(std::span<const uint8_t> image);
  bool code_rewritten() const { return code_rewritten_; }
  void set_code_rewritten(bool v) { code_rewritten_ = v; }

  // ---- Capability space ----
  CapSlot InstallCap(const Capability& cap) {
    caps_.push_back(cap);
    return static_cast<CapSlot>(caps_.size() - 1);
  }
  const Capability* LookupCap(CapSlot slot) const {
    if (slot >= caps_.size() || caps_[slot].type == CapType::kNone) {
      return nullptr;
    }
    return &caps_[slot];
  }
  size_t cap_count() const { return caps_.size(); }

  // ---- Threads ----
  Thread* AddThread(int core_id) {
    threads_.push_back(std::make_unique<Thread>(this, static_cast<int>(threads_.size()), core_id));
    return threads_.back().get();
  }
  const std::vector<std::unique_ptr<Thread>>& threads() const { return threads_; }

  // Heap bump allocator (virtual addresses backed at creation time).
  sb::StatusOr<hw::Gva> AllocHeap(uint64_t bytes, uint64_t align = 64);
  uint64_t heap_used() const { return heap_used_; }

 private:
  friend class Kernel;

  Kernel* kernel_;
  uint64_t pid_;
  std::string name_;
  std::unique_ptr<hw::AddressSpace> address_space_;
  uint64_t heap_limit_ = 0;
  uint64_t heap_used_ = 0;
  uint64_t ept_id_ = 0;
  hw::Hpa identity_frame_ = 0;
  uint64_t code_size_ = 0;
  bool code_rewritten_ = false;
  std::vector<Capability> caps_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace mk

#endif  // SRC_MK_PROCESS_H_
