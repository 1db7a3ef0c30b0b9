// Shared-buffer plane: per-binding buffer regions carved into
// per-connection slices (paper Section 6.3 per-thread buffers), the slice
// resolution the in-place zero-copy API builds on, and the batch
// submission/completion ring geometry carved from a slice (DESIGN.md
// section 13).
//
// Region layout is fixed at registration. Slice ownership is a per-binding
// owner row: a connection (thread) acquires the next slice on first use and
// keeps it, with explicit exhaustion when more live connections than slices
// exist, so two threads never share (and corrupt the ordering of) one slice.
// Steady-state calls only read the established assignment.

#ifndef SRC_SKYBRIDGE_BUFFERS_H_
#define SRC_SKYBRIDGE_BUFFERS_H_

#include <cstdint>
#include <span>

#include "src/base/status.h"
#include "src/mk/kernel.h"
#include "src/skybridge/config.h"
#include "src/skybridge/routing.h"

namespace skybridge {

// The caller's per-connection slice of a binding's buffer region: its
// guest VA (same in client and server) and, when the region has contiguous
// host backing, the host view used for borrowed messages. Both empty/0 for
// bufferless (chain) bindings.
struct SliceRef {
  hw::Gva va = 0;
  std::span<uint8_t> host;
};

// Submission/completion ring entries carved from a connection's slice (a
// power of two). The rest of the slice is the per-entry payload arena, so
// each entry carries up to (slice - header - entries * desc) / entries
// payload bytes.
inline constexpr uint32_t kBatchRingEntries = 64;

// A submission/completion ring carved from one per-connection slice
// (DESIGN.md section 13). Layout, from the slice base:
//
//   [ Header 64 B | Desc[entries] 64 B each | payload arena ]
//
// Entry slot token % entries owns Desc[slot] and the fixed payload_cap-byte
// span at arena + slot * payload_cap, used for the request bytes on submit
// and reused for the reply bytes on completion. Completion is posted by
// writing the reply fields and then the nonzero status word (the ring's
// "phase bit") — never by a per-call return crossing.
//
// This view is the only code that reads or writes ring words. Both ends can
// scribble the shared bytes, so each reader copies a descriptor once
// (LoadDesc) and bound-checks the copy; nothing is read twice.
struct BatchRingView {
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint64_t kDescBytes = 64;

  // Ring indices. The client writes sq_tail, the server's drain sq_head.
  struct Header {
    uint64_t sq_tail;
    uint64_t sq_head;
  };
  // One entry's descriptor. The client writes it whole at submit
  // (PublishRequest); the server then writes only the reply fields and the
  // status word (PostCompletion).
  struct Desc {
    uint64_t reserved;   // Unused; zeroed at submit.
    uint64_t tag;
    uint64_t reply_tag;
    uint32_t req_len;
    uint32_t reply_len;
    uint32_t status;     // 0 pending, else 1 + ErrorCode.
    uint32_t pad;
    // Span-tracing call id (trace.h): rides the descriptor so the drain and
    // the final poll attribute their trace events to the submitting call
    // without any host-side side table.
    uint64_t call_id;
  };
  static_assert(sizeof(Header) <= kHeaderBytes);
  static_assert(sizeof(Desc) <= kDescBytes);

  uint8_t* base = nullptr;   // Host view of the slice.
  hw::Gva va = 0;            // Guest VA of the slice (same in both spaces).
  uint32_t entries = 0;      // Ring size (power of two).
  uint32_t payload_cap = 0;  // Per-entry payload arena capacity.

  uint32_t Slot(uint64_t token) const { return static_cast<uint32_t>(token % entries); }
  uint64_t DescOff(uint64_t token) const { return kHeaderBytes + Slot(token) * kDescBytes; }
  hw::Gva DescVa(uint64_t token) const { return va + DescOff(token); }
  uint64_t ArenaOff(uint64_t token) const {
    return kHeaderBytes + entries * kDescBytes +
           static_cast<uint64_t>(Slot(token)) * payload_cap;
  }
  std::span<uint8_t> Payload(uint64_t token) const {
    return std::span<uint8_t>(base + ArenaOff(token), payload_cap);
  }
  hw::Gva PayloadVa(uint64_t token) const { return va + ArenaOff(token); }

  // Memory-ordering rules (DESIGN.md section 13): the producer writes the
  // payload and descriptor first and publishes with the index or status
  // store; the consumer reads the index or status first and the fields
  // after. In the simulator all accesses run in virtual time on the
  // machine's one host thread (DESIGN.md section 11), so plain loads and
  // stores implement the protocol.
  uint64_t LoadTail() const;
  void PublishTail(uint64_t tail) const;
  uint64_t LoadHead() const;
  void PublishHead(uint64_t head) const;

  // A copy of `token`'s descriptor, read once.
  Desc LoadDesc(uint64_t token) const;
  // Client side: writes `token`'s whole descriptor with the request fields
  // and a pending (zero) status.
  void PublishRequest(uint64_t token, uint64_t tag, uint32_t req_len, uint64_t call_id) const;
  // Server side: writes the reply fields, then the status word 1 + code.
  void PostCompletion(uint64_t token, uint64_t reply_tag, uint32_t reply_len,
                      sb::ErrorCode code) const;
};

class BufferPool {
 public:
  BufferPool(mk::Kernel& kernel, const SkyBridgeConfig& config);

  // A freshly mapped shared-buffer region: base VA (same in both address
  // spaces), its first frame, its slice geometry, and the host-contiguous
  // view (set by BackRegion).
  struct Region {
    hw::Gva va = 0;
    hw::Gpa gpa = 0;
    uint64_t slice_stride = 0;
    uint32_t num_slices = 0;
    uint8_t* host_base = nullptr;
  };

  // Registration-time (slow path): maps a region at the same VA in client
  // and server, carved into `buffer_slices` page-aligned slices of
  // shared_buffer_bytes capacity. On failure nothing of it is left.
  sb::StatusOr<Region> CreateRegion(mk::Process* client, mk::Process* server);
  // Undoes the last CreateRegion, before BackRegion: unmaps it from both
  // processes, frees its frames and tables, and hands its VA out again.
  void DestroyRegion(mk::Process* client, mk::Process* server, const Region& region);
  // Gives the region one host-contiguous backing. Host backing is never
  // undone, so registration calls this once nothing can fail any more.
  void BackRegion(Region& region);

  // The caller's slice of `binding`'s region: returns the established
  // assignment, or appends the connection to the binding's owner row on its
  // first use. ResourceExhausted when more live connections
  // than slices contend for the region — explicit, instead of the silent
  // sharing `tid % num_slices` produced. FailedPrecondition for bufferless
  // (chain) bindings.
  sb::StatusOr<SliceRef> AcquireSlice(Binding& binding, const mk::Thread* caller) const;

  // Read-only resolution of an already-acquired slice; empty SliceRef when
  // the connection never acquired one (or the binding has no buffer).
  SliceRef SliceOf(const Binding& binding, const mk::Thread* caller) const;

  // Carves the caller's slice into a submission/completion ring with
  // kBatchRingEntries descriptors and an evenly divided payload arena.
  // Same exhaustion rules as AcquireSlice; InvalidArgument when the slice
  // is too small for the ring.
  sb::StatusOr<BatchRingView> CarveRing(Binding& binding, const mk::Thread* caller) const;

 private:
  SliceRef SliceAt(const Binding& binding, uint32_t index) const;

  mk::Kernel* kernel_;
  const SkyBridgeConfig* config_;
  hw::Gva next_va_;
};

}  // namespace skybridge

#endif  // SRC_SKYBRIDGE_BUFFERS_H_
