#include "src/skybridge/buffers.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "src/base/logging.h"
#include "src/base/units.h"

namespace skybridge {

static_assert(offsetof(BatchRingView::Desc, call_id) == 40);  // DESIGN.md section 13.

namespace {

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
void Store(uint8_t* p, const T& v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

uint64_t BatchRingView::LoadTail() const {
  return Load<uint64_t>(base + offsetof(Header, sq_tail));
}

void BatchRingView::PublishTail(uint64_t tail) const {
  Store(base + offsetof(Header, sq_tail), tail);
}

uint64_t BatchRingView::LoadHead() const {
  return Load<uint64_t>(base + offsetof(Header, sq_head));
}

void BatchRingView::PublishHead(uint64_t head) const {
  Store(base + offsetof(Header, sq_head), head);
}

BatchRingView::Desc BatchRingView::LoadDesc(uint64_t token) const {
  return Load<Desc>(base + DescOff(token));
}

void BatchRingView::PublishRequest(uint64_t token, uint64_t tag, uint32_t req_len,
                                   uint64_t call_id) const {
  Desc desc{};
  desc.tag = tag;
  desc.req_len = req_len;
  desc.call_id = call_id;
  Store(base + DescOff(token), desc);
}

void BatchRingView::PostCompletion(uint64_t token, uint64_t reply_tag, uint32_t reply_len,
                                   sb::ErrorCode code) const {
  uint8_t* desc = base + DescOff(token);
  Store(desc + offsetof(Desc, reply_tag), reply_tag);
  Store(desc + offsetof(Desc, reply_len), reply_len);
  // Publish order: reply fields first, status word last.
  Store(desc + offsetof(Desc, status), 1u + static_cast<uint32_t>(code));
}

BufferPool::BufferPool(mk::Kernel& kernel, const SkyBridgeConfig& config)
    : kernel_(&kernel), config_(&config), next_va_(mk::kSharedBufVa) {}

sb::StatusOr<BufferPool::Region> BufferPool::CreateRegion(mk::Process* client,
                                                          mk::Process* server) {
  // Shared buffer region for long messages: same VA, same frames, both
  // processes. The region is carved into per-connection slices (Section 6.3
  // per-thread buffers): `buffer_slices` page-aligned slices, each with
  // shared_buffer_bytes of capacity, so concurrent connections of this
  // binding never alias one buffer.
  Region region;
  region.slice_stride = sb::PageUp(config_->shared_buffer_bytes);
  const uint64_t num_slices = std::max<uint64_t>(1, config_->buffer_slices);
  region.num_slices = static_cast<uint32_t>(num_slices);
  const uint64_t region_bytes = region.slice_stride * num_slices;
  region.va = next_va_;
  hw::AddressSpace& client_space = client->address_space();
  SB_ASSIGN_OR_RETURN(region.gpa,
                      client_space.MapAnonymous(region.va, region_bytes, hw::PageFlags{}));
  if (const sb::Status mapped = server->address_space().MapRange(region.va, region.gpa,
                                                                 region_bytes, hw::PageFlags{});
      !mapped.ok()) {
    // Leave nothing half-made: a retry gets this VA again.
    client_space.UnmapAnonymous(region.va, region.gpa, region_bytes);
    return mapped;
  }
  next_va_ += region_bytes;
  return region;
}

void BufferPool::DestroyRegion(mk::Process* client, mk::Process* server, const Region& region) {
  const uint64_t region_bytes = region.slice_stride * region.num_slices;
  SB_CHECK(region.host_base == nullptr && region.va + region_bytes == next_va_)
      << "only the last region, before its host backing, can be destroyed";
  server->address_space().UnmapRange(region.va, region_bytes);
  client->address_space().UnmapAnonymous(region.va, region.gpa, region_bytes);
  next_va_ = region.va;
}

void BufferPool::BackRegion(Region& region) {
  // One host-contiguous backing lets in-place messages be exposed as a
  // single span. Guest frames are identity-mapped by the base EPT (GPA ==
  // HPA), so the GPA range addresses host memory directly.
  const uint64_t region_bytes = region.slice_stride * region.num_slices;
  hw::HostPhysMem& mem = kernel_->machine().mem();
  mem.BackContiguous(region.gpa, region_bytes);
  region.host_base = mem.ContiguousSpan(region.gpa, region_bytes);
  SB_CHECK(region.host_base != nullptr) << "shared buffer region not host-contiguous";
}

SliceRef BufferPool::SliceAt(const Binding& binding, uint32_t index) const {
  SliceRef ref;
  const uint64_t stride = binding.slice_stride != 0 ? binding.slice_stride
                                                    : sb::PageUp(config_->shared_buffer_bytes);
  ref.va = binding.shared_buf + index * stride;
  if (binding.host_base != nullptr) {
    ref.host = std::span<uint8_t>(binding.host_base + index * stride,
                                  static_cast<size_t>(config_->shared_buffer_bytes));
  }
  return ref;
}

sb::StatusOr<SliceRef> BufferPool::AcquireSlice(Binding& binding,
                                                const mk::Thread* caller) const {
  if (binding.shared_buf == 0) {
    return sb::FailedPrecondition("binding has no shared buffer");
  }
  if (!binding.slices_carved) {
    // First touch of the region: populate the free list so slices hand out
    // in ascending order (LIFO list built high-to-low).
    const uint32_t slices = std::max<uint32_t>(1, binding.num_slices);
    binding.free_slices.reserve(slices);
    for (uint32_t i = slices; i-- > 0;) {
      binding.free_slices.push_back(i);
    }
    binding.slices_carved = true;
  }
  const auto assigned = binding.slice_of_tid.find(caller->tid());
  if (assigned != binding.slice_of_tid.end()) {
    return SliceAt(binding, assigned->second);
  }
  if (binding.free_slices.empty()) {
    return sb::ResourceExhausted("connection slices exhausted for this binding");
  }
  const uint32_t index = binding.free_slices.back();
  binding.free_slices.pop_back();
  binding.slice_of_tid.emplace(caller->tid(), index);
  return SliceAt(binding, index);
}

SliceRef BufferPool::SliceOf(const Binding& binding, const mk::Thread* caller) const {
  if (binding.shared_buf == 0) {
    return SliceRef{};  // Chain bindings carry no buffer.
  }
  const auto assigned = binding.slice_of_tid.find(caller->tid());
  if (assigned == binding.slice_of_tid.end()) {
    return SliceRef{};
  }
  return SliceAt(binding, assigned->second);
}

sb::StatusOr<BatchRingView> BufferPool::CarveRing(Binding& binding,
                                                  const mk::Thread* caller) const {
  SB_ASSIGN_OR_RETURN(const SliceRef slice, AcquireSlice(binding, caller));
  if (slice.host.empty()) {
    return sb::FailedPrecondition("slice has no host-contiguous backing");
  }
  const uint32_t entries = kBatchRingEntries;
  const uint64_t fixed = BatchRingView::kHeaderBytes +
                         static_cast<uint64_t>(entries) * BatchRingView::kDescBytes;
  if (fixed + entries >= slice.host.size()) {
    return sb::InvalidArgument("slice too small for the batch ring");
  }
  BatchRingView ring;
  ring.base = slice.host.data();
  ring.va = slice.va;
  ring.entries = entries;
  ring.payload_cap = static_cast<uint32_t>((slice.host.size() - fixed) / entries);
  // Fresh ring: zero the header and every descriptor's status word so no
  // stale completion from a previous carving is visible.
  std::memset(ring.base, 0, fixed);
  return ring;
}

}  // namespace skybridge
