#include "src/mk/process.h"

#include <algorithm>
#include <optional>

#include "src/base/logging.h"

namespace mk {

namespace {

// Guest-physical base of the code window, or nullopt without one.
// MapAnonymous backs the window with contiguous frames, so
// [gpa, gpa + kCodeSize) is the whole window.
std::optional<hw::Gpa> CodeGpa(const hw::AddressSpace& as) {
  const hw::GuestWalk walk = as.WalkVa(kCodeVa);
  return walk.ok ? std::optional<hw::Gpa>(walk.gpa) : std::nullopt;
}

}  // namespace

std::vector<uint8_t> Process::code_image() const {
  const std::optional<hw::Gpa> gpa = CodeGpa(*address_space_);
  if (!gpa) {
    return {};
  }
  std::vector<uint8_t> image(code_size_);
  address_space_->mem().Read(*gpa, image);
  return image;
}

void Process::WriteCode(std::span<const uint8_t> image) {
  SB_CHECK(image.size() <= kCodeSize) << "code image larger than the code window";
  const std::optional<hw::Gpa> code_gpa = CodeGpa(*address_space_);
  SB_CHECK(code_gpa.has_value()) << "process has no code mapping";
  hw::HostPhysMem& mem = address_space_->mem();
  // Whole pages, zero past the image (which also clears the old image's
  // tail), so clones with byte-identical code share host pages.
  const uint64_t end = sb::PageUp(std::max<uint64_t>(image.size(), code_size_));
  for (uint64_t off = 0; off < end; off += sb::kPageSize) {
    const std::span<const uint8_t> rest = image.subspan(std::min<uint64_t>(off, image.size()));
    mem.WriteShared(*code_gpa + off, rest.first(std::min<uint64_t>(rest.size(), sb::kPageSize)));
  }
  code_size_ = image.size();
}

sb::StatusOr<hw::Gva> Process::AllocHeap(uint64_t bytes, uint64_t align) {
  uint64_t offset = (heap_used_ + align - 1) & ~(align - 1);
  if (offset + bytes > heap_limit_) {
    return sb::ResourceExhausted("process heap exhausted");
  }
  heap_used_ = offset + bytes;
  return kHeapVa + offset;
}

}  // namespace mk
