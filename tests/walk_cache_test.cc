// Exactness of the walk cache (src/hw/walk_cache.h): a TLB miss that replays
// a recorded 2-D walk must be indistinguishable from one that walks the
// tables: same status, HPA, cycles, ledger, PMU counters and TLB fill.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hw/walk_cache.h"

namespace hw {
namespace {

using sb::kGiB;
using sb::kHugePage1G;
using sb::kHugePage2M;
using sb::kMiB;
using sb::kPageSize;

constexpr Hpa kGuestBase = 16 * kMiB;   // Guest page tables and data frames.
constexpr Hpa kRootBase = 1536 * kMiB;  // EPT tables.
constexpr uint64_t kPoolBytes = 8 * kMiB;
constexpr Gva kVa = 0x400000;

MachineConfig OneCore() {
  MachineConfig config;
  config.num_cores = 1;
  config.ram_bytes = 2 * kGiB;
  return config;
}

// One core, two address spaces A and B, an identity base EPT of 1 GiB pages
// and two views derived from it; the second view maps A's CR3 page to B's
// root, SkyBridge's remap. An EPT violation maps the faulting page
// identically in the active EPT, or gives it back its execute bit.
struct World {
  World() : machine(OneCore()), guest(kGuestBase, kPoolBytes), root(kRootBase, kPoolBytes) {
    HostPhysMem& mem = machine.mem();
    for (int i = 0; i < 2; ++i) {
      as[i] = std::move(AddressSpace::Create(mem, guest, static_cast<uint16_t>(i + 1)).value());
    }
    epts[0] = std::move(Ept::Create(mem, root).value());
    SB_CHECK(epts[0]->Map(0, 0, kHugePage1G, kEptRwx).ok());
    SB_CHECK(epts[0]->Map(kGiB, kGiB, kHugePage1G, kEptRwx).ok());
    epts[1] = std::move(epts[0]->ShallowCopy().value());
    epts[2] = std::move(epts[0]->ShallowCopy().value());
    SB_CHECK(epts[2]->RemapGpaPage(as[0]->root_gpa(), as[1]->root_gpa()).ok());
    for (int i = 0; i < 16; ++i) {
      data.push_back(guest.Alloc(mem).value());
    }
    machine.SetVmExitHandler([](Core& core, const VmExitInfo& info) -> uint64_t {
      if (info.reason == VmExitReason::kEptViolation) {
        Ept* ept = core.vmcs().active_ept();
        const Gpa page = sb::PageDown(info.qualification);
        if (!ept->Map(page, page, kPageSize, kEptRwx).ok()) {
          (void)ept->SetGpaPageExec(page, true);
        }
      }
      return 0;
    });
    core().WriteCr3(as[0]->root_gpa(), 1, false);
  }

  Core& core() { return machine.core(0); }
  HostPhysMem& mem() { return machine.mem(); }
  void EnterViews() {
    core().EnterNonRoot(epts[1].get(), 1);
    core().vmcs().eptp_list.push_back(epts[2].get());
    core().vmcs().eptp_list.push_back(epts[0].get());
  }
  // The walk cache's entry for the core's next walk of `va`, if valid.
  const WalkEntry* Entry(Gva va, bool ifetch) {
    return machine.walk_cache().Find(
        WalkCache::KeyFor(core().ep4ta(), core().cr3(), core().in_nonroot(), va, ifetch),
        mem().walk_epoch());
  }
  // Drops every TLB entry of the current context.
  void FlushTlb() { core().WriteCr3(core().cr3(), core().pcid(), false); }

  Machine machine;
  FrameAllocator guest;
  FrameAllocator root;
  std::unique_ptr<AddressSpace> as[2];
  std::unique_ptr<Ept> epts[3];
  std::vector<Hpa> data;
};

// Everything an op can leave behind that the model exposes.
struct Outcome {
  sb::ErrorCode code = sb::ErrorCode::kOk;
  Hpa hpa = 0;
  uint64_t cycles = 0;
  CycleLedger ledger;
  PmuCounters pmu;
  uint64_t vm_exits = 0;

  void ExpectEq(const Outcome& o, uint64_t step) const {
    ASSERT_EQ(code, o.code) << "step " << step;
    ASSERT_EQ(hpa, o.hpa) << "step " << step;
    ASSERT_EQ(cycles, o.cycles) << "step " << step;
    ASSERT_EQ(ledger.cycles, o.ledger.cycles) << "step " << step;
    static_assert(sizeof(PmuCounters) == 14 * sizeof(uint64_t));
    ASSERT_EQ(std::memcmp(&pmu, &o.pmu, sizeof(pmu)), 0) << "step " << step;
    ASSERT_EQ(vm_exits, o.vm_exits) << "step " << step;
  }
};

// A VA in one of four places: the pages of one PT, a far PML4 slot, one page
// per GiB, and the 2 MiB pages the 4 KiB ones there may overlap.
Gva VaFor(uint64_t r) {
  switch (r % 4) {
    case 0:
      return kVa + (r / 4 % 8) * kPageSize;
    case 1:
      return 0x7f0000000000ULL + (r / 4 % 4) * kPageSize;
    case 2:
      return (r / 4 % 4) * kGiB + 0x200000;
    default:
      return 0x80000000ULL + (r / 4 % 4) * kHugePage2M;
  }
}

// A frame that likely holds tables: the first 64 of either pool.
Hpa PoolFrame(uint64_t r) {
  return ((r & 1) != 0 ? kGuestBase : kRootBase) + (r / 2 % 64) * kPageSize;
}

// A table word a walk is likely to read: the low PT entries, the PML4 slot
// of the 0x7f... range, the PD slots of the pools' GPAs, or any word.
Hpa TableWord(uint64_t r) {
  static constexpr uint64_t kHot[] = {0, 1, 2, 3, 8, 254, 256, 264};
  const uint64_t pick = r >> 8;
  const uint64_t index = pick % 3 == 0 ? pick / 3 % 512 : kHot[pick / 3 % 8] + pick / 24 % 8;
  return PoolFrame(r) + index % 512 * 8;
}

enum class Op {
  kTranslate, kTouch, kFetch, kCr3, kVmfunc, kMode, kNonRoot, kMap, kUnmap, kRemapGpa,
  kSetGpaExec, kUnmapGpa, kStore, kWrite, kZero, kShare, kRegion, kFree, kAlloc,
};

// Relative weights. Reads dominate, as in a real run, so recorded walks get
// replayed between the writes that invalidate them.
constexpr struct {
  Op op;
  uint64_t weight;
} kMix[] = {
    {Op::kTranslate, 60}, {Op::kTouch, 10},     {Op::kFetch, 5},      {Op::kCr3, 8},
    {Op::kVmfunc, 4},     {Op::kMode, 1},       {Op::kNonRoot, 1},    {Op::kMap, 2},
    {Op::kUnmap, 1},      {Op::kRemapGpa, 1},   {Op::kSetGpaExec, 1}, {Op::kUnmapGpa, 1},
    {Op::kStore, 1},      {Op::kWrite, 1},      {Op::kZero, 1},       {Op::kShare, 1},
    {Op::kRegion, 1},     {Op::kFree, 1},       {Op::kAlloc, 1},
};

Op PickOp(sb::Rng& rng) {
  uint64_t total = 0;
  for (const auto& entry : kMix) {
    total += entry.weight;
  }
  uint64_t roll = rng.Below(total);
  for (const auto& [op, weight] : kMix) {
    if (roll < weight) {
      return op;
    }
    roll -= weight;
  }
  return Op::kTranslate;  // Unreachable: roll < total.
}

// Applies `op` with random parameters `r` to `w` and reports the outcome.
// Both worlds of a pair see the same ops in the same states, so every
// choice below is the same in both.
Outcome Apply(World& w, Op op, const uint64_t r[3]) {
  Core& core = w.core();
  HostPhysMem& mem = w.mem();
  sb::Status status;
  Hpa hpa = 0;
  const Gva va = VaFor(r[0]) + (r[1] & (kPageSize - 1));
  switch (op) {
    case Op::kTranslate: {
      const auto result = core.Translate(va, (r[2] & 5) == 5, (r[2] & 2) != 0);
      status = result.status();
      hpa = result.ok() ? *result : 0;
      break;
    }
    case Op::kTouch:
      status = core.TouchData(va, r[2] % 6000 + 1, (r[2] & 1) != 0);
      break;
    case Op::kFetch:
      status = core.FetchCode(va, r[2] % 6000 + 1);
      break;
    case Op::kCr3: {
      const int which = static_cast<int>(r[1] & 1);
      core.WriteCr3(w.as[which]->root_gpa(), static_cast<uint16_t>(which + 1), (r[2] & 3) == 0);
      break;
    }
    case Op::kVmfunc:
      status = core.Vmfunc(0, static_cast<uint32_t>(r[1] % 4));
      break;
    case Op::kMode:
      core.SetMode((r[1] & 1) != 0 ? CpuMode::kUser : CpuMode::kKernel);
      break;
    case Op::kNonRoot:
      if (core.in_nonroot()) {
        core.LeaveNonRoot();
      } else {
        w.EnterViews();
      }
      break;
    case Op::kMap: {  // A 4K or a 2M page.
      PageFlags flags;
      flags.writable = (r[2] & 1) != 0;
      flags.user = (r[2] & 2) != 0;
      flags.global = (r[2] & 0x70) == 0;
      AddressSpace& as = *w.as[r[1] & 1];
      if ((r[2] & 8) != 0) {
        status = as.Map(sb::PageDown(va) & ~(kHugePage2M - 1),
                        64 * kMiB + (r[2] >> 7) % 8 * kHugePage2M, kHugePage2M, flags);
      } else {
        status = as.Map(sb::PageDown(va), w.data[(r[2] >> 7) % w.data.size()], kPageSize, flags);
      }
      break;
    }
    case Op::kUnmap:
      status = w.as[r[1] & 1]->Unmap(sb::PageDown(va));
      break;
    case Op::kRemapGpa:
      status = w.epts[1 + (r[1] & 1)]->RemapGpaPage(PoolFrame(r[2]), PoolFrame(r[2] >> 16));
      break;
    case Op::kSetGpaExec:
      status = w.epts[1 + (r[1] & 1)]->SetGpaPageExec(PoolFrame(r[2]), (r[2] & (1 << 20)) != 0);
      break;
    case Op::kUnmapGpa:
      status = w.epts[1 + (r[1] & 1)]->UnmapGpaPage(PoolFrame(r[2]));
      break;
    case Op::kStore: {  // A table word: its own value, or a flipped P/R/W/U/X bit.
      const Hpa word = TableWord(r[2]);
      const uint64_t flip = (r[1] & 3) == 3 ? 0 : uint64_t{1} << (r[1] & 3);
      mem.WriteU64(word, mem.ReadU64(word) ^ flip);
      break;
    }
    case Op::kWrite: {  // The same through the byte-range writer.
      const Hpa word = TableWord(r[2]);
      uint8_t bytes[24];
      mem.Read(word & ~uint64_t{7}, bytes);
      bytes[0] ^= static_cast<uint8_t>(r[1] & 6);
      mem.Write(word & ~uint64_t{7}, bytes);
      break;
    }
    case Op::kZero:
      mem.ZeroFrame(PoolFrame(r[2]));
      break;
    case Op::kShare: {  // Content-share a table frame, as it is or with a flipped bit.
      const Hpa frame = PoolFrame(r[2]);
      std::vector<uint8_t> page(kPageSize);
      mem.Read(frame, page);
      page[(r[1] >> 8) % 64 * 8] ^= static_cast<uint8_t>(r[1] & 2);
      mem.WriteShared(frame, page);
      break;
    }
    case Op::kRegion: {  // Make a table frame a one-page region, or scribble on one.
      // A region frame is never cached again, so regions stay few.
      const Hpa frame = PoolFrame(r[2]);
      if (r[1] % 8 == 0) {
        mem.BackContiguous(frame, kPageSize);
      } else if (uint8_t* host = mem.ContiguousSpan(frame, kPageSize)) {
        host[(r[1] >> 8) % 512 * 8] ^= 2;
      }
      break;
    }
    case Op::kFree: {  // Free a data frame; the next allocation may make it a table.
      const size_t i = r[1] % w.data.size();
      w.guest.Free(w.data[i]);
      w.data[i] = w.data.back();
      w.data.pop_back();
      break;
    }
    case Op::kAlloc: {
      const auto frame = w.guest.Alloc(mem);
      status = frame.status();
      if (frame.ok()) {
        w.data.push_back(*frame);
      }
      break;
    }
  }
  if (w.data.empty()) {
    w.data.push_back(w.guest.Alloc(mem).value());
  }
  return Outcome{status.code(),
                 hpa,
                 core.cycles(),
                 core.ledger(),
                 core.pmu(),
                 w.machine.telemetry().Value("hw.vmexit.total")};
}

// The twin's cache never replays: every walk reads its EPT root (non-root)
// or its CR3 page (native), so writing each of those back with its own
// value bumps the walk epoch whenever any entry is valid.
void DefeatWalkCache(World& w) {
  std::vector<Hpa> roots = {w.as[0]->root_gpa(), w.as[1]->root_gpa()};
  for (const auto& ept : w.epts) {
    roots.push_back(ept->root());
  }
  for (const Hpa frame : roots) {
    w.mem().WriteU64(frame, w.mem().ReadU64(frame));
  }
}

class WalkCacheDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WalkCacheDifferential, ReplaysMatchWalksOpForOp) {
  constexpr uint64_t kOps = 20000;
  World cached;
  World walked;
  sb::Rng rng(GetParam());
  uint64_t replays = 0;  // Translate ops that missed the TLB and had an entry.
  for (uint64_t step = 0; step < kOps; ++step) {
    const Op op = PickOp(rng);
    const uint64_t r[3] = {rng.Next(), rng.Next(), rng.Next()};
    DefeatWalkCache(walked);
    const Gva va = VaFor(r[0]);
    const bool ifetch = op == Op::kFetch || (op == Op::kTranslate && (r[2] & 5) == 5);
    const bool valid = cached.Entry(va, ifetch) != nullptr;
    const uint64_t misses = cached.core().pmu().dtlb_miss + cached.core().pmu().itlb_miss;
    ASSERT_EQ(walked.Entry(va, ifetch), nullptr);
    const Outcome a = Apply(cached, op, r);
    const Outcome b = Apply(walked, op, r);
    ASSERT_NO_FATAL_FAILURE(a.ExpectEq(b, step));
    if (op == Op::kTranslate && valid && a.pmu.dtlb_miss + a.pmu.itlb_miss > misses) {
      ++replays;
    }
  }
  // The run must exercise replays, not only fresh walks.
  EXPECT_GT(replays, kOps / 40);
  EXPECT_GT(walked.mem().walk_epoch(), cached.mem().walk_epoch());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkCacheDifferential, ::testing::Values(1, 90210, 0x5eed));

// ---- One staleness test per writer ----

// A world with kVa mapped to data[0], walked once natively so the walk is
// recorded, and the TLB flushed again.
struct Walked : World {
  Walked() {
    SB_CHECK(as[0]->Map(kVa, data[0], kPageSize, PageFlags{}).ok());
    SB_CHECK(core().Translate(kVa, false, false).ok());
    FlushTlb();
    SB_CHECK(Entry(kVa, false) != nullptr);
  }
  // The guest leaf entry of kVa.
  Hpa LeafAddr() {
    Gpa table = as[0]->root_gpa();
    for (int level = 4; level > 1; --level) {
      const uint64_t index = (kVa >> (12 + 9 * (level - 1))) & 0x1ff;
      table = mem().ReadU64(table + index * 8) & kPteFrameMask;
    }
    return table + ((kVa >> 12) & 0x1ff) * 8;
  }
};

TEST(WalkCacheStaleness, ScalarStoreToAWalkedTable) {
  Walked w;
  w.mem().WriteU64(w.LeafAddr(), (w.data[1] & kPteFrameMask) | kPtePresent | kPteWrite);
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(*w.core().Translate(kVa, false, false), w.data[1]);
}

TEST(WalkCacheStaleness, ByteRangeWriteToAWalkedTable) {
  Walked w;
  const uint64_t pte = 0;
  w.mem().Write(w.LeafAddr(), std::span<const uint8_t>(
                                  reinterpret_cast<const uint8_t*>(&pte), sizeof(pte)));
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(w.core().Translate(kVa, false, false).status().code(), sb::ErrorCode::kNotFound);
}

TEST(WalkCacheStaleness, WriteSharedOverAWalkedTable) {
  Walked w;
  const Hpa leaf = w.LeafAddr();
  std::vector<uint8_t> page(kPageSize);
  w.mem().Read(sb::PageDown(leaf), page);
  const uint64_t pte = (w.data[1] & kPteFrameMask) | kPtePresent;
  std::memcpy(&page[leaf & (kPageSize - 1)], &pte, sizeof(pte));
  w.mem().WriteShared(sb::PageDown(leaf), page);
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(*w.core().Translate(kVa, false, false), w.data[1]);
  // The walk read a shared frame, so it was not recorded.
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(w.core().Translate(kVa, false, true).status().code(),
            sb::ErrorCode::kPermissionDenied);
}

TEST(WalkCacheStaleness, ZeroFrameOfAWalkedTable) {
  Walked w;
  w.mem().ZeroFrame(sb::PageDown(w.LeafAddr()));
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(w.core().Translate(kVa, false, false).status().code(), sb::ErrorCode::kNotFound);
}

TEST(WalkCacheStaleness, FreedAndReallocatedTableFrame) {
  Walked w;
  const Hpa table = sb::PageDown(w.LeafAddr());
  w.guest.Free(table);
  EXPECT_EQ(w.guest.Alloc(w.mem()).value(), table);  // Alloc zeroes the frame.
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(w.core().Translate(kVa, false, false).status().code(), sb::ErrorCode::kNotFound);
}

// A region's ContiguousSpan writes bypass every writer, so turning a walked
// frame into a region invalidates it and its walks are never recorded again.
TEST(WalkCacheStaleness, BackContiguousOverAWalkedTable) {
  Walked w;
  const Hpa leaf = w.LeafAddr();
  w.mem().BackContiguous(sb::PageDown(leaf), kPageSize);
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(*w.core().Translate(kVa, false, false), w.data[0]);
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  w.FlushTlb();
  const uint64_t pte = (w.data[1] & kPteFrameMask) | kPtePresent;
  std::memcpy(w.mem().ContiguousSpan(leaf, sizeof(pte)), &pte, sizeof(pte));
  EXPECT_EQ(*w.core().Translate(kVa, false, false), w.data[1]);
}

// A not-present walk is recorded as a negative entry, replayed as the same
// fault, and stops matching once the page is mapped.
TEST(WalkCacheStaleness, NegativeEntryFlipsWhenThePageIsMapped) {
  World w;
  Core& core = w.core();
  ASSERT_TRUE(w.as[0]->Map(kVa + kPageSize, w.data[1], kPageSize, PageFlags{}).ok());
  EXPECT_EQ(core.Translate(kVa, false, false).status().code(), sb::ErrorCode::kNotFound);
  const WalkEntry* negative = w.Entry(kVa, false);
  ASSERT_NE(negative, nullptr);
  EXPECT_EQ(negative->page_shift, 0);
  const uint64_t before = core.cycles();
  EXPECT_EQ(core.Translate(kVa, false, false).status().code(), sb::ErrorCode::kNotFound);
  EXPECT_GT(core.cycles(), before);  // The replay charges the walk's reads.

  ASSERT_TRUE(w.as[0]->Map(kVa, w.data[0], kPageSize, PageFlags{}).ok());
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  EXPECT_EQ(*core.Translate(kVa, false, false), w.data[0]);
}

// A walk that took an EPT violation is not recorded, since the exit may
// change any table; the same walk without the violation is. The data page
// sits in a 1 GiB EPT page of its own, so the guest levels keep their short
// 1 GiB EPT walks and the whole walk, both attempts included, fits an entry.
TEST(WalkCacheStaleness, EptViolationWalkIsNeverRecorded) {
  World w;
  Core& core = w.core();
  const Gpa page = kGiB + 64 * kMiB;
  ASSERT_TRUE(w.as[0]->Map(kVa, page, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE(w.epts[1]->UnmapGpaPage(page).ok());
  w.EnterViews();
  core.WriteCr3(w.as[0]->root_gpa(), 1, false);
  EXPECT_EQ(*core.Translate(kVa, false, false), page);
  EXPECT_EQ(core.pmu().vm_exits, 1u);
  EXPECT_EQ(w.Entry(kVa, false), nullptr);
  w.FlushTlb();
  EXPECT_EQ(*core.Translate(kVa, false, false), page);
  EXPECT_EQ(core.pmu().vm_exits, 1u);
  EXPECT_NE(w.Entry(kVa, false), nullptr);
}

}  // namespace
}  // namespace hw
