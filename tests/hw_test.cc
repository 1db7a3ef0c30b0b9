// Hardware-model tests: physical memory, caches, TLB tagging, EPT walks,
// guest paging and — most importantly — the end-to-end CR3-remap behaviour
// that SkyBridge's VMFUNC address-space switch relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/hw/cache.h"
#include "src/hw/ept.h"
#include "src/hw/machine.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tlb.h"

namespace hw {
namespace {

using sb::kGiB;
using sb::kMiB;
using sb::kPageSize;

MachineConfig MachineWith(int num_cores, uint64_t ram_bytes) {
  MachineConfig config;
  config.num_cores = num_cores;
  config.ram_bytes = ram_bytes;
  return config;
}

TEST(HostPhysMem, ReadWriteRoundTrip) {
  HostPhysMem mem(16 * kMiB);
  mem.WriteU64(0x1000, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(mem.ReadU64(0x1000), 0xdeadbeefcafef00dULL);
}

TEST(HostPhysMem, UntouchedReadsZero) {
  HostPhysMem mem(16 * kMiB);
  EXPECT_EQ(mem.ReadU64(0x5000), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);
}

TEST(HostPhysMem, CrossFrameAccess) {
  HostPhysMem mem(16 * kMiB);
  std::vector<uint8_t> data(kPageSize * 2, 0xab);
  mem.Write(0x800, data);
  std::vector<uint8_t> out(data.size());
  mem.Read(0x800, out);
  EXPECT_EQ(out, data);
}

TEST(FrameAllocator, AllocatesDistinctZeroedFrames) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 1 * kMiB);
  auto f1 = alloc.Alloc(mem);
  auto f2 = alloc.Alloc(mem);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(*f1, *f2);
  EXPECT_EQ(mem.ReadU64(*f1), 0u);
  EXPECT_EQ(alloc.allocated_frames(), 2u);
}

TEST(FrameAllocator, ExhaustsAndRecycles) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 2 * kPageSize);
  auto f1 = alloc.Alloc(mem);
  auto f2 = alloc.Alloc(mem);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_FALSE(alloc.Alloc(mem).ok());
  alloc.Free(*f1);
  auto f3 = alloc.Alloc(mem);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(*f3, *f1);
}

TEST(FrameAllocator, FreedRunComesBackFromTheNextSameSizeAllocContiguous) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 16 * kPageSize);
  auto single = alloc.Alloc(mem);
  ASSERT_TRUE(single.ok());
  auto run = alloc.AllocContiguous(mem, 4);
  ASSERT_TRUE(run.ok());
  for (uint64_t i = 0; i < 4; ++i) {
    mem.WriteU64(*run + i * kPageSize + 8, 0xdead0000 + i);
  }
  alloc.FreeContiguous(*run, 4);
  alloc.Free(*single);  // Freed last; it sits below the run, so it does not extend it.
  EXPECT_EQ(alloc.allocated_frames(), 0u);

  // A longer run than any freed one takes fresh frames.
  auto fresh = alloc.AllocContiguous(mem, 5);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, *run + 4 * kPageSize);
  auto again = alloc.AllocContiguous(mem, 4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *run);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mem.ReadU64(*again + i * kPageSize + 8), 0u) << "frame " << i;
  }
  EXPECT_EQ(alloc.allocated_frames(), 9u);
  // The run left the free list: the single frame is all that is left on it.
  auto last = alloc.Alloc(mem);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, *single);
}

TEST(Cache, HitAfterMiss) {
  Cache cache(L1dConfig());
  EXPECT_FALSE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1000));
  EXPECT_TRUE(cache.Access(0x1020));  // Another offset in the same 64 B line.
  EXPECT_FALSE(cache.Access(0x1040));  // The next line.
}

TEST(Cache, LruEviction) {
  // 2-way tiny cache: lines mapping to the same set evict LRU order.
  CacheConfig config{"tiny", 2 * 64, 2};  // 1 set, 2 ways.
  Cache cache(config);
  EXPECT_FALSE(cache.Access(0x0));
  EXPECT_FALSE(cache.Access(0x40));
  EXPECT_TRUE(cache.Access(0x0));    // 0x40 is now LRU.
  EXPECT_FALSE(cache.Access(0x80));  // Evicts 0x40.
  EXPECT_FALSE(cache.Access(0x40));
  EXPECT_TRUE(cache.Probe(0x40));
}

TEST(Cache, FlushClears) {
  Cache cache(L1dConfig());
  cache.Access(0x1000);
  cache.Flush();
  EXPECT_FALSE(cache.Probe(0x1000));
}

TEST(Cache, AddressLimitKeepsEveryKeyNonzeroAnd32Bit) {
  // L1: 64 sets of 64-byte lines, so the tag is HPA >> 12.
  EXPECT_EQ(Cache::AddressLimit(L1dConfig()), uint64_t{UINT32_MAX} << 12);
  EXPECT_EQ(Cache::AddressLimit(L3Config()), uint64_t{UINT32_MAX} << 19);
  // The highest line of set 0 below the limit and line 0 keep their keys.
  Cache cache(L1dConfig());
  const uint64_t top = Cache::AddressLimit(L1dConfig()) - 4096;
  EXPECT_FALSE(cache.Access(top));
  EXPECT_FALSE(cache.Probe(0));
  EXPECT_FALSE(cache.Access(0));
  EXPECT_TRUE(cache.Probe(top));
}

// The caches' 32-bit line keys bound the RAM. The check runs before any
// member of the machine allocates, so the frame table of a 16 TiB RAM is
// never built.
TEST(MachineDeathTest, RamAtTheCacheKeyBoundIsRefused) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MachineConfig config;
  config.num_cores = 1;
  config.ram_bytes = Cache::AddressLimit(L1dConfig()) + 1;
  EXPECT_DEATH(Machine machine(config), "RAM too large");
}

TEST(Tlb, HitRequiresMatchingTags) {
  Tlb tlb(16);
  TlbEntry e{0x5000, false, true};
  tlb.Insert(0x400000, 12, /*vpid=*/1, /*pcid=*/2, /*ep4ta=*/0x9000, e);
  uint8_t shift = 0;
  EXPECT_NE(tlb.Lookup(0x400123, 1, 2, 0x9000, &shift), nullptr);
  EXPECT_EQ(shift, 12);
  // Different EP4TA: miss (this is why VMFUNC needs no flush).
  EXPECT_EQ(tlb.Lookup(0x400123, 1, 2, 0xa000, &shift), nullptr);
  // Different PCID: miss for non-global entries.
  EXPECT_EQ(tlb.Lookup(0x400123, 1, 3, 0x9000, &shift), nullptr);
}

TEST(Tlb, GlobalEntriesMatchAnyPcid) {
  Tlb tlb(16);
  TlbEntry e{0x5000, /*global=*/true, true};
  tlb.Insert(0xffff800000000000ULL, 12, 1, /*pcid=*/7, 0, e);
  uint8_t shift = 0;
  EXPECT_NE(tlb.Lookup(0xffff800000000123ULL, 1, /*pcid=*/9, 0, &shift), nullptr);
}

TEST(Tlb, FlushPcidSparesGlobals) {
  Tlb tlb(16);
  tlb.Insert(0x400000, 12, 1, 2, 0, TlbEntry{0x5000, false, true});
  tlb.Insert(0xffff800000000000ULL, 12, 1, 2, 0, TlbEntry{0x6000, true, true});
  tlb.FlushPcid(1, 2);
  uint8_t shift = 0;
  EXPECT_EQ(tlb.Lookup(0x400000, 1, 2, 0, &shift), nullptr);
  EXPECT_NE(tlb.Lookup(0xffff800000000000ULL, 1, 2, 0, &shift), nullptr);
}

TEST(Tlb, LruCapacity) {
  Tlb tlb(2);
  tlb.Insert(0x1000, 12, 1, 0, 0, TlbEntry{});
  tlb.Insert(0x2000, 12, 1, 0, 0, TlbEntry{});
  uint8_t shift = 0;
  EXPECT_NE(tlb.Lookup(0x1000, 1, 0, 0, &shift), nullptr);  // Touch 0x1000.
  tlb.Insert(0x3000, 12, 1, 0, 0, TlbEntry{});              // Evicts 0x2000.
  EXPECT_NE(tlb.Lookup(0x1000, 1, 0, 0, &shift), nullptr);
  EXPECT_EQ(tlb.Lookup(0x2000, 1, 0, 0, &shift), nullptr);
}

// ---- Differential tests against the straightforward models ----
//
// The TLB and cache keep a packed host representation; these reference
// models are the plain list-plus-map TLB and struct-of-lines cache with the
// same replacement rules. Seeded random streams must produce the same hit,
// entry, page size and eviction decisions from both.

struct RefTlbKeyHash {
  size_t operator()(const TlbKey& k) const {
    return std::hash<uint64_t>()(k.vpn * 0x9e3779b97f4a7c15ULL ^ (uint64_t{k.page_shift} << 56) ^
                                 (uint64_t{k.vpid} << 40) ^ (uint64_t{k.pcid} << 24) ^ k.ep4ta);
  }
};

class ReferenceTlb {
 public:
  explicit ReferenceTlb(size_t capacity) : capacity_(capacity) {}

  const TlbEntry* Lookup(Gva gva, uint16_t vpid, uint16_t pcid, Hpa ep4ta, uint8_t* page_shift) {
    for (uint8_t shift : {uint8_t{12}, uint8_t{21}, uint8_t{30}}) {
      TlbKey key{gva >> shift, shift, vpid, pcid, ep4ta};
      auto it = map_.find(key);
      if (it == map_.end() && shift != 12) {
        key.pcid = 0;
        it = map_.find(key);
        if (it != map_.end() && !it->second->entry.global) {
          it = map_.end();
        }
      }
      if (it != map_.end()) {
        return Hit(it->second, shift, page_shift);
      }
    }
    if (pcid != 0) {
      auto it = map_.find(TlbKey{gva >> 12, 12, vpid, 0, ep4ta});
      if (it != map_.end() && it->second->entry.global) {
        return Hit(it->second, 12, page_shift);
      }
    }
    return nullptr;
  }

  void Insert(Gva gva, uint8_t page_shift, uint16_t vpid, uint16_t pcid, Hpa ep4ta,
              const TlbEntry& entry) {
    const TlbKey key{gva >> page_shift, page_shift, vpid, entry.global ? uint16_t{0} : pcid,
                     ep4ta};
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->entry = entry;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
    lru_.push_front(Node{key, entry});
    map_.emplace(key, lru_.begin());
  }

  void FlushPcid(uint16_t vpid, uint16_t pcid) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->key.vpid == vpid && it->key.pcid == pcid && !it->entry.global) {
        map_.erase(it->key);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  size_t size() const { return map_.size(); }

 private:
  struct Node {
    TlbKey key;
    TlbEntry entry;
  };
  using LruList = std::list<Node>;

  const TlbEntry* Hit(LruList::iterator it, uint8_t shift, uint8_t* page_shift) {
    lru_.splice(lru_.begin(), lru_, it);
    *page_shift = shift;
    return &it->entry;
  }

  size_t capacity_;
  LruList lru_;
  std::unordered_map<TlbKey, LruList::iterator, RefTlbKeyHash> map_;
};

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config),
        num_sets_(config.size_bytes / kCacheLineBytes / config.ways),
        lines_(config.size_bytes / kCacheLineBytes) {}

  bool Access(Hpa paddr) {
    Line* base = &lines_[(paddr / kCacheLineBytes) % num_sets_ * config_.ways];
    const uint64_t tag = paddr / kCacheLineBytes / num_sets_;
    ++tick_;
    Line* victim = base;
    for (uint32_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = tick_;
        return true;
      }
      if (!line.valid) {
        victim = &line;
      } else if (victim->valid && line.lru < victim->lru) {
        victim = &line;
      }
    }
    evictions_ += victim->valid ? 1 : 0;
    *victim = Line{true, tag, tick_};
    return false;
  }

  void Flush() { lines_.assign(lines_.size(), Line{}); }

  // Misses that replaced a valid line.
  uint64_t evictions() const { return evictions_; }

 private:
  struct Line {
    bool valid = false;
    uint64_t tag = 0;
    uint64_t lru = 0;
  };

  CacheConfig config_;
  uint64_t num_sets_;
  std::vector<Line> lines_;
  uint64_t tick_ = 0;
  uint64_t evictions_ = 0;
};

void RunTlbDifferential(size_t capacity, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed " << seed);
  sb::Rng rng(seed);
  Tlb tlb(capacity);
  ReferenceTlb ref(capacity);
  // Enough distinct pages to overflow the TLB, few enough to hit often.
  const uint64_t pages = capacity + capacity / 4 + 4;
  const Hpa ep4tas[] = {0, 0x9000, 0xa000};
  const int ops = capacity > 64 ? 60000 : 20000;
  bool filled = false;
  uint64_t hits = 0;
  for (int op = 0; op < ops; ++op) {
    // Pages spread over four 1 GiB regions, region 0 the most used.
    Gva gva = rng.OneIn(2) ? rng.Below(4) << 30 : 0;
    gva += rng.Below(pages) << 12;
    gva += rng.Below(sb::kPageSize);
    const uint16_t vpid = static_cast<uint16_t>(1 + rng.Below(2));
    const uint16_t pcid = static_cast<uint16_t>(rng.Below(3));
    const Hpa ep4ta = ep4tas[rng.Below(3)];
    const uint64_t kind = rng.Below(100);
    if (kind < 50) {
      uint8_t shift = 0;
      uint8_t ref_shift = 0;
      const TlbEntry* got = tlb.Lookup(gva, vpid, pcid, ep4ta, &shift);
      const TlbEntry* want = ref.Lookup(gva, vpid, pcid, ep4ta, &ref_shift);
      ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
      if (want != nullptr) {
        ++hits;
        ASSERT_EQ(shift, ref_shift) << "op " << op;
        ASSERT_EQ(got->frame, want->frame) << "op " << op;
        ASSERT_EQ(got->global, want->global) << "op " << op;
        ASSERT_EQ(got->writable, want->writable) << "op " << op;
      }
    } else if (kind < 99 || capacity > 64) {
      const uint64_t size_pick = rng.Below(10);
      const uint8_t shift = size_pick < 7 ? 12 : (size_pick < 9 ? 21 : 30);
      const TlbEntry entry{rng.Below(1 << 20) << 12, rng.OneIn(5), rng.OneIn(2)};
      tlb.Insert(gva, shift, vpid, pcid, ep4ta, entry);
      ref.Insert(gva, shift, vpid, pcid, ep4ta, entry);
    } else {
      tlb.FlushPcid(vpid, pcid);
      ref.FlushPcid(vpid, pcid);
    }
    if (capacity > 64 && op % 5000 == 4999) {
      tlb.FlushPcid(vpid, pcid);
      ref.FlushPcid(vpid, pcid);
    }
    ASSERT_EQ(tlb.size(), ref.size()) << "op " << op;
    filled = filled || tlb.size() == capacity;
  }
  EXPECT_TRUE(filled) << "the stream never reached capacity, so nothing was evicted";
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(tlb.hits(), hits);
}

TEST(TlbDifferential, MatchesReferenceModel) {
  for (const size_t capacity : {size_t{1}, size_t{2}, size_t{7}, size_t{1536}}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      RunTlbDifferential(capacity, seed);
    }
  }
}

TEST(CacheDifferential, MatchesReferenceModel) {
  const CacheConfig configs[] = {
      {"1x2", 2 * 64, 2},
      {"4x3", 12 * 64, 3},
      {"64x16", 64 * 16 * 64, 16},
      L1dConfig(),
      L2Config(),
      L3Config(),
  };
  for (const CacheConfig& config : configs) {
    for (const uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << config.name << " seed " << seed);
      sb::Rng rng(seed);
      Cache cache(config);
      ReferenceCache ref(config);
      const uint64_t lines = config.size_bytes / kCacheLineBytes;
      // Enough accesses, and few enough flushes, for the L3's 8,192 sets to
      // fill and evict.
      const uint64_t ops = std::max<uint64_t>(50000, 4 * lines);
      const uint64_t flush_odds = std::max<uint64_t>(5000, 2 * lines);
      uint64_t hits = 0;
      for (uint64_t op = 0; op < ops; ++op) {
        if (rng.OneIn(flush_odds)) {
          cache.Flush();
          ref.Flush();
          continue;
        }
        // A pool 1.5x the cache's lines, at a random offset within the line.
        Hpa paddr = rng.Below(lines + lines / 2 + 1) * kCacheLineBytes;
        paddr += rng.Below(kCacheLineBytes);
        paddr += rng.OneIn(4) ? 0x40000000 : 0;
        const bool hit = cache.Access(paddr);
        ASSERT_EQ(hit, ref.Access(paddr)) << "op " << op;
        ASSERT_TRUE(cache.Probe(paddr));
        hits += hit ? 1 : 0;
      }
      EXPECT_GT(hits, 0u);
      EXPECT_GT(ref.evictions(), 0u);
    }
  }
}

class EptTest : public ::testing::Test {
 protected:
  EptTest() : mem_(1 * kGiB), frames_(256 * kMiB, 128 * kMiB) {}

  HostPhysMem mem_;
  FrameAllocator frames_;
};

TEST_F(EptTest, MapAndWalk4K) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0x1000, 0x555000, kPageSize, kEptRwx).ok());
  const EptWalk walk = (*ept)->Walk(0x1234, kEptRead);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.hpa, 0x555234u);
  EXPECT_EQ(walk.num_table_reads, 4);
}

TEST_F(EptTest, WalkFaultsOnUnmapped) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  const EptWalk walk = (*ept)->Walk(0x99999000, kEptRead);
  EXPECT_FALSE(walk.ok);
  EXPECT_EQ(walk.fault_gpa, 0x99999000u);
}

TEST_F(EptTest, HugePage1GWalkIsShort) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  const EptWalk walk = (*ept)->Walk(0x12345678, kEptRead);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.hpa, 0x12345678u);
  EXPECT_EQ(walk.num_table_reads, 2);  // PML4E + PDPTE(1G leaf).
  EXPECT_EQ(walk.page_shift, 30);
}

TEST_F(EptTest, RejectsDoubleMap) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0x1000, 0x2000, kPageSize, kEptRwx).ok());
  EXPECT_FALSE((*ept)->Map(0x1000, 0x3000, kPageSize, kEptRwx).ok());
}

TEST_F(EptTest, ShallowCopySharesMappings) {
  auto base = Ept::Create(mem_, frames_);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto copy = (*base)->ShallowCopy();
  ASSERT_TRUE(copy.ok());
  const EptWalk walk = (*copy)->Walk(0x777000, kEptRead);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.hpa, 0x777000u);
  EXPECT_EQ((*copy)->private_table_pages(), 1u);  // Just the new root.
}

TEST_F(EptTest, RemapGpaPageSplitsHugePagesAndIsolates) {
  auto base = Ept::Create(mem_, frames_);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto derived = (*base)->ShallowCopy();
  ASSERT_TRUE(derived.ok());

  ASSERT_TRUE((*derived)->RemapGpaPage(0x123000, 0x9000000).ok());
  // The derived EPT translates the remapped page differently...
  const EptWalk dwalk = (*derived)->Walk(0x123456, kEptRead);
  ASSERT_TRUE(dwalk.ok);
  EXPECT_EQ(dwalk.hpa, 0x9000456u);
  // ...while neighbours and the base EPT are untouched.
  EXPECT_EQ((*derived)->Walk(0x124000, kEptRead).hpa, 0x124000u);
  EXPECT_EQ((*base)->Walk(0x123456, kEptRead).hpa, 0x123456u);
  // Paper Section 4.3: only four pages are modified for the remap.
  EXPECT_EQ((*derived)->private_table_pages(), 4u);
}

TEST_F(EptTest, UnmapGpaPageFaults) {
  auto ept = Ept::Create(mem_, frames_);
  ASSERT_TRUE(ept.ok());
  ASSERT_TRUE((*ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  ASSERT_TRUE((*ept)->UnmapGpaPage(0x5000).ok());
  EXPECT_FALSE((*ept)->Walk(0x5123, kEptRead).ok);
  EXPECT_TRUE((*ept)->Walk(0x6123, kEptRead).ok);
}

class PagingTest : public ::testing::Test {
 protected:
  PagingTest() : mem_(1 * kGiB), frames_(64 * kMiB, 64 * kMiB) {}

  HostPhysMem mem_;
  FrameAllocator frames_;
};

TEST_F(PagingTest, MapAndWalk) {
  auto as = AddressSpace::Create(mem_, frames_, /*pcid=*/1);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE((*as)->Map(0x400000, 0x800000, kPageSize, PageFlags{}).ok());
  const GuestWalk walk = (*as)->WalkVa(0x400123);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.gpa, 0x800123u);
}

TEST_F(PagingTest, MapAnonymousBacksRange) {
  auto as = AddressSpace::Create(mem_, frames_, 1);
  ASSERT_TRUE(as.ok());
  auto first = (*as)->MapAnonymous(0x600000, 3 * kPageSize, PageFlags{});
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    const GuestWalk walk = (*as)->WalkVa(0x600000 + static_cast<uint64_t>(i) * kPageSize);
    ASSERT_TRUE(walk.ok);
    EXPECT_EQ(walk.gpa, *first + static_cast<uint64_t>(i) * kPageSize);
  }
}

TEST_F(PagingTest, UnmapFaults) {
  auto as = AddressSpace::Create(mem_, frames_, 1);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE((*as)->Map(0x400000, 0x800000, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE((*as)->Unmap(0x400000).ok());
  EXPECT_FALSE((*as)->WalkVa(0x400000).ok);
}

TEST_F(PagingTest, ShareUpperHalf) {
  auto kernel = AddressSpace::Create(mem_, frames_, 0);
  ASSERT_TRUE(kernel.ok());
  const Gva kva = 0xffff800000000000ULL;
  ASSERT_TRUE(
      (*kernel)->Map(kva, 0x800000, kPageSize, PageFlags{true, false, true, true}).ok());
  auto proc = AddressSpace::Create(mem_, frames_, 1);
  ASSERT_TRUE(proc.ok());
  ASSERT_TRUE((*proc)->ShareUpperHalf(**kernel).ok());
  const GuestWalk walk = (*proc)->WalkVa(kva);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.gpa, 0x800000u);
}

// ---- The core SkyBridge mechanism, end to end on the hardware model ----

class CoreTranslationTest : public ::testing::Test {
 protected:
  CoreTranslationTest()
      : machine_(MachineWith(1, 2 * kGiB)),
        guest_frames_(16 * kMiB, 512 * kMiB),
        root_frames_(1536 * kMiB, 100 * kMiB) {}

  Machine machine_;
  FrameAllocator guest_frames_;
  FrameAllocator root_frames_;
};

TEST_F(CoreTranslationTest, NativeModeTranslatesThroughGuestPt) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());
  machine_.mem().WriteU64(*frame + 0x10, 0x1122334455667788ULL);

  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  auto value = core.ReadVirtU64(0x400010);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0x1122334455667788ULL);
}

TEST_F(CoreTranslationTest, TlbCachesTranslations) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());

  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  ASSERT_TRUE(core.ReadVirtU64(0x400000).ok());
  const uint64_t misses = core.pmu().dtlb_miss;
  ASSERT_TRUE(core.ReadVirtU64(0x400008).ok());
  EXPECT_EQ(core.pmu().dtlb_miss, misses);  // Second access hits the TLB.
}

TEST_F(CoreTranslationTest, PageFaultOnUnmapped) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  EXPECT_FALSE(core.ReadVirtU64(0x400000).ok());
}

TEST_F(CoreTranslationTest, WriteProtectionEnforced) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  PageFlags ro;
  ro.writable = false;
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, ro).ok());
  Core& core = machine_.core(0);
  core.WriteCr3((*as)->root_gpa(), 1, false);
  EXPECT_TRUE(core.ReadVirtU64(0x400000).ok());
  EXPECT_FALSE(core.WriteVirtU64(0x400000, 1).ok());
}

// The SkyBridge trick: after VMFUNC to an EPT that remaps the GPA of the
// client's CR3 to the server's page-table root, the same CR3 value translates
// virtual addresses in the *server's* address space.
TEST_F(CoreTranslationTest, Cr3RemapSwitchesAddressSpaceViaVmfunc) {
  HostPhysMem& mem = machine_.mem();

  // Two processes mapping the same VA to different values.
  auto client_as = AddressSpace::Create(mem, guest_frames_, 1);
  auto server_as = AddressSpace::Create(mem, guest_frames_, 2);
  ASSERT_TRUE(client_as.ok());
  ASSERT_TRUE(server_as.ok());
  const Gva va = 0x400000;
  auto cframe = guest_frames_.Alloc(mem);
  auto sframe = guest_frames_.Alloc(mem);
  ASSERT_TRUE(cframe.ok());
  ASSERT_TRUE(sframe.ok());
  ASSERT_TRUE((*client_as)->Map(va, *cframe, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE((*server_as)->Map(va, *sframe, kPageSize, PageFlags{}).ok());
  mem.WriteU64(*cframe, 0xc11e47ULL);
  mem.WriteU64(*sframe, 0x5e77e7ULL);

  // Rootkernel-style base EPT: identity map with 1G pages.
  auto base_ept = Ept::Create(mem, root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  ASSERT_TRUE((*base_ept)->Map(kGiB, kGiB, sb::kHugePage1G, kEptRwx).ok());

  // Client EPT: plain copy. Server EPT: copy + CR3 remap.
  auto client_ept = (*base_ept)->ShallowCopy();
  auto server_ept = (*base_ept)->ShallowCopy();
  ASSERT_TRUE(client_ept.ok());
  ASSERT_TRUE(server_ept.ok());
  ASSERT_TRUE(
      (*server_ept)->RemapGpaPage((*client_as)->root_gpa(), (*server_as)->root_gpa()).ok());

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(client_ept->get(), /*vpid=*/1);
  core.vmcs().eptp_list.push_back(server_ept->get());
  core.WriteCr3((*client_as)->root_gpa(), 1, false);

  // In the client's EPT the VA reads the client's value.
  auto v1 = core.ReadVirtU64(va);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 0xc11e47ULL);

  // VMFUNC(0, 1): switch to the server EPT. CR3 is untouched, yet the same
  // VA now reads the server's value — the page walker fetched the *server's*
  // page tables through the remapped EPT.
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  EXPECT_EQ(core.cr3(), (*client_as)->root_gpa());
  auto v2 = core.ReadVirtU64(va);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 0x5e77e7ULL);

  // And back.
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());
  auto v3 = core.ReadVirtU64(va);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 0xc11e47ULL);

  // No VM exits were needed for any of this.
  EXPECT_EQ(machine_.telemetry().Value("hw.vmexit.total"), 0u);
}

TEST_F(CoreTranslationTest, InvalidVmfuncIndexCausesVmExit) {
  auto base_ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  Core& core = machine_.core(0);
  int exits = 0;
  machine_.SetVmExitHandler([&](Core&, const VmExitInfo& info) -> uint64_t {
    EXPECT_EQ(info.reason, VmExitReason::kVmfuncInvalid);
    ++exits;
    return 0;
  });
  core.EnterNonRoot(base_ept->get(), 1);
  EXPECT_FALSE(core.Vmfunc(0, 7).ok());
  EXPECT_EQ(exits, 1);
}

TEST_F(CoreTranslationTest, VmfuncChargesDocumentedCost) {
  auto base_ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  Core& core = machine_.core(0);
  core.EnterNonRoot(base_ept->get(), 1);
  const uint64_t before = core.cycles();
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());
  EXPECT_EQ(core.cycles() - before, machine_.costs().vmfunc);
}

TEST_F(CoreTranslationTest, VmfuncOutsideNonRootFails) {
  Core& core = machine_.core(0);
  EXPECT_FALSE(core.Vmfunc(0, 0).ok());
}

TEST_F(CoreTranslationTest, TwoDimensionalWalkChargesEptReads) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());

  auto base_ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(base_ept->get(), 1);
  core.WriteCr3((*as)->root_gpa(), 1, false);

  const uint64_t before = core.pmu().mem_accesses;
  ASSERT_TRUE(core.ReadVirtU64(0x400000).ok());
  // 2-D walk with 1G EPT pages: 4 guest levels x (2 EPT reads + 1 PTE read)
  // + 2 EPT reads for the final GPA + 1 data access = 15.
  EXPECT_EQ(core.pmu().mem_accesses - before, 15u);
}

// Paper Section 4.1: "one TLB miss in the 2-level address translation may
// require at most 24 memory accesses". With 4 KiB EPT pages, our walker hits
// exactly that bound: 4 guest levels x (4 EPT reads + 1 PTE read) + 4 EPT
// reads for the final GPA = 24, plus the data access itself.
TEST_F(CoreTranslationTest, TwoDimensionalWalkWorstCaseIs24Accesses) {
  auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
  ASSERT_TRUE(as.ok());
  auto frame = guest_frames_.Alloc(machine_.mem());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE((*as)->Map(0x400000, *frame, kPageSize, PageFlags{}).ok());

  // Build a 4 KiB-page EPT covering the guest range (no huge pages).
  auto ept = Ept::Create(machine_.mem(), root_frames_);
  ASSERT_TRUE(ept.ok());
  auto map_page = [&](Gpa gpa) {
    ASSERT_TRUE((*ept)->Map(sb::PageDown(gpa), sb::PageDown(gpa), kPageSize, kEptRwx).ok());
  };
  // Map the pages the walk will touch: the four guest table pages + target.
  const GuestWalk walk = (*as)->WalkVa(0x400000);
  ASSERT_TRUE(walk.ok);
  Gpa table = (*as)->root_gpa();
  map_page(table);
  for (int level = 4; level > 1; --level) {
    const int index = static_cast<int>((0x400000ull >> (12 + 9 * (level - 1))) & 0x1ff);
    const uint64_t entry = machine_.mem().ReadU64(table + static_cast<uint64_t>(index) * 8);
    table = entry & kPteFrameMask;
    map_page(table);
  }
  map_page(*frame);

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(ept->get(), 1);
  core.WriteCr3((*as)->root_gpa(), 1, false);

  const uint64_t before = core.pmu().mem_accesses;
  ASSERT_TRUE(core.ReadVirtU64(0x400000).ok());
  // 24 walk accesses + 1 data access.
  EXPECT_EQ(core.pmu().mem_accesses - before, 25u);
}

// Table 2: VMFUNC with VPID enabled does not flush the TLB — translations
// cached under each EPTP survive round trips through the other.
TEST_F(CoreTranslationTest, VmfuncDoesNotFlushTlb) {
  HostPhysMem& mem = machine_.mem();
  auto client_as = AddressSpace::Create(mem, guest_frames_, 1);
  auto server_as = AddressSpace::Create(mem, guest_frames_, 2);
  ASSERT_TRUE(client_as.ok());
  ASSERT_TRUE(server_as.ok());
  const Gva va = 0x400000;
  auto cframe = guest_frames_.Alloc(mem);
  auto sframe = guest_frames_.Alloc(mem);
  ASSERT_TRUE((*client_as)->Map(va, *cframe, kPageSize, PageFlags{}).ok());
  ASSERT_TRUE((*server_as)->Map(va, *sframe, kPageSize, PageFlags{}).ok());

  auto base_ept = Ept::Create(mem, root_frames_);
  ASSERT_TRUE(base_ept.ok());
  ASSERT_TRUE((*base_ept)->Map(0, 0, sb::kHugePage1G, kEptRwx).ok());
  auto client_ept = (*base_ept)->ShallowCopy();
  auto server_ept = (*base_ept)->ShallowCopy();
  ASSERT_TRUE(
      (*server_ept)->RemapGpaPage((*client_as)->root_gpa(), (*server_as)->root_gpa()).ok());

  Core& core = machine_.core(0);
  machine_.SetVmExitHandler([](Core&, const VmExitInfo&) -> uint64_t { return 0; });
  core.EnterNonRoot(client_ept->get(), 1);
  core.vmcs().eptp_list.push_back(server_ept->get());
  core.WriteCr3((*client_as)->root_gpa(), 1, false);

  // Warm both views.
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());

  // Now both translations hit: a full round trip adds no TLB misses.
  const uint64_t misses = core.pmu().dtlb_miss;
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 1).ok());
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  ASSERT_TRUE(core.Vmfunc(0, 0).ok());
  ASSERT_TRUE(core.ReadVirtU64(va).ok());
  EXPECT_EQ(core.pmu().dtlb_miss, misses);
}

// ---- Contiguous backing (shared-buffer regions) ----

TEST(HostPhysMem, BackContiguousPreservesExistingContents) {
  HostPhysMem mem(64 * kMiB);
  mem.WriteU64(0x10008, 0x1122334455667788ULL);  // Materialize a sparse frame.
  mem.BackContiguous(0x10000, 4 * kPageSize);
  EXPECT_EQ(mem.ReadU64(0x10008), 0x1122334455667788ULL);  // Absorbed, not lost.
  EXPECT_EQ(mem.ReadU64(0x12000), 0u);  // Fresh pages read zero.
}

TEST(HostPhysMem, ContiguousSpanCoversRegionAndRejectsOverrun) {
  HostPhysMem mem(64 * kMiB);
  mem.BackContiguous(0x20000, 4 * kPageSize);
  uint8_t* base = mem.ContiguousSpan(0x20000, 4 * kPageSize);
  ASSERT_NE(base, nullptr);
  // The host pointer aliases guest-physical loads/stores across page bounds.
  base[kPageSize + 5] = 0xcd;
  std::vector<uint8_t> out(1);
  mem.Read(0x20000 + kPageSize + 5, out);
  EXPECT_EQ(out[0], 0xcd);
  uint8_t* off = mem.ContiguousSpan(0x20000 + kPageSize, kPageSize);
  EXPECT_EQ(off, base + kPageSize);
  EXPECT_EQ(mem.ContiguousSpan(0x20000 + kPageSize, 4 * kPageSize), nullptr);  // Overrun.
  EXPECT_EQ(mem.ContiguousSpan(0x50000, kPageSize), nullptr);  // Unbacked.
}

TEST(HostPhysMem, ContiguousSpanRegionEdges) {
  HostPhysMem mem(64 * kMiB);
  constexpr Hpa kBase = 0x40000;
  constexpr Hpa kEnd = kBase + 4 * kPageSize;
  mem.BackContiguous(kBase, 4 * kPageSize);
  uint8_t* base = mem.ContiguousSpan(kBase, 4 * kPageSize);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(mem.ContiguousSpan(kEnd - 1, 1), base + 4 * kPageSize - 1);  // Last byte.
  EXPECT_EQ(mem.ContiguousSpan(kEnd - 1, 2), nullptr);  // One byte past it.
  EXPECT_EQ(mem.ContiguousSpan(kEnd, 1), nullptr);
  // An adjacent region is a separate allocation: no span crosses into it.
  mem.BackContiguous(kEnd, 2 * kPageSize);
  EXPECT_NE(mem.ContiguousSpan(kEnd, 2 * kPageSize), nullptr);
  EXPECT_EQ(mem.ContiguousSpan(kEnd - kPageSize, 2 * kPageSize), nullptr);
  EXPECT_EQ(mem.ContiguousSpan(kEnd - 1, 2), nullptr);
  EXPECT_EQ(mem.ContiguousSpan(kBase, 0), nullptr);
}

TEST(HostPhysMem, BackContiguousKeepsWrittenFramesAndIsIdempotentInside) {
  HostPhysMem mem(64 * kMiB);
  mem.WriteU64(0x60000, 0x1111);
  mem.WriteU32(0x62ffc, 0x2222);
  ASSERT_EQ(mem.resident_frames(), 2u);
  mem.BackContiguous(0x60000, 4 * kPageSize);
  EXPECT_EQ(mem.resident_frames(), 4u);  // Two absorbed, two new.
  EXPECT_EQ(mem.ReadU64(0x60000), 0x1111u);
  EXPECT_EQ(mem.ReadU32(0x62ffc), 0x2222u);
  EXPECT_EQ(mem.ReadU64(0x61000), 0u);
  uint8_t* base = mem.ContiguousSpan(0x60000, 4 * kPageSize);
  ASSERT_NE(base, nullptr);
  // A range inside the region is a no-op: same storage, same contents.
  mem.BackContiguous(0x61000, 2 * kPageSize);
  EXPECT_EQ(mem.ContiguousSpan(0x60000, 4 * kPageSize), base);
  EXPECT_EQ(mem.ReadU64(0x60000), 0x1111u);
  EXPECT_EQ(mem.resident_frames(), 4u);
}

TEST(HostPhysMemDeathTest, BackContiguousRejectsPartialOverlap) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  HostPhysMem mem(64 * kMiB);
  mem.BackContiguous(0, 4 * kPageSize);
  // Frames 2-3 would move to the new region and leave the first region's
  // span stale.
  EXPECT_DEATH(mem.BackContiguous(2 * kPageSize, 4 * kPageSize), "overlaps an existing region");
  // A superset of a region is a partial overlap too.
  EXPECT_DEATH(mem.BackContiguous(0, 8 * kPageSize), "overlaps an existing region");
}

TEST(HostPhysMem, UntouchedFramesReadZeroAtEveryWidth) {
  HostPhysMem mem(16 * kMiB);
  std::vector<uint8_t> page(kPageSize, 0xff);
  mem.Read(0x3000, page);
  EXPECT_EQ(page, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_EQ(mem.ReadU32(0x4ffe), 0u);  // Straddles two untouched frames.
  EXPECT_EQ(mem.ReadU8(16 * kMiB - 1), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);  // Reads never give a frame backing.
}

TEST(HostPhysMem, ScalarAccessStraddlingFrameBoundary) {
  HostPhysMem mem(16 * kMiB);
  mem.WriteU64(0x1ffc, 0x8877665544332211ULL);
  EXPECT_EQ(mem.ReadU64(0x1ffc), 0x8877665544332211ULL);
  EXPECT_EQ(mem.ReadU32(0x1ffc), 0x44332211u);  // Low half in the first frame.
  EXPECT_EQ(mem.ReadU32(0x2000), 0x88776655u);  // High half in the second.
  EXPECT_EQ(mem.resident_frames(), 2u);
  mem.WriteU32(0x2ffe, 0xddccbbaa);
  EXPECT_EQ(mem.ReadU32(0x2ffe), 0xddccbbaau);
  EXPECT_EQ(mem.ReadU8(0x2fff), 0xbbu);
  EXPECT_EQ(mem.ReadU8(0x3000), 0xccu);
  EXPECT_EQ(mem.resident_frames(), 3u);
  // Last in-frame position: no straddle, one frame.
  mem.WriteU64(0x5ff8, 42);
  EXPECT_EQ(mem.ReadU64(0x5ff8), 42u);
  EXPECT_EQ(mem.ReadU64(0x6000), 0u);
  EXPECT_EQ(mem.resident_frames(), 4u);
}

TEST(HostPhysMem, RamSizeNotAMultipleOfTheLeafChunk) {
  const uint64_t size = 2 * kMiB + 3 * kPageSize;
  HostPhysMem mem(size);
  mem.WriteU64(size - 8, 0xfeed);  // The last frame lives in a partial chunk.
  EXPECT_EQ(mem.ReadU64(size - 8), 0xfeedu);
  EXPECT_EQ(mem.ReadU64(size - kPageSize), 0u);
  mem.BackContiguous(size - 2 * kPageSize, 2 * kPageSize);
  EXPECT_NE(mem.ContiguousSpan(size - 2 * kPageSize, 2 * kPageSize), nullptr);
  EXPECT_EQ(mem.ReadU64(size - 8), 0xfeedu);
  EXPECT_EQ(mem.ContiguousSpan(size - kPageSize, 2 * kPageSize), nullptr);  // Past RAM.
  EXPECT_FALSE(mem.Contains(size, 1));
}

// ---- Content-shared pages (WriteShared) ----

// A page whose bytes depend on `seed` at every offset.
std::vector<uint8_t> PatternPage(uint8_t seed) {
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return page;
}

std::vector<uint8_t> ReadPage(const HostPhysMem& mem, Hpa frame) {
  std::vector<uint8_t> page(kPageSize);
  mem.Read(frame, page);
  return page;
}

TEST(HostPhysMem, WriteSharedBacksIdenticalPagesWithOneHostPage) {
  HostPhysMem mem(16 * kMiB);
  const std::vector<uint8_t> a = PatternPage(1);
  const std::vector<uint8_t> b = PatternPage(2);
  for (Hpa frame = 0x10000; frame < 0x18000; frame += kPageSize) {
    mem.WriteShared(frame, a);
  }
  mem.WriteShared(0x20000, b);
  EXPECT_EQ(mem.resident_frames(), 9u);
  EXPECT_EQ(mem.host_pages(), 2u);
  EXPECT_EQ(ReadPage(mem, 0x17000), a);
  EXPECT_EQ(ReadPage(mem, 0x20000), b);
  uint64_t word = 0;
  std::memcpy(&word, a.data() + 0x18, sizeof(word));
  EXPECT_EQ(mem.ReadU64(0x13018), word);
  // A frame's own content again is a no-op; an all-zero page leaves an
  // untouched frame without backing.
  mem.WriteShared(0x10000, a);
  mem.WriteShared(0x30000, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_EQ(mem.resident_frames(), 9u);
  EXPECT_EQ(mem.host_pages(), 2u);
  // Moving the only holder of `b` to `a` frees `b`'s page.
  mem.WriteShared(0x20000, a);
  EXPECT_EQ(ReadPage(mem, 0x20000), a);
  EXPECT_EQ(mem.resident_frames(), 9u);
  EXPECT_EQ(mem.host_pages(), 1u);
  // A short write is its bytes then zeros: the same page as written whole.
  const std::vector<uint8_t> head(a.begin(), a.begin() + 100);
  std::vector<uint8_t> padded = head;
  padded.resize(kPageSize, 0);
  mem.WriteShared(0x40000, head);
  mem.WriteShared(0x41000, padded);
  EXPECT_EQ(ReadPage(mem, 0x40000), padded);
  EXPECT_EQ(mem.resident_frames(), 11u);
  EXPECT_EQ(mem.host_pages(), 2u);
}

TEST(HostPhysMem, EveryWriterMakesASharedFramePrivate) {
  HostPhysMem mem(16 * kMiB);
  const std::vector<uint8_t> page = PatternPage(3);
  // One frame per writer, and a sibling that shares the page throughout.
  constexpr Hpa kWrite = 0x10000, kU64 = 0x11000, kU32 = 0x12000, kU8 = 0x13000,
                kContig = 0x14000, kZero = 0x15000, kSibling = 0x40000;
  for (const Hpa frame : {kWrite, kU64, kU32, kU8, kContig, kZero, kSibling}) {
    mem.WriteShared(frame, page);
  }
  ASSERT_EQ(mem.resident_frames(), 7u);
  ASSERT_EQ(mem.host_pages(), 1u);
  EXPECT_EQ(mem.ContiguousSpan(kSibling, 8), nullptr);  // Never a host span.

  const std::array<uint8_t, 3> bytes = {0xaa, 0xbb, 0xcc};
  mem.Write(kWrite + 100, bytes);
  mem.WriteU64(kU64 + 8, 0x1122334455667788ULL);
  mem.WriteU32(kU32 + kPageSize - 4, 0xdeadbeef);
  mem.WriteU8(kU8, 0x5a);
  mem.BackContiguous(kContig, kPageSize);
  uint8_t* span = mem.ContiguousSpan(kContig, kPageSize);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(std::vector<uint8_t>(span, span + kPageSize), page);  // Absorbed intact.
  span[5] = 0x77;
  mem.ZeroFrame(kZero);

  // Each frame holds the page with its own write applied, and nothing else.
  const auto with = [&](size_t offset, auto value) {
    std::vector<uint8_t> want = page;
    std::memcpy(want.data() + offset, &value, sizeof(value));
    return want;
  };
  EXPECT_EQ(ReadPage(mem, kWrite), with(100, bytes));
  EXPECT_EQ(ReadPage(mem, kU64), with(8, uint64_t{0x1122334455667788ULL}));
  EXPECT_EQ(ReadPage(mem, kU32), with(kPageSize - 4, uint32_t{0xdeadbeef}));
  EXPECT_EQ(ReadPage(mem, kU8), with(0, uint8_t{0x5a}));
  EXPECT_EQ(ReadPage(mem, kContig), with(5, uint8_t{0x77}));
  EXPECT_EQ(ReadPage(mem, kZero), std::vector<uint8_t>(kPageSize, 0));
  EXPECT_EQ(ReadPage(mem, kSibling), page);
  // The zeroed frame let go of its backing; the other five went private.
  EXPECT_EQ(mem.resident_frames(), 6u);
  EXPECT_EQ(mem.host_pages(), 6u);

  // The last owner writes too: the shared page is freed (a page left in the
  // shared table would still count in host_pages()).
  mem.WriteU8(kSibling + 9, 0);
  EXPECT_EQ(ReadPage(mem, kSibling), with(9, uint8_t{0}));
  EXPECT_EQ(mem.resident_frames(), 6u);
  EXPECT_EQ(mem.host_pages(), 6u);
}

TEST(HostPhysMem, WriteSharedIntoARegionWritesInPlace) {
  HostPhysMem mem(16 * kMiB);
  mem.BackContiguous(0x20000, 2 * kPageSize);
  uint8_t* span = mem.ContiguousSpan(0x20000, 2 * kPageSize);
  ASSERT_NE(span, nullptr);
  const std::vector<uint8_t> page = PatternPage(4);
  mem.WriteShared(0x21000, page);
  mem.WriteShared(0x30000, page);
  EXPECT_EQ(mem.ContiguousSpan(0x20000, 2 * kPageSize), span);  // Still one region.
  EXPECT_EQ(std::vector<uint8_t>(span + kPageSize, span + 2 * kPageSize), page);
  EXPECT_EQ(mem.resident_frames(), 3u);
  EXPECT_EQ(mem.host_pages(), 3u);  // The region frame holds its own copy.
}

TEST(HostPhysMemDeathTest, WriteSharedTakesAtMostOneAlignedPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  HostPhysMem mem(16 * kMiB);
  const std::vector<uint8_t> page = PatternPage(5);
  EXPECT_DEATH(mem.WriteShared(0x10008, page), "within one aligned page");
  std::vector<uint8_t> longer = page;
  longer.push_back(0);
  EXPECT_DEATH(mem.WriteShared(0x10000, longer), "within one aligned page");
}

TEST(FrameAllocator, AllocLeavesFramesUnbackedUntilFirstWrite) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 1 * kMiB);
  auto frame = alloc.Alloc(mem);
  auto run = alloc.AllocContiguous(mem, 8);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(mem.resident_frames(), 0u);
  EXPECT_EQ(mem.ReadU64(*frame), 0u);
  EXPECT_EQ(mem.ReadU64(*run + 7 * kPageSize), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);
  mem.WriteU8(*run + 3 * kPageSize, 1);
  EXPECT_EQ(mem.resident_frames(), 1u);
}

TEST(FrameAllocator, WrittenFreedAndReallocatedFrameReadsZero) {
  HostPhysMem mem(16 * kMiB);
  FrameAllocator alloc(0x100000, 1 * kMiB);
  auto frame = alloc.Alloc(mem);
  ASSERT_TRUE(frame.ok());
  std::vector<uint8_t> junk(kPageSize, 0x5a);
  mem.Write(*frame, junk);
  alloc.Free(*frame);
  auto again = alloc.Alloc(mem);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(*again, *frame);
  std::vector<uint8_t> out(kPageSize, 0xff);
  mem.Read(*again, out);
  EXPECT_EQ(out, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_EQ(mem.resident_frames(), 1u);  // Cleared in place, still backed.
}

// ---- Host page arena ----

// The page every other test frame's first write lands on is one that
// WriteShared or BackContiguous released, written full of junk first.
TEST(HostPhysMem, ReleasedHostPagesReadZeroWhenReused) {
  HostPhysMem mem(16 * kMiB);
  const std::vector<uint8_t> junk(kPageSize, 0x5a);
  mem.Write(0x10000, junk);
  mem.WriteShared(0x10000, PatternPage(3));  // Releases the frame's private page.
  mem.WriteU8(0x20010, 1);
  std::vector<uint8_t> expect(kPageSize, 0);
  expect[0x10] = 1;
  EXPECT_EQ(ReadPage(mem, 0x20000), expect);
  EXPECT_EQ(ReadPage(mem, 0x10000), PatternPage(3));

  mem.Write(0x30000, junk);
  mem.BackContiguous(0x30000, 2 * kPageSize);  // Absorbs and releases the page.
  EXPECT_EQ(ReadPage(mem, 0x30000), junk);
  mem.WriteU8(0x40020, 2);
  expect[0x10] = 0;
  expect[0x20] = 2;
  EXPECT_EQ(ReadPage(mem, 0x40000), expect);
  EXPECT_EQ(mem.resident_frames(), 5u);  // 0x10000, 0x20000, the region's two, 0x40000.
  EXPECT_EQ(mem.host_pages(), 5u);
}

TEST(HostPhysMem, SparseFramesBeyondOneChunkReadBack) {
  constexpr uint64_t kFrames = 1500;  // Three 512-page chunks.
  HostPhysMem mem(64 * kMiB);
  for (uint64_t i = 0; i < kFrames; ++i) {
    // Every other frame, at an offset that walks through the page.
    mem.WriteU64(2 * i * kPageSize + (i * 8) % kPageSize, 0x1000 + i);
  }
  const std::vector<uint8_t> code = PatternPage(9);
  for (uint64_t i = 0; i < 100; ++i) {
    mem.WriteShared(2 * i * kPageSize + kPageSize, code);
  }
  for (uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(mem.ReadU64(2 * i * kPageSize + (i * 8) % kPageSize), 0x1000 + i) << "frame " << i;
  }
  EXPECT_EQ(ReadPage(mem, 199 * kPageSize), code);
  EXPECT_EQ(mem.resident_frames(), kFrames + 100);
  EXPECT_EQ(mem.host_pages(), kFrames + 1);
}

TEST(HostPhysMem, RegionOverTwoMiBIsOneSpan) {
  constexpr Hpa kBase = 4 * kMiB;
  constexpr uint64_t kLen = 3 * kMiB + 5 * kPageSize;
  HostPhysMem mem(16 * kMiB);
  mem.WriteU64(kBase + 2 * kMiB + 8, 0xabcd);  // Absorbed from a sparse frame.
  mem.WriteShared(kBase + kLen - kPageSize, PatternPage(4));  // And from a shared one.
  mem.BackContiguous(kBase, kLen);
  uint8_t* span = mem.ContiguousSpan(kBase, kLen);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(mem.ReadU64(kBase + 2 * kMiB + 8), 0xabcdu);
  EXPECT_EQ(ReadPage(mem, kBase + kLen - kPageSize), PatternPage(4));
  for (uint64_t off = 0; off < kLen; off += 64 * kPageSize + 40) {
    span[off] = static_cast<uint8_t>(off >> 12);
    EXPECT_EQ(mem.ReadU8(kBase + off), static_cast<uint8_t>(off >> 12)) << "offset " << off;
  }
  EXPECT_EQ(mem.resident_frames(), kLen / kPageSize);
  EXPECT_EQ(mem.host_pages(), kLen / kPageSize);
}

// Under ASan this is the check that matters: every arena mapping, shared
// page and released frame is handed back exactly once.
TEST(HostPhysMem, DestroyingAMachineWithEveryKindOfFrameIsClean) {
  for (int round = 0; round < 2; ++round) {
    Machine machine(MachineWith(1, 64 * kMiB));
    HostPhysMem& mem = machine.mem();
    for (Hpa frame = 0; frame < 600 * kPageSize; frame += kPageSize) {
      mem.WriteU32(frame + 4, static_cast<uint32_t>(frame));
    }
    for (Hpa frame = 0; frame < 8 * kPageSize; frame += kPageSize) {
      mem.WriteShared(frame, PatternPage(static_cast<uint8_t>(frame >> 13)));
    }
    mem.BackContiguous(8 * kMiB, 4 * kPageSize);
    mem.BackContiguous(16 * kMiB, 5 * kMiB);
    mem.BackContiguous(300 * kPageSize, 2 * kPageSize);  // Releases two sparse pages.
    mem.WriteU8(32 * kMiB, 1);  // Reuses one.
    EXPECT_EQ(mem.ReadU32(599 * kPageSize + 4), 599 * kPageSize);
  }
}

TEST(HostPhysMem, PagesReusedFromADestroyedMachineReadZero) {
  constexpr uint64_t kFrames = 1100;  // More than two chunks of pages.
  const std::vector<uint8_t> junk(kPageSize, 0xa5);
  {
    HostPhysMem old_mem(16 * kMiB);
    for (uint64_t i = 0; i < kFrames; ++i) {
      old_mem.Write(i * kPageSize, junk);
    }
  }
  HostPhysMem mem(16 * kMiB);  // Takes the chunks old_mem gave back.
  std::vector<uint8_t> expect(kPageSize, 0);
  expect[8] = 7;
  for (uint64_t i = 0; i < kFrames; ++i) {
    mem.WriteU8(i * kPageSize + 8, 7);
    ASSERT_EQ(ReadPage(mem, i * kPageSize), expect) << "frame " << i;
  }
  EXPECT_EQ(mem.resident_frames(), kFrames);
}

// ---- Bulk-copy engine ----

class BulkCopyTest : public ::testing::Test {
 protected:
  BulkCopyTest()
      : machine_(MachineWith(1, 2 * kGiB)),
        guest_frames_(16 * kMiB, 512 * kMiB) {
    auto as = AddressSpace::Create(machine_.mem(), guest_frames_, 1);
    SB_CHECK(as.ok());
    as_ = std::move(*as);
    SB_CHECK(as_->MapAnonymous(kSrcVa, kLen, PageFlags{}).ok());
    SB_CHECK(as_->MapAnonymous(kDstVa, kLen, PageFlags{}).ok());
    machine_.core(0).WriteCr3(as_->root_gpa(), 1, false);
  }

  static constexpr Gva kSrcVa = 0x400000;
  static constexpr Gva kDstVa = 0x600000;
  static constexpr uint64_t kLen = 64 * 1024;

  Machine machine_;
  FrameAllocator guest_frames_;
  std::unique_ptr<AddressSpace> as_;
};

TEST_F(BulkCopyTest, CopyVirtMovesBytesAcrossPages) {
  Core& core = machine_.core(0);
  std::vector<uint8_t> pattern(10000);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  // Unaligned start, crossing three pages.
  ASSERT_TRUE(core.WriteVirt(kSrcVa + 123, pattern).ok());
  ASSERT_TRUE(core.CopyVirt(kDstVa + 45, kSrcVa + 123, pattern.size()).ok());
  std::vector<uint8_t> out(pattern.size());
  ASSERT_TRUE(core.ReadVirt(kDstVa + 45, out).ok());
  EXPECT_EQ(out, pattern);
}

TEST_F(BulkCopyTest, CopyVirtCheaperThanReadPlusWrite) {
  Core& core = machine_.core(0);
  std::vector<uint8_t> data(16 * 1024, 0xee);
  ASSERT_TRUE(core.WriteVirt(kSrcVa, data).ok());
  // Warm both ranges and the TLB.
  ASSERT_TRUE(core.CopyVirt(kDstVa, kSrcVa, data.size()).ok());
  std::vector<uint8_t> bounce(data.size());
  ASSERT_TRUE(core.ReadVirt(kSrcVa, bounce).ok());
  ASSERT_TRUE(core.WriteVirt(kDstVa, bounce).ok());

  uint64_t start = core.cycles();
  ASSERT_TRUE(core.ReadVirt(kSrcVa, bounce).ok());
  ASSERT_TRUE(core.WriteVirt(kDstVa, bounce).ok());
  const uint64_t read_write = core.cycles() - start;

  start = core.cycles();
  ASSERT_TRUE(core.CopyVirt(kDstVa, kSrcVa, data.size()).ok());
  const uint64_t copy = core.cycles() - start;

  EXPECT_LT(copy, read_write);  // One startup, touches both streams once.
  EXPECT_GT(copy, 0u);
}

TEST_F(BulkCopyTest, SmallAccessesKeepSeedCosting) {
  Core& core = machine_.core(0);
  const uint64_t small = machine_.costs().bulk_min_bytes - 1;
  std::vector<uint8_t> data(small, 0x11);
  ASSERT_TRUE(core.WriteVirt(kSrcVa, data).ok());  // Warm.
  std::vector<uint8_t> out(small);
  ASSERT_TRUE(core.ReadVirt(kSrcVa, out).ok());    // Warm.

  const uint64_t start = core.cycles();
  ASSERT_TRUE(core.ReadVirt(kSrcVa, out).ok());
  const uint64_t cost = core.cycles() - start;
  // Warm per-line charging, no streaming startup: lines * l1_hit.
  const uint64_t lines = (small + 63) / 64;
  EXPECT_EQ(cost, lines * machine_.costs().l1_hit);
}

TEST_F(BulkCopyTest, CopyVirtSgMatchesSequentialCopies) {
  Core& core = machine_.core(0);
  std::vector<uint8_t> a(3000, 0xaa);
  std::vector<uint8_t> b(5000, 0xbb);
  ASSERT_TRUE(core.WriteVirt(kSrcVa, a).ok());
  ASSERT_TRUE(core.WriteVirt(kSrcVa + 8192, b).ok());
  const Core::CopySeg segs[] = {
      {kDstVa, kSrcVa, a.size()},
      {kDstVa + 8192, kSrcVa + 8192, b.size()},
  };
  ASSERT_TRUE(core.CopyVirtSg(segs).ok());
  std::vector<uint8_t> out_a(a.size());
  std::vector<uint8_t> out_b(b.size());
  ASSERT_TRUE(core.ReadVirt(kDstVa, out_a).ok());
  ASSERT_TRUE(core.ReadVirt(kDstVa + 8192, out_b).ok());
  EXPECT_EQ(out_a, a);
  EXPECT_EQ(out_b, b);
}

TEST(Machine, IpiCountsPerCore) {
  Machine machine(MachineWith(4, 1 * kGiB));
  machine.SendIpi(0, 2);
  machine.SendIpi(0, 3);
  EXPECT_EQ(machine.telemetry().Value("hw.ipi.sent"), 2u);
  EXPECT_EQ(machine.core(0).pmu().ipis_sent, 2u);
}

TEST(Machine, VmcallDispatchesToHandler) {
  Machine machine(MachineWith(1, 1 * kGiB));
  machine.SetVmExitHandler([](Core&, const VmExitInfo& info) -> uint64_t {
    EXPECT_EQ(info.reason, VmExitReason::kVmcall);
    return info.qualification + info.arg1;
  });
  EXPECT_EQ(machine.core(0).Vmcall(40, 2), 42u);
  EXPECT_EQ(machine.telemetry().Value("hw.vmexit.total"), 1u);
}

// ---- Cycle ledger ----

TEST(CycleLedger, InnermostScopeWins) {
  Machine machine(MachineWith(1, 1 * kGiB));
  Core& core = machine.core(0);
  {
    CycleScope copy(core, Bucket::kCopy);
    core.AdvanceCycles(3);
    {
      CycleScope vmfunc(core, Bucket::kVmfunc);
      core.AdvanceCycles(5);
      core.AdvanceCycles(2, Bucket::kOthers);  // An explicit bucket beats any scope.
    }
    core.AdvanceCycles(11);
  }
  core.AdvanceCycles(1);  // Unscoped: the default bucket.
  EXPECT_EQ(core.ledger()[Bucket::kCopy], 14u);
  EXPECT_EQ(core.ledger()[Bucket::kVmfunc], 5u);
  EXPECT_EQ(core.ledger()[Bucket::kOthers], 2u);
  EXPECT_EQ(core.ledger()[Bucket::kApp], 1u);
  EXPECT_EQ(core.ledger().total(), core.cycles());
}

TEST(CycleLedger, TagIsRestoredOnEarlyReturn) {
  Machine machine(MachineWith(1, 1 * kGiB));
  Core& core = machine.core(0);
  CycleScope gate(core, Bucket::kGate);
  const auto charge = [&core](bool bail) {
    CycleScope syscall(core, Bucket::kSyscall);
    core.AdvanceCycles(4);
    if (bail) {
      return;
    }
    core.AdvanceCycles(100);
  };
  charge(/*bail=*/true);
  core.AdvanceCycles(9);
  EXPECT_EQ(core.ledger()[Bucket::kSyscall], 4u);
  EXPECT_EQ(core.ledger()[Bucket::kGate], 9u);
}

TEST(CycleLedger, SyncClockToBooksWait) {
  Machine machine(MachineWith(1, 1 * kGiB));
  Core& core = machine.core(0);
  CycleScope copy(core, Bucket::kCopy);
  core.AdvanceCycles(10);
  core.SyncClockTo(250);
  core.SyncClockTo(100);  // Already past: no-op.
  EXPECT_EQ(core.cycles(), 250u);
  EXPECT_EQ(core.ledger()[Bucket::kWait], 240u);
  EXPECT_EQ(core.ledger()[Bucket::kCopy], 10u);
  EXPECT_EQ(core.ledger().total(), core.cycles());
}

TEST(CycleLedger, NestedScopesWithTheSameBucket) {
  Machine machine(MachineWith(1, 1 * kGiB));
  Core& core = machine.core(0);
  {
    CycleScope outer(core, Bucket::kSchedule);
    core.AdvanceCycles(6);
    {
      CycleScope inner(core, Bucket::kSchedule);
      core.AdvanceCycles(8);
    }
    core.AdvanceCycles(1);  // The inner exit restores the same tag.
  }
  core.AdvanceCycles(2);
  EXPECT_EQ(core.ledger()[Bucket::kSchedule], 15u);
  EXPECT_EQ(core.ledger()[Bucket::kApp], 2u);
}

TEST(CycleLedger, DeltasSubtractPerBucket) {
  CycleLedger a;
  a[Bucket::kCopy] = 10;
  a[Bucket::kWait] = 4;
  CycleLedger b = a;
  b[Bucket::kCopy] += 5;
  b += a;
  const CycleLedger d = b - a;
  EXPECT_EQ(d[Bucket::kCopy], 15u);
  EXPECT_EQ(d[Bucket::kWait], 4u);
  EXPECT_EQ(d.total(), 19u);
}

}  // namespace
}  // namespace hw
