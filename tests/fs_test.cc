// xv6fs tests: format/mount, files, directories, the write-ahead log and
// crash recovery, plus the block device and RPC layers.

#include "src/fs/xv6fs.h"

#include <algorithm>
#include <cstring>
#include <list>
#include <unordered_map>
#include <utility>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/fs/block_device.h"
#include "src/fs/fs_rpc.h"

namespace fsys {

// Reaches the buffer cache behind Xv6Fs's file API.
class Xv6FsTestPeer {
 public:
  static sb::Status GetBlock(Xv6Fs& fs, uint32_t block) { return fs.GetBlock(block).status(); }
  static sb::Status LogWrite(Xv6Fs& fs, uint32_t block) { return fs.LogWrite(block); }
  static bool Cached(const Xv6Fs& fs, uint32_t block) { return fs.cache_.contains(block); }
  static std::vector<uint32_t> LruOrder(const Xv6Fs& fs) {
    return {fs.cache_lru_.begin(), fs.cache_lru_.end()};
  }
};

namespace {

// Block traffic as (request tag, block number), in issue order.
using BlockTrace = std::vector<std::pair<uint64_t, uint32_t>>;

// DirectBlockTransport that records every request and can fail reads.
BlockTransport RecordingTransport(RamDisk* disk, BlockTrace* trace, const bool* fail_reads) {
  return [inner = DirectBlockTransport(disk), trace, fail_reads](
             const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    uint32_t block = 0;
    std::memcpy(&block, msg.payload().data(), 4);
    if (msg.tag == kBlockRead && *fail_reads) {
      return sb::Unavailable("injected block read failure");
    }
    trace->emplace_back(msg.tag, block);
    return inner(msg);
  };
}

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : disk_(4096),
        fs_(DirectBlockTransport(&disk_), Xv6Fs::Config{4096, 64}) {}

  void Format() {
    ASSERT_TRUE(fs_.Mkfs().ok());
    ASSERT_TRUE(fs_.Mount().ok());
  }

  RamDisk disk_;
  Xv6Fs fs_;
};

TEST_F(FsTest, MkfsAndMount) {
  Format();
  EXPECT_EQ(fs_.superblock().magic, kFsMagic);
  EXPECT_EQ(fs_.superblock().size, 4096u);
  auto names = fs_.ListDir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_TRUE(names->empty());
}

TEST_F(FsTest, MountFailsOnBlankDisk) {
  EXPECT_FALSE(fs_.Mount().ok());
}

TEST_F(FsTest, CreateWriteRead) {
  Format();
  auto inum = fs_.Create("/hello.txt");
  ASSERT_TRUE(inum.ok());
  const std::string text = "hello, microkernel world";
  ASSERT_TRUE(fs_.WriteFile(*inum, 0,
                            std::span<const uint8_t>(
                                reinterpret_cast<const uint8_t*>(text.data()), text.size()))
                  .ok());
  std::vector<uint8_t> out(text.size());
  auto n = fs_.ReadFile(*inum, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, text.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), text);
  EXPECT_EQ(*fs_.FileSize(*inum), text.size());
}

TEST_F(FsTest, LookupFindsCreatedFile) {
  Format();
  auto inum = fs_.Create("/f1");
  ASSERT_TRUE(inum.ok());
  auto found = fs_.Lookup("/f1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *inum);
  EXPECT_FALSE(fs_.Lookup("/nope").ok());
}

TEST_F(FsTest, DuplicateCreateFails) {
  Format();
  ASSERT_TRUE(fs_.Create("/f").ok());
  EXPECT_FALSE(fs_.Create("/f").ok());
}

TEST_F(FsTest, SubdirectoryPaths) {
  Format();
  auto dir = fs_.Create("/etc", InodeType::kDir);
  ASSERT_TRUE(dir.ok());
  auto file = fs_.Create("/etc/config");
  ASSERT_TRUE(file.ok());
  auto found = fs_.Lookup("/etc/config");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *file);
  auto names = fs_.ListDir("/etc");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "config");
}

TEST_F(FsTest, LargeFileSpansIndirectBlocks) {
  Format();
  auto inum = fs_.Create("/big");
  ASSERT_TRUE(inum.ok());
  // Past the direct blocks (12 * 512) and into the single-indirect range.
  std::vector<uint8_t> chunk(kBlockSize, 0);
  for (uint32_t i = 0; i < 40; ++i) {
    std::fill(chunk.begin(), chunk.end(), static_cast<uint8_t>(i));
    ASSERT_TRUE(fs_.WriteFile(*inum, i * kBlockSize, chunk).ok()) << "block " << i;
  }
  for (uint32_t i = 0; i < 40; ++i) {
    std::vector<uint8_t> out(kBlockSize);
    ASSERT_TRUE(fs_.ReadFile(*inum, i * kBlockSize, out).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(i));
    EXPECT_EQ(out[kBlockSize - 1], static_cast<uint8_t>(i));
  }
}

TEST_F(FsTest, DoubleIndirectRange) {
  Format();
  auto inum = fs_.Create("/huge");
  ASSERT_TRUE(inum.ok());
  // One write far beyond direct + single-indirect (12 + 128 blocks).
  const uint32_t far_block = kNumDirect + kPtrsPerBlock + 10;
  std::vector<uint8_t> chunk(kBlockSize, 0x5a);
  ASSERT_TRUE(fs_.WriteFile(*inum, far_block * kBlockSize, chunk).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(fs_.ReadFile(*inum, far_block * kBlockSize, out).ok());
  EXPECT_EQ(out[100], 0x5a);
}

TEST_F(FsTest, OverwriteInPlace) {
  Format();
  auto inum = fs_.Create("/f");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> a(100, 'a');
  std::vector<uint8_t> b(50, 'b');
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, a).ok());
  ASSERT_TRUE(fs_.WriteFile(*inum, 25, b).ok());
  std::vector<uint8_t> out(100);
  ASSERT_TRUE(fs_.ReadFile(*inum, 0, out).ok());
  EXPECT_EQ(out[0], 'a');
  EXPECT_EQ(out[30], 'b');
  EXPECT_EQ(out[80], 'a');
  EXPECT_EQ(*fs_.FileSize(*inum), 100u);
}

TEST_F(FsTest, UnlinkFreesAndRemoves) {
  Format();
  auto inum = fs_.Create("/gone");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(2048, 1);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.Unlink("/gone").ok());
  EXPECT_FALSE(fs_.Lookup("/gone").ok());
  // The freed space is reusable.
  auto inum2 = fs_.Create("/new");
  ASSERT_TRUE(inum2.ok());
  ASSERT_TRUE(fs_.WriteFile(*inum2, 0, data).ok());
}

TEST_F(FsTest, ReadBeyondEofReturnsShort) {
  Format();
  auto inum = fs_.Create("/short");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(10, 7);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  std::vector<uint8_t> out(100);
  auto n = fs_.ReadFile(*inum, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  EXPECT_EQ(*fs_.ReadFile(*inum, 50, out), 0u);
}

TEST_F(FsTest, TransactionGroupsWrites) {
  Format();
  auto inum = fs_.Create("/txn");
  ASSERT_TRUE(inum.ok());
  const uint64_t before = fs_.stats().transactions;
  ASSERT_TRUE(fs_.BeginOp().ok());
  std::vector<uint8_t> data(64, 9);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.WriteFile(*inum, 64, data).ok());
  ASSERT_TRUE(fs_.EndOp().ok());
  EXPECT_EQ(fs_.stats().transactions, before + 1);
}

// Crash consistency: a committed-but-not-installed log replays on mount.
TEST_F(FsTest, LogRecoveryReplaysCommittedTransaction) {
  Format();
  auto inum = fs_.Create("/durable");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(kBlockSize, 0xcd);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());

  // Find the file's data block and simulate a torn install: clobber the
  // home location but leave the (already cleared) log alone. Then write a
  // committed log that restores it.
  const Superblock& sb = fs_.superblock();
  // Re-read inode from disk directly to find the data block.
  std::vector<uint8_t> iblock(kBlockSize);
  ASSERT_TRUE(disk_.Read(nullptr, sb.inode_start + *inum / 8, iblock).ok());
  DiskInode dino;
  std::memcpy(&dino, iblock.data() + (*inum % 8) * sizeof(DiskInode), sizeof(dino));
  const uint32_t data_block = dino.addrs[0];
  ASSERT_NE(data_block, 0u);

  // "Crash": home location gets garbage, but the log contains the commit.
  std::vector<uint8_t> garbage(kBlockSize, 0xff);
  ASSERT_TRUE(disk_.Write(nullptr, data_block, garbage).ok());
  ASSERT_TRUE(disk_.Write(nullptr, sb.log_start + 1, data).ok());
  std::vector<uint8_t> header(kBlockSize, 0);
  const uint32_t n = 1;
  std::memcpy(header.data(), &n, 4);
  std::memcpy(header.data() + 4, &data_block, 4);
  ASSERT_TRUE(disk_.Write(nullptr, sb.log_start, header).ok());

  // Remount: recovery must reinstall the logged block.
  Xv6Fs fs2(DirectBlockTransport(&disk_));
  ASSERT_TRUE(fs2.Mount().ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(fs2.ReadFile(*inum, 0, out).ok());
  EXPECT_EQ(out[0], 0xcd);
  EXPECT_EQ(out[kBlockSize - 1], 0xcd);
}

TEST_F(FsTest, WriteAmplificationFromLogging) {
  Format();
  auto inum = fs_.Create("/wa");
  ASSERT_TRUE(inum.ok());
  const uint64_t before = fs_.stats().block_writes;
  std::vector<uint8_t> data(kBlockSize, 1);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  // Each logged block is written twice (log + home) plus 2 header writes.
  EXPECT_GE(fs_.stats().block_writes - before, 6u);
}

TEST_F(FsTest, RenameMovesFile) {
  Format();
  auto inum = fs_.Create("/old");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(100, 0x2a);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.Rename("/old", "/new").ok());
  EXPECT_FALSE(fs_.Lookup("/old").ok());
  auto moved = fs_.Lookup("/new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *inum);
  EXPECT_EQ(*fs_.FileSize(*moved), 100u);
  EXPECT_TRUE(fs_.Fsck().ok());
}

TEST_F(FsTest, RenameReplacesTarget) {
  Format();
  auto a = fs_.Create("/a");
  auto b = fs_.Create("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<uint8_t> data(50, 0x11);
  ASSERT_TRUE(fs_.WriteFile(*a, 0, data).ok());
  ASSERT_TRUE(fs_.Rename("/a", "/b").ok());
  auto replaced = fs_.Lookup("/b");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(*replaced, *a);  // /b now refers to the old /a inode.
  EXPECT_FALSE(fs_.Lookup("/a").ok());
  const sb::Status fsck = fs_.Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();  // The old /b inode was freed.
}

TEST_F(FsTest, RenameAcrossDirectories) {
  Format();
  ASSERT_TRUE(fs_.Create("/d", InodeType::kDir).ok());
  auto inum = fs_.Create("/f");
  ASSERT_TRUE(inum.ok());
  ASSERT_TRUE(fs_.Rename("/f", "/d/f").ok());
  EXPECT_FALSE(fs_.Lookup("/f").ok());
  EXPECT_EQ(*fs_.Lookup("/d/f"), *inum);
}

TEST_F(FsTest, RenameMissingSourceFails) {
  Format();
  EXPECT_FALSE(fs_.Rename("/ghost", "/x").ok());
}

TEST_F(FsTest, FsckPassesAfterActivity) {
  Format();
  auto a = fs_.Create("/a");
  auto dir = fs_.Create("/d", InodeType::kDir);
  auto b = fs_.Create("/d/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(b.ok());
  std::vector<uint8_t> data(3000, 0x31);
  ASSERT_TRUE(fs_.WriteFile(*a, 0, data).ok());
  ASSERT_TRUE(fs_.WriteFile(*b, 0, data).ok());
  ASSERT_TRUE(fs_.Unlink("/a").ok());
  const sb::Status fsck = fs_.Fsck();
  EXPECT_TRUE(fsck.ok()) << fsck.ToString();
}

TEST_F(FsTest, FsckDetectsBitmapCorruption) {
  Format();
  auto inum = fs_.Create("/f");
  ASSERT_TRUE(inum.ok());
  std::vector<uint8_t> data(600, 1);
  ASSERT_TRUE(fs_.WriteFile(*inum, 0, data).ok());
  ASSERT_TRUE(fs_.Fsck().ok());

  // Corrupt the bitmap on disk: mark an unreferenced data block used.
  const Superblock& sb = fs_.superblock();
  std::vector<uint8_t> bmap(kBlockSize);
  ASSERT_TRUE(disk_.Read(nullptr, sb.bmap_start, bmap).ok());
  const uint32_t victim = sb.size - 2;
  bmap[victim / 8] |= static_cast<uint8_t>(1u << (victim % 8));
  ASSERT_TRUE(disk_.Write(nullptr, sb.bmap_start + victim / (kBlockSize * 8), bmap).ok());

  // Remount so the corruption is visible through the cache.
  Xv6Fs fs2(DirectBlockTransport(&disk_), Xv6Fs::Config{4096, 64});
  ASSERT_TRUE(fs2.Mount().ok());
  EXPECT_FALSE(fs2.Fsck().ok());
}

// The buffer cache as it was written before its LRU kept list iterators:
// std::list::remove on every hit and eviction. It mirrors GetBlock, LogWrite
// and the log commit, and records the block traffic they issue.
class ReferenceBufferCache {
 public:
  ReferenceBufferCache(size_t capacity, uint32_t log_start)
      : capacity_(capacity), log_start_(log_start) {}

  void Get(uint32_t block) {
    if (cache_.find(block) != cache_.end()) {
      ++hits_;
      lru_.remove(block);
      lru_.push_front(block);
      return;
    }
    Evict();
    trace_.emplace_back(kBlockRead, block);
    cache_.emplace(block, false);
    lru_.push_front(block);
  }

  void LogWrite(uint32_t block) {
    cache_.at(block) = true;
    if (std::find(op_blocks_.begin(), op_blocks_.end(), block) == op_blocks_.end()) {
      op_blocks_.push_back(block);
    }
  }

  void EndOp() {
    if (!op_blocks_.empty()) {
      for (size_t i = 0; i < op_blocks_.size(); ++i) {
        trace_.emplace_back(kBlockWrite, log_start_ + 1 + static_cast<uint32_t>(i));
      }
      trace_.emplace_back(kBlockWrite, log_start_);
      for (const uint32_t block : op_blocks_) {
        Flush(block);
      }
      trace_.emplace_back(kBlockWrite, log_start_);
    }
    op_blocks_.clear();
  }

  const BlockTrace& trace() const { return trace_; }
  const std::list<uint32_t>& lru() const { return lru_; }
  uint64_t hits() const { return hits_; }

 private:
  void Flush(uint32_t block) {
    bool& dirty = cache_.at(block);
    if (dirty) {
      trace_.emplace_back(kBlockWrite, block);
      dirty = false;
    }
  }

  void Evict() {
    while (cache_.size() >= capacity_) {
      uint32_t victim = UINT32_MAX;
      for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        if (std::find(op_blocks_.begin(), op_blocks_.end(), *it) == op_blocks_.end()) {
          victim = *it;
          break;
        }
      }
      ASSERT_NE(victim, UINT32_MAX) << "the test keeps an op smaller than the cache";
      Flush(victim);
      cache_.erase(victim);
      lru_.remove(victim);
    }
  }

  size_t capacity_;
  uint32_t log_start_;
  std::unordered_map<uint32_t, bool> cache_;  // block -> dirty
  std::list<uint32_t> lru_;                   // Front = most recent.
  std::vector<uint32_t> op_blocks_;
  BlockTrace trace_;
  uint64_t hits_ = 0;
};

void RunBufferCacheDifferential(size_t capacity, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " seed " << seed);
  RamDisk disk(4096);
  BlockTrace trace;
  bool fail_reads = false;
  Xv6Fs fs(RecordingTransport(&disk, &trace, &fail_reads),
           Xv6Fs::Config{4096, capacity});
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  trace.clear();
  const FsStats before = fs.stats();
  ReferenceBufferCache ref(capacity, fs.superblock().log_start);

  sb::Rng rng(seed);
  // A block pool 1.5x the cache, so hits and evictions both happen.
  const uint32_t first = fs.superblock().data_start;
  const uint64_t pool = capacity + capacity / 2 + 1;
  // Blocks dirtied per op stay below the capacity: an op can always evict.
  const size_t max_op_blocks = std::min<size_t>(capacity - 1, kLogCapacity);
  size_t op_blocks = 0;
  ASSERT_TRUE(fs.BeginOp().ok());
  for (int op = 0; op < 20000; ++op) {
    const uint32_t block = first + static_cast<uint32_t>(rng.Below(pool));
    const uint64_t kind = rng.Below(10);
    if (kind < 6 || op_blocks >= max_op_blocks) {
      ASSERT_TRUE(Xv6FsTestPeer::GetBlock(fs, block).ok());
      ref.Get(block);
    } else if (kind < 9) {
      ASSERT_TRUE(Xv6FsTestPeer::GetBlock(fs, block).ok());
      ASSERT_TRUE(Xv6FsTestPeer::LogWrite(fs, block).ok());
      ref.Get(block);
      ref.LogWrite(block);
      ++op_blocks;  // An upper bound: rewrites of a block are absorbed.
    }
    if (kind == 9 || op_blocks >= max_op_blocks) {
      ASSERT_TRUE(fs.EndOp().ok());
      ASSERT_TRUE(fs.BeginOp().ok());
      ref.EndOp();
      op_blocks = 0;
    }
    ASSERT_EQ(trace.size(), ref.trace().size()) << "op " << op;
    ASSERT_EQ(Xv6FsTestPeer::LruOrder(fs),
              std::vector<uint32_t>(ref.lru().begin(), ref.lru().end()))
        << "op " << op;
  }
  ASSERT_TRUE(fs.EndOp().ok());
  ref.EndOp();
  EXPECT_EQ(trace, ref.trace());
  EXPECT_GT(ref.hits(), 0u);
  EXPECT_EQ(fs.stats().cache_hits - before.cache_hits, ref.hits());
  EXPECT_EQ(fs.stats().block_reads - before.block_reads,
            static_cast<uint64_t>(std::count_if(trace.begin(), trace.end(), [](const auto& t) {
              return t.first == kBlockRead;
            })));
}

TEST(BufferCacheDifferential, MatchesReferenceModel) {
  for (const size_t capacity : {size_t{2}, size_t{5}, size_t{64}}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      RunBufferCacheDifferential(capacity, seed);
    }
  }
}

TEST(BufferCache, FailedReadLeavesNoEntryAndIsRetried) {
  RamDisk disk(4096);
  BlockTrace trace;
  bool fail_reads = false;
  Xv6Fs fs(RecordingTransport(&disk, &trace, &fail_reads),
           Xv6Fs::Config{4096, 8});
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  const uint32_t block = fs.superblock().data_start;
  const uint64_t reads = fs.stats().block_reads;

  fail_reads = true;
  EXPECT_FALSE(Xv6FsTestPeer::GetBlock(fs, block).ok());
  EXPECT_FALSE(Xv6FsTestPeer::Cached(fs, block));
  EXPECT_TRUE(Xv6FsTestPeer::LruOrder(fs).empty());
  EXPECT_EQ(fs.stats().block_reads, reads);

  fail_reads = false;
  trace.clear();
  ASSERT_TRUE(Xv6FsTestPeer::GetBlock(fs, block).ok());
  EXPECT_EQ(trace, (BlockTrace{{kBlockRead, block}}));
  EXPECT_TRUE(Xv6FsTestPeer::Cached(fs, block));
  EXPECT_EQ(fs.stats().block_reads, reads + 1);
}

TEST(FsRpc, ClientWriteSendsExactlyTheNewLength) {
  std::vector<std::vector<uint8_t>> sent;
  FsClient client([&](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    const std::span<const uint8_t> p = msg.payload();
    sent.emplace_back(p.begin(), p.end());
    return mk::Message(1);
  });
  const std::vector<uint8_t> large(300, 0xaa);
  const std::vector<uint8_t> small = {1, 2, 3};
  ASSERT_TRUE(client.Write(7, 100, large).ok());
  ASSERT_TRUE(client.Write(9, 4, small).ok());
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].size(), 8 + large.size());
  const std::vector<uint8_t> want = {9, 0, 0, 0, 4, 0, 0, 0, 1, 2, 3};
  EXPECT_EQ(sent[1], want);
}

TEST(RamDisk, ReadWriteRoundTrip) {
  RamDisk disk(16);
  std::vector<uint8_t> in(kBlockSize, 0x77);
  ASSERT_TRUE(disk.Write(nullptr, 3, in).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(disk.Read(nullptr, 3, out).ok());
  EXPECT_EQ(in, out);
  EXPECT_FALSE(disk.Read(nullptr, 16, out).ok());
  EXPECT_EQ(disk.reads(), 1u);  // Rejected reads are not counted.
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(FsRpc, ClientServerRoundTripOverDirectHandler) {
  RamDisk disk(4096);
  Xv6Fs fs(DirectBlockTransport(&disk));
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());

  // Drive the RPC handler with a fake CallEnv on a standalone machine.
  hw::MachineConfig mc;
  mc.num_cores = 1;
  mc.ram_bytes = 1ULL << 30;
  hw::Machine machine(mc);
  mk::Kernel kernel(machine, mk::Sel4Profile(), mk::KernelOptions{false, {}, 1 << 20});
  ASSERT_TRUE(kernel.Boot().ok());
  auto proc = kernel.CreateProcess("fs");
  ASSERT_TRUE(proc.ok());

  mk::Handler handler = MakeFsHandler(&fs);
  FsClient client([&](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    mk::CallEnv env{kernel, machine.core(0), **proc, msg};
    return handler(env);
  });

  auto inum = client.Create("/rpc.txt");
  ASSERT_TRUE(inum.ok());
  const std::string text = "over the wire";
  ASSERT_TRUE(client
                  .Write(*inum, 0,
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t*>(text.data()), text.size()))
                  .ok());
  auto data = client.Read(*inum, 0, 64);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(std::string(data->begin(), data->end()), text);
  EXPECT_EQ(*client.Size(*inum), text.size());
  EXPECT_EQ(*client.Open("/rpc.txt"), *inum);
  ASSERT_TRUE(client.Unlink("/rpc.txt").ok());
  EXPECT_FALSE(client.Open("/rpc.txt").ok());
  EXPECT_EQ(client.rpcs(), 7u);
}

}  // namespace
}  // namespace fsys
