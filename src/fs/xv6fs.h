// xv6fs: a log-based, crash-consistent file system (the paper's ported
// xv6fs/FSCQ stand-in).
//
// On-disk layout (512-byte blocks):
//   [ superblock | log header + log blocks | inodes | free bitmap | data ]
//
// All writes go through a write-ahead log: inside a transaction
// (BeginOp/EndOp) dirty blocks are absorbed into the log; EndOp commits by
// writing the data into the log area, then the log header, then installing
// the blocks to their home locations and clearing the header — the classic
// xv6 protocol, with its ~2x write amplification.
//
// The file system is single-threaded behind one big lock (big_lock()), which
// is exactly why the paper's Figure 9-11 scalability is poor: "Since the
// xv6fs does not support multi-threading, we use one big lock in the file
// system."
//
// All device traffic goes through a BlockTransport, so the same code runs
// over direct calls, kernel IPC or SkyBridge.

#ifndef SRC_FS_XV6FS_H_
#define SRC_FS_XV6FS_H_

#include <array>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/fs/block_device.h"
#include "src/sim/executor.h"

namespace fsys {

inline constexpr uint32_t kFsMagic = 0x73667678;  // "xvfs"
inline constexpr uint32_t kNumDirect = 12;
inline constexpr uint32_t kPtrsPerBlock = kBlockSize / 4;
inline constexpr uint32_t kMaxFileBlocks =
    kNumDirect + kPtrsPerBlock + kPtrsPerBlock * kPtrsPerBlock;
inline constexpr uint32_t kDirNameLen = 30;
inline constexpr uint32_t kRootInum = 1;
inline constexpr uint32_t kLogCapacity = 63;  // Max blocks per transaction.

enum class InodeType : uint16_t { kFree = 0, kDir = 1, kFile = 2 };

struct Superblock {
  uint32_t magic = 0;
  uint32_t size = 0;        // Total blocks.
  uint32_t nlog = 0;        // Log blocks (incl. header).
  uint32_t ninodes = 0;
  uint32_t log_start = 0;
  uint32_t inode_start = 0;
  uint32_t bmap_start = 0;
  uint32_t data_start = 0;
};

// 64 bytes each, 8 per block.
struct DiskInode {
  uint16_t type = 0;
  uint16_t nlink = 0;
  uint32_t size = 0;
  uint32_t addrs[kNumDirect + 2] = {};  // Direct + single + double indirect.
};

struct FsStats {
  uint64_t block_reads = 0;     // Transport reads issued (cache misses).
  uint64_t block_writes = 0;    // Transport writes issued.
  uint64_t cache_hits = 0;
  uint64_t transactions = 0;
  uint64_t log_absorptions = 0; // Writes absorbed into an open transaction.
};

class Xv6Fs {
 public:
  struct Config {
    uint32_t total_blocks = 8192;
    uint32_t ninodes = 512;
    uint32_t nlog = kLogCapacity + 1;  // Header + data.
    size_t buffer_cache_entries = 64;
  };

  Xv6Fs(BlockTransport transport, Config config);
  explicit Xv6Fs(BlockTransport transport);

  // Formats the device (writes superblock, empty log, root directory).
  sb::Status Mkfs();
  // Reads the superblock and recovers the log if a commit was interrupted.
  sb::Status Mount();

  // ---- Transactions ----
  sb::Status BeginOp();
  sb::Status EndOp();
  bool in_transaction() const { return in_op_; }

  // ---- Files (paths are "/name" or "/dir/name") ----
  sb::StatusOr<uint32_t> Create(const std::string& path, InodeType type = InodeType::kFile);
  sb::StatusOr<uint32_t> Lookup(const std::string& path);
  sb::Status WriteFile(uint32_t inum, uint32_t offset, std::span<const uint8_t> data);
  sb::StatusOr<uint32_t> ReadFile(uint32_t inum, uint32_t offset, std::span<uint8_t> out);
  sb::StatusOr<uint32_t> FileSize(uint32_t inum);
  sb::Status Truncate(uint32_t inum);
  sb::Status Unlink(const std::string& path);
  // Atomically (within one log transaction) moves a file to a new name,
  // replacing any existing target.
  sb::Status Rename(const std::string& from, const std::string& to);
  sb::StatusOr<std::vector<std::string>> ListDir(const std::string& path);

  // Consistency check (fsck): every allocated inode's blocks are marked used
  // and referenced at most once, directory entries point at live inodes, and
  // no unreachable inode is marked in use. Returns Internal with a
  // description on the first inconsistency.
  sb::Status Fsck();

  // The big lock serializing every operation in virtual time.
  sim::FifoResource& big_lock() { return big_lock_; }

  const FsStats& stats() const { return stats_; }
  const Superblock& superblock() const { return sb_; }

  // Optional charged execution: when set, FS logic charges cycles and the
  // buffer cache touches this process heap region on the core.
  void SetChargedContext(hw::Core* core, hw::Gva cache_base) {
    core_ = core;
    cache_base_ = cache_base;
  }

 private:
  friend class Xv6FsTestPeer;  // Drives the buffer cache in unit tests.

  struct Buf {
    std::array<uint8_t, kBlockSize> data;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_pos;  // This block's node in cache_lru_.
  };

  // ---- Buffer cache ----
  sb::StatusOr<Buf*> GetBlock(uint32_t block);
  void MarkDirty(uint32_t block);
  sb::Status FlushBlock(uint32_t block, Buf& buf);
  sb::Status EvictIfNeeded();
  void ChargeCacheTouch(uint32_t block, bool write);

  // ---- Log ----
  sb::Status LogWrite(uint32_t block);  // Record a block in the current op.
  sb::Status Commit();
  sb::Status RecoverLog();

  // ---- Inodes ----
  sb::StatusOr<uint32_t> AllocInode(InodeType type);
  sb::Status ReadInode(uint32_t inum, DiskInode& out);
  sb::Status WriteInode(uint32_t inum, const DiskInode& inode);
  sb::Status FreeInode(uint32_t inum);
  // Block number backing file block `fbn`, allocating if `alloc`.
  sb::StatusOr<uint32_t> BlockMap(DiskInode& inode, uint32_t inum, uint32_t fbn, bool alloc);

  // ---- Free bitmap ----
  sb::StatusOr<uint32_t> AllocBlock();
  sb::Status FreeBlock(uint32_t block);

  // ---- Directories ----
  sb::StatusOr<uint32_t> DirLookup(uint32_t dir_inum, const std::string& name);
  sb::Status DirLink(uint32_t dir_inum, const std::string& name, uint32_t inum);
  sb::Status DirUnlink(uint32_t dir_inum, const std::string& name);
  // Resolves the parent directory of `path`; sets `name` to the final part.
  sb::StatusOr<uint32_t> ResolveParent(const std::string& path, std::string* name);

  BlockTransport transport_;
  Config config_;
  Superblock sb_;
  bool mounted_ = false;
  bool in_op_ = false;
  std::vector<uint32_t> op_blocks_;  // Blocks dirtied by the current op.
  std::unordered_map<uint32_t, Buf> cache_;
  std::list<uint32_t> cache_lru_;  // Front = most recent.
  FsStats stats_;
  sim::FifoResource big_lock_;
  hw::Core* core_ = nullptr;
  hw::Gva cache_base_ = 0;
};

}  // namespace fsys

#endif  // SRC_FS_XV6FS_H_
