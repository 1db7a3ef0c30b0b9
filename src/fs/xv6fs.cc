#include "src/fs/xv6fs.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"

namespace fsys {
namespace {

constexpr uint32_t kInodesPerBlock = kBlockSize / sizeof(DiskInode);
constexpr uint32_t kBitsPerBlock = kBlockSize * 8;
// Geometry Mkfs formats: inode count, and log blocks (header + data).
constexpr uint32_t kNumInodes = 512;
constexpr uint32_t kLogBlocks = kLogCapacity + 1;
constexpr uint32_t kDirentSize = 32;  // u16 inum + 30-char name.

static_assert(sizeof(DiskInode) == 64, "DiskInode must be 64 bytes");

void PutU32(std::span<uint8_t> buf, size_t off, uint32_t v) {
  std::memcpy(buf.data() + off, &v, 4);
}

uint32_t GetU32(std::span<const uint8_t> buf, size_t off) {
  uint32_t v = 0;
  std::memcpy(&v, buf.data() + off, 4);
  return v;
}

}  // namespace

Xv6Fs::Xv6Fs(BlockTransport transport, Config config)
    : transport_(std::move(transport)), config_(config) {}

Xv6Fs::Xv6Fs(BlockTransport transport) : Xv6Fs(std::move(transport), Config{}) {}

// ---------- Buffer cache ----------

void Xv6Fs::ChargeCacheTouch(uint32_t block, bool write) {
  if (core_ != nullptr && cache_base_ != 0) {
    const uint64_t slot = block % config_.buffer_cache_entries;
    (void)core_->TouchData(cache_base_ + slot * kBlockSize, 128, write);
    core_->AdvanceCycles(20);  // Cache lookup logic.
  }
}

sb::StatusOr<Xv6Fs::Buf*> Xv6Fs::GetBlock(uint32_t block) {
  auto it = cache_.find(block);
  if (it != cache_.end()) {
    ++stats_.cache_hits;
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_pos);
    ChargeCacheTouch(block, false);
    return &it->second;
  }
  SB_RETURN_IF_ERROR(EvictIfNeeded());
  // Read straight into the new entry; a failed read leaves no entry behind.
  it = cache_.try_emplace(block).first;
  if (const sb::Status read = TransportReadBlock(transport_, block, it->second.data);
      !read.ok()) {
    cache_.erase(it);
    return read;
  }
  ++stats_.block_reads;
  ChargeCacheTouch(block, true);
  cache_lru_.push_front(block);
  it->second.lru_pos = cache_lru_.begin();
  return &it->second;
}

void Xv6Fs::MarkDirty(uint32_t block) {
  auto it = cache_.find(block);
  SB_CHECK(it != cache_.end());
  it->second.dirty = true;
  ChargeCacheTouch(block, true);
}

sb::Status Xv6Fs::FlushBlock(uint32_t block, Buf& buf) {
  if (!buf.dirty) {
    return sb::OkStatus();
  }
  SB_RETURN_IF_ERROR(TransportWriteBlock(transport_, block, buf.data));
  ++stats_.block_writes;
  buf.dirty = false;
  return sb::OkStatus();
}

sb::Status Xv6Fs::EvictIfNeeded() {
  while (cache_.size() >= config_.buffer_cache_entries) {
    // Evict the least-recently used clean block; flush if dirty (dirty
    // blocks inside a transaction are pinned until commit).
    uint32_t victim = UINT32_MAX;
    for (auto it = cache_lru_.rbegin(); it != cache_lru_.rend(); ++it) {
      const bool pinned =
          in_op_ && std::find(op_blocks_.begin(), op_blocks_.end(), *it) != op_blocks_.end();
      if (!pinned) {
        victim = *it;
        break;
      }
    }
    if (victim == UINT32_MAX) {
      return sb::ResourceExhausted("buffer cache full of pinned blocks");
    }
    auto it = cache_.find(victim);
    SB_CHECK(it != cache_.end());
    SB_RETURN_IF_ERROR(FlushBlock(victim, it->second));
    cache_lru_.erase(it->second.lru_pos);
    cache_.erase(it);
  }
  return sb::OkStatus();
}

// ---------- Log ----------

sb::Status Xv6Fs::BeginOp() {
  if (in_op_) {
    return sb::FailedPrecondition("transaction already open");
  }
  in_op_ = true;
  op_blocks_.clear();
  return sb::OkStatus();
}

sb::Status Xv6Fs::LogWrite(uint32_t block) {
  SB_CHECK(in_op_) << "LogWrite outside a transaction";
  MarkDirty(block);
  if (std::find(op_blocks_.begin(), op_blocks_.end(), block) != op_blocks_.end()) {
    ++stats_.log_absorptions;  // Absorbed: already in this op.
    return sb::OkStatus();
  }
  if (op_blocks_.size() >= kLogCapacity) {
    return sb::ResourceExhausted("transaction exceeds log capacity");
  }
  op_blocks_.push_back(block);
  return sb::OkStatus();
}

sb::Status Xv6Fs::Commit() {
  if (op_blocks_.empty()) {
    return sb::OkStatus();
  }
  // 1. Copy dirty blocks into the log area.
  for (size_t i = 0; i < op_blocks_.size(); ++i) {
    auto it = cache_.find(op_blocks_[i]);
    SB_CHECK(it != cache_.end());
    SB_RETURN_IF_ERROR(TransportWriteBlock(
        transport_, sb_.log_start + 1 + static_cast<uint32_t>(i), it->second.data));
    ++stats_.block_writes;
  }
  // 2. Write the log header: the commit point.
  std::array<uint8_t, kBlockSize> header{};
  PutU32(header, 0, static_cast<uint32_t>(op_blocks_.size()));
  for (size_t i = 0; i < op_blocks_.size(); ++i) {
    PutU32(header, 4 + i * 4, op_blocks_[i]);
  }
  SB_RETURN_IF_ERROR(TransportWriteBlock(transport_, sb_.log_start, header));
  ++stats_.block_writes;
  // 3. Install to home locations.
  for (const uint32_t block : op_blocks_) {
    auto it = cache_.find(block);
    SB_CHECK(it != cache_.end());
    SB_RETURN_IF_ERROR(FlushBlock(block, it->second));
  }
  // 4. Clear the header.
  header.fill(0);
  SB_RETURN_IF_ERROR(TransportWriteBlock(transport_, sb_.log_start, header));
  ++stats_.block_writes;
  return sb::OkStatus();
}

sb::Status Xv6Fs::EndOp() {
  if (!in_op_) {
    return sb::FailedPrecondition("no open transaction");
  }
  ++stats_.transactions;
  const sb::Status status = Commit();
  in_op_ = false;
  op_blocks_.clear();
  return status;
}

sb::Status Xv6Fs::RecoverLog() {
  std::array<uint8_t, kBlockSize> header{};
  SB_RETURN_IF_ERROR(TransportReadBlock(transport_, sb_.log_start, header));
  const uint32_t n = GetU32(header, 0);
  if (n == 0 || n > kLogCapacity) {
    return sb::OkStatus();  // Nothing committed (or garbage): done.
  }
  // Replay: install logged blocks to their home locations.
  std::array<uint8_t, kBlockSize> block{};
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t home = GetU32(header, 4 + i * 4);
    SB_RETURN_IF_ERROR(TransportReadBlock(transport_, sb_.log_start + 1 + i, block));
    SB_RETURN_IF_ERROR(TransportWriteBlock(transport_, home, block));
  }
  header.fill(0);
  return TransportWriteBlock(transport_, sb_.log_start, header);
}

// ---------- Format / mount ----------

sb::Status Xv6Fs::Mkfs() {
  Superblock sb;
  sb.magic = kFsMagic;
  sb.size = config_.total_blocks;
  sb.nlog = kLogBlocks;
  sb.ninodes = kNumInodes;
  sb.log_start = 1;
  sb.inode_start = sb.log_start + sb.nlog;
  const uint32_t ninode_blocks = (sb.ninodes + kInodesPerBlock - 1) / kInodesPerBlock;
  sb.bmap_start = sb.inode_start + ninode_blocks;
  const uint32_t nbmap_blocks = (sb.size + kBitsPerBlock - 1) / kBitsPerBlock;
  sb.data_start = sb.bmap_start + nbmap_blocks;
  if (sb.data_start + 16 >= sb.size) {
    return sb::InvalidArgument("device too small for this geometry");
  }

  // Zero the metadata area.
  const std::array<uint8_t, kBlockSize> zero{};
  for (uint32_t b = 0; b < sb.data_start; ++b) {
    SB_RETURN_IF_ERROR(TransportWriteBlock(transport_, b, zero));
  }
  // Superblock.
  std::array<uint8_t, kBlockSize> sbblock{};
  std::memcpy(sbblock.data(), &sb, sizeof(sb));
  SB_RETURN_IF_ERROR(TransportWriteBlock(transport_, 0, sbblock));

  // Mark metadata blocks used in the bitmap.
  sb_ = sb;
  mounted_ = true;
  cache_.clear();
  cache_lru_.clear();
  SB_RETURN_IF_ERROR(BeginOp());
  for (uint32_t b = 0; b < sb.data_start; ++b) {
    const uint32_t bmap_block = sb.bmap_start + b / kBitsPerBlock;
    SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(bmap_block));
    buf->data[(b % kBitsPerBlock) / 8] |= static_cast<uint8_t>(1u << (b % 8));
    SB_RETURN_IF_ERROR(LogWrite(bmap_block));
  }
  // Root directory: inode 1.
  SB_ASSIGN_OR_RETURN(const uint32_t root, AllocInode(InodeType::kDir));
  if (root != kRootInum) {
    return sb::Internal("root inode is not inode 1");
  }
  SB_RETURN_IF_ERROR(EndOp());
  return sb::OkStatus();
}

sb::Status Xv6Fs::Mount() {
  std::array<uint8_t, kBlockSize> sbblock{};
  SB_RETURN_IF_ERROR(TransportReadBlock(transport_, 0, sbblock));
  std::memcpy(&sb_, sbblock.data(), sizeof(sb_));
  if (sb_.magic != kFsMagic) {
    return sb::FailedPrecondition("no file system on device");
  }
  mounted_ = true;
  cache_.clear();
  cache_lru_.clear();
  return RecoverLog();
}

// ---------- Inodes ----------

sb::StatusOr<uint32_t> Xv6Fs::AllocInode(InodeType type) {
  for (uint32_t inum = 1; inum < sb_.ninodes; ++inum) {
    DiskInode inode;
    SB_RETURN_IF_ERROR(ReadInode(inum, inode));
    if (inode.type == static_cast<uint16_t>(InodeType::kFree)) {
      inode = DiskInode{};
      inode.type = static_cast<uint16_t>(type);
      inode.nlink = 1;
      SB_RETURN_IF_ERROR(WriteInode(inum, inode));
      return inum;
    }
  }
  return sb::ResourceExhausted("out of inodes");
}

sb::Status Xv6Fs::ReadInode(uint32_t inum, DiskInode& out) {
  if (inum == 0 || inum >= sb_.ninodes) {
    return sb::OutOfRange("bad inum");
  }
  const uint32_t block = sb_.inode_start + inum / kInodesPerBlock;
  SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(block));
  std::memcpy(&out, buf->data.data() + (inum % kInodesPerBlock) * sizeof(DiskInode),
              sizeof(DiskInode));
  return sb::OkStatus();
}

sb::Status Xv6Fs::WriteInode(uint32_t inum, const DiskInode& inode) {
  const uint32_t block = sb_.inode_start + inum / kInodesPerBlock;
  SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(block));
  std::memcpy(buf->data.data() + (inum % kInodesPerBlock) * sizeof(DiskInode), &inode,
              sizeof(DiskInode));
  return LogWrite(block);
}

sb::Status Xv6Fs::FreeInode(uint32_t inum) {
  DiskInode inode;
  SB_RETURN_IF_ERROR(ReadInode(inum, inode));
  inode.type = static_cast<uint16_t>(InodeType::kFree);
  return WriteInode(inum, inode);
}

// ---------- Free bitmap ----------

sb::StatusOr<uint32_t> Xv6Fs::AllocBlock() {
  for (uint32_t b = sb_.data_start; b < sb_.size; ++b) {
    const uint32_t bmap_block = sb_.bmap_start + b / kBitsPerBlock;
    SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(bmap_block));
    const uint32_t byte = (b % kBitsPerBlock) / 8;
    const uint8_t mask = static_cast<uint8_t>(1u << (b % 8));
    if ((buf->data[byte] & mask) == 0) {
      buf->data[byte] |= mask;
      SB_RETURN_IF_ERROR(LogWrite(bmap_block));
      // Zero the new block.
      SB_ASSIGN_OR_RETURN(Buf * data_buf, GetBlock(b));
      data_buf->data.fill(0);
      SB_RETURN_IF_ERROR(LogWrite(b));
      return b;
    }
  }
  return sb::ResourceExhausted("out of data blocks");
}

sb::Status Xv6Fs::FreeBlock(uint32_t block) {
  const uint32_t bmap_block = sb_.bmap_start + block / kBitsPerBlock;
  SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(bmap_block));
  const uint32_t byte = (block % kBitsPerBlock) / 8;
  const uint8_t mask = static_cast<uint8_t>(1u << (block % 8));
  if ((buf->data[byte] & mask) == 0) {
    return sb::Internal("double free of block");
  }
  buf->data[byte] = static_cast<uint8_t>(buf->data[byte] & ~mask);
  return LogWrite(bmap_block);
}

sb::StatusOr<uint32_t> Xv6Fs::BlockMap(DiskInode& inode, uint32_t inum, uint32_t fbn,
                                       bool alloc) {
  auto ensure = [&](uint32_t& slot) -> sb::StatusOr<uint32_t> {
    if (slot == 0) {
      if (!alloc) {
        return sb::NotFound("hole in file");
      }
      SB_ASSIGN_OR_RETURN(slot, AllocBlock());
      SB_RETURN_IF_ERROR(WriteInode(inum, inode));
    }
    return slot;
  };
  auto ensure_indirect = [&](uint32_t table_block, uint32_t index) -> sb::StatusOr<uint32_t> {
    SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(table_block));
    uint32_t entry = GetU32(buf->data, index * 4);
    if (entry == 0) {
      if (!alloc) {
        return sb::NotFound("hole in file (indirect)");
      }
      SB_ASSIGN_OR_RETURN(entry, AllocBlock());
      SB_ASSIGN_OR_RETURN(buf, GetBlock(table_block));  // May have been evicted.
      PutU32(buf->data, index * 4, entry);
      SB_RETURN_IF_ERROR(LogWrite(table_block));
    }
    return entry;
  };

  if (fbn < kNumDirect) {
    return ensure(inode.addrs[fbn]);
  }
  fbn -= kNumDirect;
  if (fbn < kPtrsPerBlock) {
    SB_ASSIGN_OR_RETURN(const uint32_t indirect, ensure(inode.addrs[kNumDirect]));
    return ensure_indirect(indirect, fbn);
  }
  fbn -= kPtrsPerBlock;
  if (fbn < kPtrsPerBlock * kPtrsPerBlock) {
    SB_ASSIGN_OR_RETURN(const uint32_t dbl, ensure(inode.addrs[kNumDirect + 1]));
    SB_ASSIGN_OR_RETURN(const uint32_t mid, ensure_indirect(dbl, fbn / kPtrsPerBlock));
    return ensure_indirect(mid, fbn % kPtrsPerBlock);
  }
  return sb::OutOfRange("file too large");
}

// ---------- Read / write ----------

sb::Status Xv6Fs::WriteFile(uint32_t inum, uint32_t offset, std::span<const uint8_t> data) {
  if (!mounted_) {
    return sb::FailedPrecondition("not mounted");
  }
  const bool own_op = !in_op_;
  if (own_op) {
    SB_RETURN_IF_ERROR(BeginOp());
  }
  if (core_ != nullptr) {
    core_->AdvanceCycles(120);  // Syscall-level FS logic.
  }
  DiskInode inode;
  SB_RETURN_IF_ERROR(ReadInode(inum, inode));
  if (inode.type != static_cast<uint16_t>(InodeType::kFile) &&
      inode.type != static_cast<uint16_t>(InodeType::kDir)) {
    return sb::InvalidArgument("not a file");
  }
  uint32_t pos = offset;
  size_t done = 0;
  while (done < data.size()) {
    SB_ASSIGN_OR_RETURN(const uint32_t block, BlockMap(inode, inum, pos / kBlockSize, true));
    const uint32_t in_block = pos % kBlockSize;
    const size_t chunk = std::min<size_t>(data.size() - done, kBlockSize - in_block);
    SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(block));
    std::memcpy(buf->data.data() + in_block, data.data() + done, chunk);
    SB_RETURN_IF_ERROR(LogWrite(block));
    pos += static_cast<uint32_t>(chunk);
    done += chunk;
  }
  if (pos > inode.size) {
    inode.size = pos;
  }
  SB_RETURN_IF_ERROR(WriteInode(inum, inode));
  if (own_op) {
    SB_RETURN_IF_ERROR(EndOp());
  }
  return sb::OkStatus();
}

sb::StatusOr<uint32_t> Xv6Fs::ReadFile(uint32_t inum, uint32_t offset, std::span<uint8_t> out) {
  if (!mounted_) {
    return sb::FailedPrecondition("not mounted");
  }
  if (core_ != nullptr) {
    core_->AdvanceCycles(100);
  }
  DiskInode inode;
  SB_RETURN_IF_ERROR(ReadInode(inum, inode));
  if (offset >= inode.size) {
    return 0u;
  }
  const uint32_t to_read =
      std::min<uint32_t>(static_cast<uint32_t>(out.size()), inode.size - offset);
  uint32_t pos = offset;
  uint32_t done = 0;
  while (done < to_read) {
    auto block = BlockMap(inode, inum, pos / kBlockSize, false);
    const uint32_t in_block = pos % kBlockSize;
    const uint32_t chunk =
        std::min<uint32_t>(to_read - done, kBlockSize - in_block);
    if (block.ok()) {
      SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(*block));
      std::memcpy(out.data() + done, buf->data.data() + in_block, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);  // Hole.
    }
    pos += chunk;
    done += chunk;
  }
  return to_read;
}

sb::StatusOr<uint32_t> Xv6Fs::FileSize(uint32_t inum) {
  DiskInode inode;
  SB_RETURN_IF_ERROR(ReadInode(inum, inode));
  return inode.size;
}

sb::Status Xv6Fs::Truncate(uint32_t inum) {
  const bool own_op = !in_op_;
  if (own_op) {
    SB_RETURN_IF_ERROR(BeginOp());
  }
  DiskInode inode;
  SB_RETURN_IF_ERROR(ReadInode(inum, inode));
  for (uint32_t i = 0; i < kNumDirect; ++i) {
    if (inode.addrs[i] != 0) {
      SB_RETURN_IF_ERROR(FreeBlock(inode.addrs[i]));
      inode.addrs[i] = 0;
    }
  }
  if (inode.addrs[kNumDirect] != 0) {
    SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(inode.addrs[kNumDirect]));
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      const uint32_t entry = GetU32(buf->data, i * 4);
      if (entry != 0) {
        SB_RETURN_IF_ERROR(FreeBlock(entry));
        SB_ASSIGN_OR_RETURN(buf, GetBlock(inode.addrs[kNumDirect]));
      }
    }
    SB_RETURN_IF_ERROR(FreeBlock(inode.addrs[kNumDirect]));
    inode.addrs[kNumDirect] = 0;
  }
  if (inode.addrs[kNumDirect + 1] != 0) {
    SB_ASSIGN_OR_RETURN(Buf * dbl, GetBlock(inode.addrs[kNumDirect + 1]));
    std::vector<uint32_t> mids;
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      const uint32_t mid = GetU32(dbl->data, i * 4);
      if (mid != 0) {
        mids.push_back(mid);
      }
    }
    for (const uint32_t mid : mids) {
      SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(mid));
      std::vector<uint32_t> leaves;
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        const uint32_t leaf = GetU32(buf->data, i * 4);
        if (leaf != 0) {
          leaves.push_back(leaf);
        }
      }
      for (const uint32_t leaf : leaves) {
        SB_RETURN_IF_ERROR(FreeBlock(leaf));
      }
      SB_RETURN_IF_ERROR(FreeBlock(mid));
    }
    SB_RETURN_IF_ERROR(FreeBlock(inode.addrs[kNumDirect + 1]));
    inode.addrs[kNumDirect + 1] = 0;
  }
  inode.size = 0;
  SB_RETURN_IF_ERROR(WriteInode(inum, inode));
  if (own_op) {
    SB_RETURN_IF_ERROR(EndOp());
  }
  return sb::OkStatus();
}

// ---------- Consistency check ----------

sb::Status Xv6Fs::Fsck() {
  if (!mounted_) {
    return sb::FailedPrecondition("not mounted");
  }
  // 1. Collect every block referenced by every in-use inode.
  std::unordered_map<uint32_t, uint32_t> block_owner;  // block -> inum
  std::vector<bool> inode_used(sb_.ninodes, false);
  auto claim = [&](uint32_t block, uint32_t inum) -> sb::Status {
    if (block < sb_.data_start || block >= sb_.size) {
      return sb::Internal("inode " + std::to_string(inum) + " references block " +
                          std::to_string(block) + " outside the data area");
    }
    if (auto [it, inserted] = block_owner.emplace(block, inum); !inserted) {
      return sb::Internal("block " + std::to_string(block) + " referenced by inodes " +
                          std::to_string(it->second) + " and " + std::to_string(inum));
    }
    return sb::OkStatus();
  };

  for (uint32_t inum = 1; inum < sb_.ninodes; ++inum) {
    DiskInode inode;
    SB_RETURN_IF_ERROR(ReadInode(inum, inode));
    if (inode.type == static_cast<uint16_t>(InodeType::kFree)) {
      continue;
    }
    inode_used[inum] = true;
    for (uint32_t i = 0; i < kNumDirect; ++i) {
      if (inode.addrs[i] != 0) {
        SB_RETURN_IF_ERROR(claim(inode.addrs[i], inum));
      }
    }
    auto claim_table = [&](uint32_t table, auto&& claim_entry) -> sb::Status {
      SB_RETURN_IF_ERROR(claim(table, inum));
      SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(table));
      std::vector<uint32_t> entries;
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        const uint32_t entry = GetU32(buf->data, i * 4);
        if (entry != 0) {
          entries.push_back(entry);
        }
      }
      for (const uint32_t entry : entries) {
        SB_RETURN_IF_ERROR(claim_entry(entry));
      }
      return sb::OkStatus();
    };
    if (inode.addrs[kNumDirect] != 0) {
      SB_RETURN_IF_ERROR(claim_table(inode.addrs[kNumDirect],
                                     [&](uint32_t leaf) { return claim(leaf, inum); }));
    }
    if (inode.addrs[kNumDirect + 1] != 0) {
      SB_RETURN_IF_ERROR(claim_table(inode.addrs[kNumDirect + 1], [&](uint32_t mid) {
        return claim_table(mid, [&](uint32_t leaf) { return claim(leaf, inum); });
      }));
    }
  }

  // 2. Compare against the free bitmap: every claimed block must be marked,
  // and no unclaimed data block may be marked.
  for (uint32_t b = sb_.data_start; b < sb_.size; ++b) {
    const uint32_t bmap_block = sb_.bmap_start + b / kBitsPerBlock;
    SB_ASSIGN_OR_RETURN(Buf * buf, GetBlock(bmap_block));
    const bool marked = (buf->data[(b % kBitsPerBlock) / 8] >> (b % 8)) & 1;
    const bool claimed = block_owner.contains(b);
    if (claimed && !marked) {
      return sb::Internal("block " + std::to_string(b) + " in use but free in bitmap");
    }
    if (!claimed && marked) {
      return sb::Internal("block " + std::to_string(b) + " marked used but unreferenced");
    }
  }

  // 3. Directory entries point at in-use inodes (walk from the root).
  std::vector<uint32_t> stack = {kRootInum};
  std::vector<bool> visited(sb_.ninodes, false);
  while (!stack.empty()) {
    const uint32_t dir = stack.back();
    stack.pop_back();
    if (visited[dir]) {
      continue;
    }
    visited[dir] = true;
    DiskInode dino;
    SB_RETURN_IF_ERROR(ReadInode(dir, dino));
    if (dino.type != static_cast<uint16_t>(InodeType::kDir)) {
      continue;
    }
    std::vector<uint8_t> entry(kDirentSize);
    for (uint32_t off = 0; off < dino.size; off += kDirentSize) {
      SB_ASSIGN_OR_RETURN(const uint32_t n, ReadFile(dir, off, entry));
      if (n < kDirentSize) {
        break;
      }
      uint16_t inum = 0;
      std::memcpy(&inum, entry.data(), 2);
      if (inum == 0) {
        continue;
      }
      if (inum >= sb_.ninodes || !inode_used[inum]) {
        return sb::Internal("directory " + std::to_string(dir) +
                            " references dead inode " + std::to_string(inum));
      }
      stack.push_back(inum);
    }
  }
  // 4. No in-use inode is unreachable from the root.
  for (uint32_t inum = 1; inum < sb_.ninodes; ++inum) {
    if (inode_used[inum] && !visited[inum]) {
      return sb::Internal("inode " + std::to_string(inum) + " in use but unreachable");
    }
  }
  return sb::OkStatus();
}

// ---------- Directories ----------

sb::StatusOr<uint32_t> Xv6Fs::DirLookup(uint32_t dir_inum, const std::string& name) {
  DiskInode dir;
  SB_RETURN_IF_ERROR(ReadInode(dir_inum, dir));
  if (dir.type != static_cast<uint16_t>(InodeType::kDir)) {
    return sb::InvalidArgument("not a directory");
  }
  std::vector<uint8_t> entry(kDirentSize);
  for (uint32_t off = 0; off < dir.size; off += kDirentSize) {
    SB_ASSIGN_OR_RETURN(const uint32_t n, ReadFile(dir_inum, off, entry));
    if (n < kDirentSize) {
      break;
    }
    uint16_t inum = 0;
    std::memcpy(&inum, entry.data(), 2);
    if (inum == 0) {
      continue;
    }
    char ename[kDirNameLen + 1] = {};
    std::memcpy(ename, entry.data() + 2, kDirNameLen);
    if (name == ename) {
      return inum;
    }
  }
  return sb::NotFound("no such directory entry");
}

sb::Status Xv6Fs::DirLink(uint32_t dir_inum, const std::string& name, uint32_t inum) {
  if (name.empty() || name.size() > kDirNameLen) {
    return sb::InvalidArgument("bad file name");
  }
  if (DirLookup(dir_inum, name).ok()) {
    return sb::AlreadyExists("name exists");
  }
  DiskInode dir;
  SB_RETURN_IF_ERROR(ReadInode(dir_inum, dir));
  // Find a free slot.
  std::vector<uint8_t> entry(kDirentSize);
  uint32_t off = 0;
  for (; off < dir.size; off += kDirentSize) {
    SB_ASSIGN_OR_RETURN(const uint32_t n, ReadFile(dir_inum, off, entry));
    if (n < kDirentSize) {
      break;
    }
    uint16_t existing = 0;
    std::memcpy(&existing, entry.data(), 2);
    if (existing == 0) {
      break;
    }
  }
  std::fill(entry.begin(), entry.end(), 0);
  const uint16_t inum16 = static_cast<uint16_t>(inum);
  std::memcpy(entry.data(), &inum16, 2);
  std::memcpy(entry.data() + 2, name.data(), name.size());
  return WriteFile(dir_inum, off, entry);
}

sb::Status Xv6Fs::DirUnlink(uint32_t dir_inum, const std::string& name) {
  DiskInode dir;
  SB_RETURN_IF_ERROR(ReadInode(dir_inum, dir));
  std::vector<uint8_t> entry(kDirentSize);
  for (uint32_t off = 0; off < dir.size; off += kDirentSize) {
    SB_ASSIGN_OR_RETURN(const uint32_t n, ReadFile(dir_inum, off, entry));
    if (n < kDirentSize) {
      break;
    }
    uint16_t inum = 0;
    std::memcpy(&inum, entry.data(), 2);
    if (inum == 0) {
      continue;
    }
    char ename[kDirNameLen + 1] = {};
    std::memcpy(ename, entry.data() + 2, kDirNameLen);
    if (name == ename) {
      std::fill(entry.begin(), entry.end(), 0);
      return WriteFile(dir_inum, off, entry);
    }
  }
  return sb::NotFound("no such directory entry");
}

sb::StatusOr<uint32_t> Xv6Fs::ResolveParent(const std::string& path, std::string* name) {
  if (path.empty() || path[0] != '/') {
    return sb::InvalidArgument("path must be absolute");
  }
  uint32_t dir = kRootInum;
  size_t start = 1;
  while (true) {
    const size_t slash = path.find('/', start);
    if (slash == std::string::npos) {
      *name = path.substr(start);
      if (name->empty()) {
        return sb::InvalidArgument("path ends in /");
      }
      return dir;
    }
    const std::string part = path.substr(start, slash - start);
    SB_ASSIGN_OR_RETURN(dir, DirLookup(dir, part));
    start = slash + 1;
  }
}

sb::StatusOr<uint32_t> Xv6Fs::Create(const std::string& path, InodeType type) {
  const bool own_op = !in_op_;
  if (own_op) {
    SB_RETURN_IF_ERROR(BeginOp());
  }
  auto result = [&]() -> sb::StatusOr<uint32_t> {
    std::string name;
    SB_ASSIGN_OR_RETURN(const uint32_t dir, ResolveParent(path, &name));
    if (auto existing = DirLookup(dir, name); existing.ok()) {
      return sb::AlreadyExists("file exists");
    }
    SB_ASSIGN_OR_RETURN(const uint32_t inum, AllocInode(type));
    SB_RETURN_IF_ERROR(DirLink(dir, name, inum));
    return inum;
  }();
  if (own_op) {
    SB_RETURN_IF_ERROR(EndOp());
  }
  return result;
}

sb::StatusOr<uint32_t> Xv6Fs::Lookup(const std::string& path) {
  std::string name;
  SB_ASSIGN_OR_RETURN(const uint32_t dir, ResolveParent(path, &name));
  return DirLookup(dir, name);
}

sb::Status Xv6Fs::Unlink(const std::string& path) {
  const bool own_op = !in_op_;
  if (own_op) {
    SB_RETURN_IF_ERROR(BeginOp());
  }
  auto result = [&]() -> sb::Status {
    std::string name;
    SB_ASSIGN_OR_RETURN(const uint32_t dir, ResolveParent(path, &name));
    SB_ASSIGN_OR_RETURN(const uint32_t inum, DirLookup(dir, name));
    SB_RETURN_IF_ERROR(DirUnlink(dir, name));
    SB_RETURN_IF_ERROR(Truncate(inum));
    return FreeInode(inum);
  }();
  if (own_op) {
    SB_RETURN_IF_ERROR(EndOp());
  }
  return result;
}

sb::Status Xv6Fs::Rename(const std::string& from, const std::string& to) {
  const bool own_op = !in_op_;
  if (own_op) {
    SB_RETURN_IF_ERROR(BeginOp());
  }
  auto result = [&]() -> sb::Status {
    std::string from_name;
    SB_ASSIGN_OR_RETURN(const uint32_t from_dir, ResolveParent(from, &from_name));
    SB_ASSIGN_OR_RETURN(const uint32_t inum, DirLookup(from_dir, from_name));
    std::string to_name;
    SB_ASSIGN_OR_RETURN(const uint32_t to_dir, ResolveParent(to, &to_name));
    // Replace an existing target (POSIX rename semantics).
    if (auto existing = DirLookup(to_dir, to_name); existing.ok()) {
      if (*existing == inum) {
        return sb::OkStatus();  // Rename onto itself.
      }
      SB_RETURN_IF_ERROR(DirUnlink(to_dir, to_name));
      SB_RETURN_IF_ERROR(Truncate(*existing));
      SB_RETURN_IF_ERROR(FreeInode(*existing));
    }
    SB_RETURN_IF_ERROR(DirLink(to_dir, to_name, inum));
    return DirUnlink(from_dir, from_name);
  }();
  if (own_op) {
    SB_RETURN_IF_ERROR(EndOp());
  }
  return result;
}

sb::StatusOr<std::vector<std::string>> Xv6Fs::ListDir(const std::string& path) {
  uint32_t dir_inum = kRootInum;
  if (path != "/") {
    SB_ASSIGN_OR_RETURN(dir_inum, Lookup(path));
  }
  DiskInode dir;
  SB_RETURN_IF_ERROR(ReadInode(dir_inum, dir));
  if (dir.type != static_cast<uint16_t>(InodeType::kDir)) {
    return sb::InvalidArgument("not a directory");
  }
  std::vector<std::string> names;
  std::vector<uint8_t> entry(kDirentSize);
  for (uint32_t off = 0; off < dir.size; off += kDirentSize) {
    SB_ASSIGN_OR_RETURN(const uint32_t n, ReadFile(dir_inum, off, entry));
    if (n < kDirentSize) {
      break;
    }
    uint16_t inum = 0;
    std::memcpy(&inum, entry.data(), 2);
    if (inum == 0) {
      continue;
    }
    char ename[kDirNameLen + 1] = {};
    std::memcpy(ename, entry.data() + 2, kDirNameLen);
    names.emplace_back(ename);
  }
  return names;
}

}  // namespace fsys
