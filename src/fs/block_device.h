// Block devices and the block RPC protocol.
//
// The paper's storage stack is SQLite3 -> xv6fs -> RAM-disk block device,
// with each arrow an IPC hop. RamDisk is the device; BlockTransport is how
// the file system reaches it — a plain function, so the same file system
// code runs over direct calls (baseline), kernel IPC or SkyBridge.

#ifndef SRC_FS_BLOCK_DEVICE_H_
#define SRC_FS_BLOCK_DEVICE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/status.h"
#include "src/mk/kernel.h"
#include "src/mk/message.h"

namespace fsys {

inline constexpr uint32_t kBlockSize = 512;

// Block RPC message tags.
inline constexpr uint64_t kBlockRead = 1;
inline constexpr uint64_t kBlockWrite = 2;
inline constexpr uint64_t kBlockSizeQuery = 3;

// An in-memory disk. Reads and writes also touch the owning process's heap
// through the core so the traffic is charged like real buffer memory.
class RamDisk {
 public:
  // `process` / `heap_base` locate the charged backing region; they may be
  // null/0 for uncharged unit-test use.
  RamDisk(uint32_t num_blocks, mk::Process* process = nullptr, hw::Gva heap_base = 0);

  uint32_t num_blocks() const { return num_blocks_; }

  sb::Status Read(hw::Core* core, uint32_t block, std::span<uint8_t> out);
  sb::Status Write(hw::Core* core, uint32_t block, std::span<const uint8_t> in);

  // An mk::Handler speaking the block RPC protocol.
  mk::Handler MakeHandler();

  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  uint32_t num_blocks_;
  mk::Process* process_;
  hw::Gva heap_base_;
  std::vector<uint8_t> data_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

// How a component issues block requests: returns the reply message.
using BlockTransport = std::function<sb::StatusOr<mk::Message>(const mk::Message&)>;

// A transport straight to `disk`: no kernel and no charged core. A read's
// reply borrows a block owned by the transport, valid until its next call.
BlockTransport DirectBlockTransport(RamDisk* disk);

// Client-side wrappers over a BlockTransport. Requests are built on the stack
// and sent borrowed, so a transport must read them through payload().
sb::Status TransportReadBlock(const BlockTransport& transport, uint32_t block,
                              std::span<uint8_t> out);
sb::Status TransportWriteBlock(const BlockTransport& transport, uint32_t block,
                               std::span<const uint8_t> in);

}  // namespace fsys

#endif  // SRC_FS_BLOCK_DEVICE_H_
