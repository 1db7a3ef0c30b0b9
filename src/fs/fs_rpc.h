// File-system RPC: the protocol between SQLite-like clients and the xv6fs
// server process (one IPC per operation, like the paper's stack).

#ifndef SRC_FS_FS_RPC_H_
#define SRC_FS_FS_RPC_H_

#include <string>

#include "src/fs/xv6fs.h"
#include "src/mk/kernel.h"

namespace fsys {

enum class FsOp : uint64_t {
  kOpen = 1,    // data: path           -> tag=inum
  kCreate = 2,  // data: path           -> tag=inum
  kRead = 3,    // data: inum,off,len   -> tag=bytes, data=payload
  kWrite = 4,   // data: inum,off,bytes -> tag=1
  kSize = 5,    // data: inum           -> tag=size
  kUnlink = 6,  // data: path           -> tag=1
};

inline constexpr uint64_t kFsError = ~0ULL;

// Wraps an Xv6Fs instance as an IPC handler. The handler charges FS work to
// the serving core and serializes everything behind the FS big lock in
// virtual time.
mk::Handler MakeFsHandler(Xv6Fs* fs, hw::Gva cache_base = 0);

// Client-side stub over any transport (kernel IPC, SkyBridge or direct).
class FsClient {
 public:
  using Transport = std::function<sb::StatusOr<mk::Message>(const mk::Message&)>;

  explicit FsClient(Transport transport) : transport_(std::move(transport)) {}

  sb::StatusOr<uint32_t> Open(const std::string& path);
  sb::StatusOr<uint32_t> Create(const std::string& path);
  sb::StatusOr<std::vector<uint8_t>> Read(uint32_t inum, uint32_t offset, uint32_t len);
  sb::Status Write(uint32_t inum, uint32_t offset, std::span<const uint8_t> data);
  sb::StatusOr<uint32_t> Size(uint32_t inum);
  sb::Status Unlink(const std::string& path);

  uint64_t rpcs() const { return rpcs_; }

 private:
  sb::StatusOr<mk::Message> Call(const mk::Message& msg);

  Transport transport_;
  uint64_t rpcs_ = 0;
  std::vector<uint8_t> wire_;  // Write's request bytes, reused across calls.
};

}  // namespace fsys

#endif  // SRC_FS_FS_RPC_H_
