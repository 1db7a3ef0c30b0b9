#include "src/fs/block_device.h"

#include <array>
#include <cstring>
#include <memory>

#include "src/base/logging.h"

namespace fsys {

RamDisk::RamDisk(uint32_t num_blocks, mk::Process* process, hw::Gva heap_base)
    : num_blocks_(num_blocks),
      process_(process),
      heap_base_(heap_base),
      data_(static_cast<size_t>(num_blocks) * kBlockSize, 0) {}

sb::Status RamDisk::Read(hw::Core* core, uint32_t block, std::span<uint8_t> out) {
  if (block >= num_blocks_ || out.size() != kBlockSize) {
    return sb::OutOfRange("bad block read");
  }
  ++reads_;
  if (core != nullptr && heap_base_ != 0) {
    // Cost-model traffic; never fails the functional I/O.
    (void)core->TouchData(heap_base_ + static_cast<uint64_t>(block) * kBlockSize, kBlockSize,
                          /*write=*/false);
  }
  std::memcpy(out.data(), data_.data() + static_cast<size_t>(block) * kBlockSize, kBlockSize);
  return sb::OkStatus();
}

sb::Status RamDisk::Write(hw::Core* core, uint32_t block, std::span<const uint8_t> in) {
  if (block >= num_blocks_ || in.size() != kBlockSize) {
    return sb::OutOfRange("bad block write");
  }
  ++writes_;
  if (core != nullptr && heap_base_ != 0) {
    (void)core->TouchData(heap_base_ + static_cast<uint64_t>(block) * kBlockSize, kBlockSize,
                          /*write=*/true);
  }
  std::memcpy(data_.data() + static_cast<size_t>(block) * kBlockSize, in.data(), kBlockSize);
  return sb::OkStatus();
}

mk::Handler RamDisk::MakeHandler() {
  return [this](mk::CallEnv& env) -> mk::Message {
    const mk::Message& req = env.request;
    const std::span<const uint8_t> p = req.payload();
    switch (req.tag) {
      case kBlockRead: {
        if (p.size() < 4) {
          return mk::Message(0);
        }
        uint32_t block = 0;
        std::memcpy(&block, p.data(), 4);
        // In-place reply: read the block straight into the connection's
        // shared-buffer slice so the bridge skips the reply copy. (The block
        // number was decoded above; overwriting the request is fine.)
        if (env.reply_buffer.size() >= kBlockSize) {
          const std::span<uint8_t> out(env.reply_buffer.data(), kBlockSize);
          if (!Read(&env.core, block, out).ok()) {
            return mk::Message(0);
          }
          return mk::Message::Borrowed(1, out);
        }
        mk::Message reply(1);
        reply.data.resize(kBlockSize);
        if (!Read(&env.core, block, reply.data).ok()) {
          return mk::Message(0);
        }
        return reply;
      }
      case kBlockWrite: {
        if (p.size() < 4 + kBlockSize) {
          return mk::Message(0);
        }
        uint32_t block = 0;
        std::memcpy(&block, p.data(), 4);
        if (!Write(&env.core, block, p.subspan(4, kBlockSize)).ok()) {
          return mk::Message(0);
        }
        return mk::Message(1);
      }
      case kBlockSizeQuery:
        return mk::Message(num_blocks_);
      default:
        return mk::Message(0);
    }
  };
}

BlockTransport DirectBlockTransport(RamDisk* disk) {
  // Read replies borrow one per-transport block, valid until the next call.
  auto block_buf = std::make_shared<std::array<uint8_t, kBlockSize>>();
  return [disk, block_buf](const mk::Message& msg) -> sb::StatusOr<mk::Message> {
    const std::span<const uint8_t> p = msg.payload();
    uint32_t block = 0;
    if (p.size() >= 4) {
      std::memcpy(&block, p.data(), 4);
    }
    if (msg.tag == kBlockRead && p.size() >= 4) {
      SB_RETURN_IF_ERROR(disk->Read(nullptr, block, *block_buf));
      return mk::Message::Borrowed(1, *block_buf);
    }
    if (msg.tag == kBlockWrite && p.size() >= 4 + kBlockSize) {
      SB_RETURN_IF_ERROR(disk->Write(nullptr, block, p.subspan(4, kBlockSize)));
      return mk::Message(1);
    }
    return sb::InvalidArgument("bad block op");
  };
}

sb::Status TransportReadBlock(const BlockTransport& transport, uint32_t block,
                              std::span<uint8_t> out) {
  SB_CHECK(out.size() == kBlockSize);
  std::array<uint8_t, 4> req{};
  std::memcpy(req.data(), &block, 4);
  SB_ASSIGN_OR_RETURN(const mk::Message reply,
                      transport(mk::Message::Borrowed(kBlockRead, req)));
  if (reply.tag != 1 || reply.size() != kBlockSize) {
    return sb::Internal("block read failed");
  }
  std::memcpy(out.data(), reply.payload().data(), kBlockSize);
  return sb::OkStatus();
}

sb::Status TransportWriteBlock(const BlockTransport& transport, uint32_t block,
                               std::span<const uint8_t> in) {
  SB_CHECK(in.size() == kBlockSize);
  std::array<uint8_t, 4 + kBlockSize> req{};
  std::memcpy(req.data(), &block, 4);
  std::memcpy(req.data() + 4, in.data(), kBlockSize);
  SB_ASSIGN_OR_RETURN(const mk::Message reply,
                      transport(mk::Message::Borrowed(kBlockWrite, req)));
  if (reply.tag != 1) {
    return sb::Internal("block write failed");
  }
  return sb::OkStatus();
}

}  // namespace fsys
