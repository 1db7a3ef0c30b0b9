#include "src/fs/fs_rpc.h"

#include <array>
#include <cstring>

#include "src/base/logging.h"

namespace fsys {
namespace {

void PutU32(std::span<uint8_t> buf, size_t off, uint32_t v) {
  std::memcpy(buf.data() + off, &v, 4);
}

uint32_t GetU32(std::span<const uint8_t> buf, size_t off) {
  uint32_t v = 0;
  if (off + 4 <= buf.size()) {
    std::memcpy(&v, buf.data() + off, 4);
  }
  return v;
}

}  // namespace

mk::Handler MakeFsHandler(Xv6Fs* fs, hw::Gva cache_base) {
  return [fs, cache_base](mk::CallEnv& env) -> mk::Message {
    // The big lock: serialize in virtual time across server threads.
    const uint64_t start = fs->big_lock().Acquire(env.core.cycles());
    env.core.SyncClockTo(start);
    fs->SetChargedContext(&env.core, cache_base);

    mk::Message reply(kFsError);
    const mk::Message& req = env.request;
    const std::span<const uint8_t> p = req.payload();
    switch (static_cast<FsOp>(req.tag)) {
      case FsOp::kOpen: {
        const std::string path(p.begin(), p.end());
        if (auto inum = fs->Lookup(path); inum.ok()) {
          reply.tag = *inum;
        }
        break;
      }
      case FsOp::kCreate: {
        const std::string path(p.begin(), p.end());
        if (auto inum = fs->Create(path); inum.ok()) {
          reply.tag = *inum;
        } else {
          SB_LOG(kWarning) << "fs create '" << path << "': " << inum.status().ToString();
        }
        break;
      }
      case FsOp::kRead: {
        const uint32_t inum = GetU32(p, 0);
        const uint32_t off = GetU32(p, 4);
        const uint32_t len = GetU32(p, 8);
        if (len > 1 << 20) {
          break;
        }
        // With a slice on offer, read straight into it when `len` fits (the
        // request is fully decoded, so the slice may be overwritten).
        const std::span<uint8_t> slice = env.reply_buffer;
        const bool in_slice = !slice.empty() && len <= slice.size();
        std::vector<uint8_t> out(in_slice ? 0 : len);
        const std::span<uint8_t> dst = in_slice ? slice.first(len) : std::span<uint8_t>(out);
        auto n = fs->ReadFile(inum, off, dst);
        if (!n.ok()) {
          SB_LOG(kWarning) << "fs read inum=" << inum << ": " << n.status().ToString();
          break;
        }
        if (!slice.empty() && *n > env.kernel.profile().register_msg_capacity &&
            *n <= slice.size()) {
          // A long reply stays in the slice: the bridge skips the reply copy.
          if (!in_slice) {
            std::memcpy(slice.data(), dst.data(), *n);
          }
          reply = mk::Message::Borrowed(*n, slice.first(*n));
        } else {
          reply.tag = *n;
          reply.data.assign(dst.begin(), dst.begin() + *n);
        }
        break;
      }
      case FsOp::kWrite: {
        if (p.size() >= 8) {
          const uint32_t inum = GetU32(p, 0);
          const uint32_t off = GetU32(p, 4);
          const std::span<const uint8_t> payload = p.subspan(8);
          const sb::Status ws = fs->WriteFile(inum, off, payload);
          if (ws.ok()) {
            reply.tag = 1;
          } else {
            SB_LOG(kWarning) << "fs write inum=" << inum << " off=" << off
                             << " len=" << payload.size() << ": " << ws.ToString();
          }
        }
        break;
      }
      case FsOp::kSize: {
        if (auto size = fs->FileSize(GetU32(p, 0)); size.ok()) {
          reply.tag = *size;
        }
        break;
      }
      case FsOp::kUnlink: {
        const std::string path(p.begin(), p.end());
        if (fs->Unlink(path).ok()) {
          reply.tag = 1;
        }
        break;
      }
      default:
        break;
    }

    fs->SetChargedContext(nullptr, 0);
    fs->big_lock().Release(env.core.cycles());
    return reply;
  };
}

sb::StatusOr<mk::Message> FsClient::Call(const mk::Message& msg) {
  ++rpcs_;
  SB_ASSIGN_OR_RETURN(mk::Message reply, transport_(msg));
  if (reply.tag == kFsError) {
    return sb::Internal("fs rpc failed (op " + std::to_string(msg.tag) + ")");
  }
  return reply;
}

sb::StatusOr<uint32_t> FsClient::Open(const std::string& path) {
  SB_ASSIGN_OR_RETURN(const mk::Message reply,
                      Call(mk::Message::FromString(static_cast<uint64_t>(FsOp::kOpen), path)));
  return static_cast<uint32_t>(reply.tag);
}

sb::StatusOr<uint32_t> FsClient::Create(const std::string& path) {
  SB_ASSIGN_OR_RETURN(const mk::Message reply,
                      Call(mk::Message::FromString(static_cast<uint64_t>(FsOp::kCreate), path)));
  return static_cast<uint32_t>(reply.tag);
}

sb::StatusOr<std::vector<uint8_t>> FsClient::Read(uint32_t inum, uint32_t offset, uint32_t len) {
  std::array<uint8_t, 12> req{};
  PutU32(req, 0, inum);
  PutU32(req, 4, offset);
  PutU32(req, 8, len);
  SB_ASSIGN_OR_RETURN(mk::Message reply,
                      Call(mk::Message::Borrowed(static_cast<uint64_t>(FsOp::kRead), req)));
  if (reply.borrowed()) {
    const std::span<const uint8_t> view = reply.payload();
    return std::vector<uint8_t>(view.begin(), view.end());
  }
  return std::move(reply.data);
}

sb::Status FsClient::Write(uint32_t inum, uint32_t offset, std::span<const uint8_t> data) {
  wire_.resize(8 + data.size());
  PutU32(wire_, 0, inum);
  PutU32(wire_, 4, offset);
  if (!data.empty()) {
    std::memcpy(wire_.data() + 8, data.data(), data.size());
  }
  return Call(mk::Message::Borrowed(static_cast<uint64_t>(FsOp::kWrite), wire_)).status();
}

sb::StatusOr<uint32_t> FsClient::Size(uint32_t inum) {
  std::array<uint8_t, 4> req{};
  PutU32(req, 0, inum);
  SB_ASSIGN_OR_RETURN(const mk::Message reply,
                      Call(mk::Message::Borrowed(static_cast<uint64_t>(FsOp::kSize), req)));
  return static_cast<uint32_t>(reply.tag);
}

sb::Status FsClient::Unlink(const std::string& path) {
  return Call(mk::Message::FromString(static_cast<uint64_t>(FsOp::kUnlink), path)).status();
}

}  // namespace fsys
