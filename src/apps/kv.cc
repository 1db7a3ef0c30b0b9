#include "src/apps/kv.h"

#include <array>
#include <cstring>

#include "src/base/logging.h"

namespace apps {
namespace {

// Per-operation fixed compute (request marshalling, server dispatch, hash).
constexpr uint64_t kClientLogicCycles = 700;
constexpr uint64_t kEncryptLogicCycles = 600;
constexpr uint64_t kKvLogicCycles = 700;
// XTEA cost per byte on the simulated core.
constexpr uint64_t kCipherCyclesPerByte = 8;
// The Delay wiring's busy loop: the direct cost of one IPC (Section 2.1.1).
constexpr uint64_t kDelayCycles = 493;

constexpr uint64_t kOpInsert = 1;
constexpr uint64_t kOpQuery = 2;

// Serialized request size: u32 key length + key + value.
size_t EncodedSize(const std::string& key, const std::string& value) {
  return 4 + key.size() + value.size();
}

// Serializes straight into `out` (a shared-buffer slice for the in-place
// path); returns the number of bytes written.
size_t EncodeRequestInto(std::span<uint8_t> out, const std::string& key,
                         const std::string& value) {
  const uint32_t klen = static_cast<uint32_t>(key.size());
  std::memcpy(out.data(), &klen, 4);
  std::memcpy(out.data() + 4, key.data(), key.size());
  std::memcpy(out.data() + 4 + key.size(), value.data(), value.size());
  return EncodedSize(key, value);
}

mk::Message EncodeRequest(uint64_t op, const std::string& key, const std::string& value) {
  mk::Message msg(op);
  msg.data.resize(EncodedSize(key, value));
  EncodeRequestInto(msg.data, key, value);
  return msg;
}

// Stack space for a request that travels borrowed: a get then allocates
// nothing on its way to the kv store.
constexpr size_t kInlineRequestBytes = 64;
using InlineRequest = std::array<uint8_t, kInlineRequestBytes>;

// Encodes into `buf` and borrows it when the request fits there, into an
// owned message otherwise. `buf` must outlive the returned message.
mk::Message EncodeRequest(uint64_t op, const std::string& key, const std::string& value,
                          InlineRequest& buf) {
  if (EncodedSize(key, value) > buf.size()) {
    return EncodeRequest(op, key, value);
  }
  const size_t len = EncodeRequestInto(buf, key, value);
  return mk::Message::Borrowed(op, std::span(buf).first(len));
}

// ---- XTEA ----
constexpr uint32_t kXteaDelta = 0x9e3779b9;
constexpr int kXteaCycles = 32;
constexpr size_t kXteaBlockBytes = 8;
// A chunk is 8 blocks run in lockstep: each round step is one loop over the
// 8 blocks, which the compiler vectorizes.
constexpr size_t kXteaChunkBytes = 64;

uint32_t Mix(uint32_t v) { return ((v << 4) ^ (v >> 5)) + v; }

// v0 and v1 of the 8 blocks of one chunk.
struct XteaLanes {
  uint32_t v0[8];
  uint32_t v1[8];
};

XteaLanes LoadChunk(const uint8_t* p) {
  uint32_t w[16] = {};
  std::memcpy(w, p, sizeof(w));
  XteaLanes l;
  for (int b = 0; b < 8; ++b) {
    l.v0[b] = w[2 * b];
    l.v1[b] = w[2 * b + 1];
  }
  return l;
}

void StoreChunk(const XteaLanes& l, uint8_t* p) {
  uint32_t w[16] = {};
  for (int b = 0; b < 8; ++b) {
    w[2 * b] = l.v0[b];
    w[2 * b + 1] = l.v1[b];
  }
  std::memcpy(p, w, sizeof(w));
}

void EncryptChunk(uint8_t* p, const uint32_t key[4]) {
  XteaLanes l = LoadChunk(p);
  uint32_t sum = 0;
  for (int i = 0; i < kXteaCycles; ++i) {
    const uint32_t k0 = sum + key[sum & 3];
    for (int b = 0; b < 8; ++b) {
      l.v0[b] += Mix(l.v1[b]) ^ k0;
    }
    sum += kXteaDelta;
    const uint32_t k1 = sum + key[(sum >> 11) & 3];
    for (int b = 0; b < 8; ++b) {
      l.v1[b] += Mix(l.v0[b]) ^ k1;
    }
  }
  StoreChunk(l, p);
}

void DecryptChunk(uint8_t* p, const uint32_t key[4]) {
  XteaLanes l = LoadChunk(p);
  uint32_t sum = kXteaDelta * kXteaCycles;
  for (int i = 0; i < kXteaCycles; ++i) {
    const uint32_t k1 = sum + key[(sum >> 11) & 3];
    for (int b = 0; b < 8; ++b) {
      l.v1[b] -= Mix(l.v0[b]) ^ k1;
    }
    sum -= kXteaDelta;
    const uint32_t k0 = sum + key[sum & 3];
    for (int b = 0; b < 8; ++b) {
      l.v0[b] -= Mix(l.v1[b]) ^ k0;
    }
  }
  StoreChunk(l, p);
}

// Runs `Chunk` over every full chunk of `data`, then over the remaining
// whole blocks copied into a zeroed chunk: blocks are independent, so the
// padding changes none of them. A tail shorter than a block is left as is.
template <void (*Chunk)(uint8_t*, const uint32_t*)>
void XteaChunks(std::span<uint8_t> data, const uint32_t key[4]) {
  size_t off = 0;
  for (; off + kXteaChunkBytes <= data.size(); off += kXteaChunkBytes) {
    Chunk(data.data() + off, key);
  }
  const size_t whole = (data.size() - off) & ~(kXteaBlockBytes - 1);
  if (whole > 0) {
    uint8_t buf[kXteaChunkBytes] = {};
    std::memcpy(buf, data.data() + off, whole);
    Chunk(buf, key);
    std::memcpy(data.data() + off, buf, whole);
  }
}

}  // namespace

void XteaEncrypt(std::span<uint8_t> data, const uint32_t key[4]) {
  XteaChunks<EncryptChunk>(data, key);
}

void XteaDecrypt(std::span<uint8_t> data, const uint32_t key[4]) {
  XteaChunks<DecryptChunk>(data, key);
}

bool DecodeKvRequest(std::span<const uint8_t> payload, std::string* key, std::string* value) {
  if (payload.size() < 4) {
    return false;
  }
  uint32_t klen = 0;
  std::memcpy(&klen, payload.data(), 4);
  // size_t arithmetic: `4 + klen` in 32 bits wraps for klen >= 0xFFFFFFFC.
  if (klen > payload.size() - 4) {
    return false;
  }
  const std::span<const uint8_t> k = payload.subspan(4, klen);
  const std::span<const uint8_t> v = payload.subspan(4 + static_cast<size_t>(klen));
  key->assign(k.begin(), k.end());
  value->assign(v.begin(), v.end());
  return true;
}

std::string_view KvWiringName(KvWiring wiring) {
  switch (wiring) {
    case KvWiring::kBaseline:
      return "Baseline";
    case KvWiring::kDelay:
      return "Delay";
    case KvWiring::kIpc:
      return "IPC";
    case KvWiring::kIpcCrossCore:
      return "IPC-CrossCore";
    case KvWiring::kSkyBridge:
      return "SkyBridge";
  }
  return "?";
}

KvPipeline::KvPipeline(mk::Kernel& kernel, skybridge::SkyBridge* sky, KvWiring wiring)
    : kernel_(&kernel),
      sky_(sky),
      wiring_(wiring),
      inserts_(&kernel.machine().telemetry().GetCounter("apps.kv.inserts")),
      queries_(&kernel.machine().telemetry().GetCounter("apps.kv.queries")),
      hits_(&kernel.machine().telemetry().GetCounter("apps.kv.hits")) {}

hw::Core& KvPipeline::client_core() { return kernel_->machine().core(0); }

mk::Message KvPipeline::HandleKv(mk::CallEnv& env, hw::Core* core) {
  hw::Core& c = core != nullptr ? *core : env.core;
  c.AdvanceCycles(kKvLogicCycles);
  std::string key;
  std::string value;
  if (!DecodeKvRequest(env.request.payload(), &key, &value)) {
    return mk::Message(0);
  }
  const uint64_t slot = std::hash<std::string>{}(key) % 4096;
  if (env.request.tag == kOpInsert) {
    // Hash bucket + stored bytes traffic in the KV server's heap.
    (void)c.TouchData(kv_heap_ + slot * 64, 64, true);
    (void)c.TouchData(kv_heap_ + 4096 * 64 + (slot % 512) * 2048,
                      std::max<uint64_t>(key.size() + value.size(), 64), true);
    store_[key] = value;
    inserts_->Add();
    return mk::Message(1);
  }
  // Query.
  (void)c.TouchData(kv_heap_ + slot * 64, 64, false);
  queries_->Add();
  auto it = store_.find(key);
  if (it == store_.end()) {
    return mk::Message(0);
  }
  (void)c.TouchData(kv_heap_ + 4096 * 64 + (slot % 512) * 2048,
                    std::max<uint64_t>(it->second.size(), 64), false);
  hits_->Add();
  // Large values: build the reply in place in the connection's slice when
  // the transport offers one — the bridge then skips the reply copy. Small
  // values still travel in registers.
  if (!env.reply_buffer.empty() &&
      it->second.size() > env.kernel.profile().register_msg_capacity &&
      it->second.size() <= env.reply_buffer.size()) {
    std::memcpy(env.reply_buffer.data(), it->second.data(), it->second.size());
    return mk::Message::Borrowed(
        1, std::span<const uint8_t>(env.reply_buffer.data(), it->second.size()));
  }
  mk::Message reply(1);
  reply.data.assign(it->second.begin(), it->second.end());
  return reply;
}

sb::StatusOr<mk::Message> KvPipeline::ForwardToKvOp(hw::Core& core, uint64_t op,
                                                    const std::string& key,
                                                    const std::string& value) {
  // SkyBridge large transfers: serialize straight into the encrypt->kv
  // connection slice and call in place — no request copy anywhere.
  if (wiring_ == KvWiring::kSkyBridge &&
      EncodedSize(key, value) > kernel_->profile().register_msg_capacity) {
    auto buf = sky_->AcquireSendBuffer(encrypt_thread_, kv_sid_);
    if (buf.ok() && EncodedSize(key, value) <= buf->size()) {
      const size_t len = EncodeRequestInto(*buf, key, value);
      return sky_->DirectServerCallInPlace(encrypt_thread_, kv_sid_, op, len);
    }
  }
  InlineRequest stack_req{};
  return ForwardToKv(core, EncodeRequest(op, key, value, stack_req));
}

sb::StatusOr<mk::Message> KvPipeline::ForwardToKv(hw::Core& core, const mk::Message& msg) {
  switch (wiring_) {
    case KvWiring::kBaseline:
    case KvWiring::kDelay: {
      if (wiring_ == KvWiring::kDelay) {
        core.AdvanceCycles(kDelayCycles);
      }
      mk::CallEnv env{*kernel_, core, *client_, msg};
      return HandleKv(env, &core);
    }
    case KvWiring::kIpc:
    case KvWiring::kIpcCrossCore:
      return kernel_->IpcCall(encrypt_thread_, kv_cap_, msg);
    case KvWiring::kSkyBridge:
      return sky_->DirectServerCall(encrypt_thread_, kv_sid_, msg);
  }
  return sb::Internal("bad wiring");
}

mk::Message KvPipeline::HandleEncrypt(mk::CallEnv& env) {
  hw::Core& core = env.core;
  core.AdvanceCycles(kEncryptLogicCycles);
  std::string key;
  std::string value;
  if (!DecodeKvRequest(env.request.payload(), &key, &value)) {
    return mk::Message(0);
  }

  if (env.request.tag == kOpInsert) {
    XteaEncrypt(std::span(reinterpret_cast<uint8_t*>(value.data()), value.size()), cipher_key_);
    core.AdvanceCycles(kCipherCyclesPerByte * value.size());
    (void)core.TouchData(encrypt_heap_, std::max<uint64_t>(value.size(), 64), true);
    auto fwd = ForwardToKvOp(core, kOpInsert, key, value);
    return fwd.ok() ? fwd->ToOwned() : mk::Message(0);
  }
  // Query: fetch from KV, then decrypt in place in the buffer that carries
  // the reply — the client-facing slice for a large plaintext (the client
  // reads it without another copy), the reply's own bytes otherwise.
  auto fwd = ForwardToKvOp(core, kOpQuery, key, "");
  if (!fwd.ok() || fwd->tag == 0) {
    return mk::Message(0);
  }
  const std::span<const uint8_t> cipher = fwd->payload();
  const size_t n = cipher.size();
  mk::Message reply(1);
  std::span<uint8_t> plain;
  if (!env.reply_buffer.empty() && n > env.kernel.profile().register_msg_capacity &&
      n <= env.reply_buffer.size()) {
    plain = env.reply_buffer.first(n);
    std::memmove(plain.data(), cipher.data(), n);
    reply = mk::Message::Borrowed(1, plain);
  } else {
    if (fwd->borrowed()) {
      reply.data.assign(cipher.begin(), cipher.end());
    } else {
      reply.data = std::move(fwd->data);
    }
    plain = reply.data;
  }
  XteaDecrypt(plain, cipher_key_);
  core.AdvanceCycles(kCipherCyclesPerByte * n);
  (void)core.TouchData(encrypt_heap_, std::max<uint64_t>(n, 64), false);
  return reply;
}

sb::Status KvPipeline::Setup() {
  SB_ASSIGN_OR_RETURN(client_, kernel_->CreateProcess("kv-client"));
  client_thread_ = client_->AddThread(0);

  if (wiring_ == KvWiring::kBaseline || wiring_ == KvWiring::kDelay) {
    // Single address space: the "servers" are plain functions; their state
    // lives in the client's heap.
    SB_ASSIGN_OR_RETURN(kv_heap_, client_->AllocHeap(2 * 1024 * 1024, 4096));
    SB_ASSIGN_OR_RETURN(encrypt_heap_, client_->AllocHeap(64 * 1024, 4096));
    encrypt_ = client_;
    kv_ = client_;
    encrypt_thread_ = client_thread_;
    return kernel_->ContextSwitchTo(client_core(), client_);
  }

  SB_ASSIGN_OR_RETURN(encrypt_, kernel_->CreateProcess("kv-encrypt"));
  SB_ASSIGN_OR_RETURN(kv_, kernel_->CreateProcess("kv-store"));
  SB_ASSIGN_OR_RETURN(kv_heap_, kv_->AllocHeap(2 * 1024 * 1024, 4096));
  SB_ASSIGN_OR_RETURN(encrypt_heap_, encrypt_->AllocHeap(64 * 1024, 4096));

  const bool cross = wiring_ == KvWiring::kIpcCrossCore;
  encrypt_thread_ = encrypt_->AddThread(cross ? 1 : 0);

  if (wiring_ == KvWiring::kSkyBridge) {
    SB_CHECK(sky_ != nullptr);
    SB_ASSIGN_OR_RETURN(
        kv_sid_, sky_->RegisterServer(
                     kv_, 8, [this](mk::CallEnv& env) { return HandleKv(env, nullptr); }));
    SB_ASSIGN_OR_RETURN(encrypt_sid_,
                        sky_->RegisterServer(encrypt_, 8, [this](mk::CallEnv& env) {
                          return HandleEncrypt(env);
                        }));
    SB_RETURN_IF_ERROR(sky_->RegisterClient(client_, encrypt_sid_));
    SB_RETURN_IF_ERROR(sky_->RegisterClient(encrypt_, kv_sid_));
  } else {
    std::vector<int> encrypt_cores;
    std::vector<int> kv_cores;
    if (cross) {
      encrypt_cores = {1};
      kv_cores = {2};
    }
    SB_ASSIGN_OR_RETURN(
        mk::Endpoint * kv_ep,
        kernel_->CreateEndpoint(
            kv_, [this](mk::CallEnv& env) { return HandleKv(env, nullptr); }, kv_cores));
    SB_ASSIGN_OR_RETURN(
        mk::Endpoint * enc_ep,
        kernel_->CreateEndpoint(
            encrypt_, [this](mk::CallEnv& env) { return HandleEncrypt(env); }, encrypt_cores));
    SB_ASSIGN_OR_RETURN(encrypt_cap_,
                        kernel_->GrantEndpointCap(client_, enc_ep->id(), mk::kRightCall));
    SB_ASSIGN_OR_RETURN(kv_cap_, kernel_->GrantEndpointCap(encrypt_, kv_ep->id(), mk::kRightCall));
  }
  return kernel_->ContextSwitchTo(client_core(), client_);
}

sb::StatusOr<mk::Message> KvPipeline::CallEncryptOp(uint64_t op, const std::string& key,
                                                    const std::string& value) {
  // SkyBridge large transfers: build the request in place in the caller's
  // slice of the client->encrypt buffer (zero request copies).
  if (wiring_ == KvWiring::kSkyBridge &&
      EncodedSize(key, value) > kernel_->profile().register_msg_capacity) {
    auto buf = sky_->AcquireSendBuffer(client_thread_, encrypt_sid_);
    if (buf.ok() && EncodedSize(key, value) <= buf->size()) {
      hw::Core& core = client_core();
      core.AdvanceCycles(kClientLogicCycles);
      (void)core.TouchData(mk::kHeapVa + 0x1000,
                           std::max<uint64_t>(EncodedSize(key, value), 64), true);
      const size_t len = EncodeRequestInto(*buf, key, value);
      return sky_->DirectServerCallInPlace(client_thread_, encrypt_sid_, op, len);
    }
  }
  InlineRequest stack_req{};
  return CallEncrypt(EncodeRequest(op, key, value, stack_req));
}

sb::StatusOr<mk::Message> KvPipeline::CallEncrypt(const mk::Message& msg) {
  hw::Core& core = client_core();
  core.AdvanceCycles(kClientLogicCycles);
  (void)core.TouchData(mk::kHeapVa + 0x1000, std::max<uint64_t>(msg.size(), 64), true);
  switch (wiring_) {
    case KvWiring::kBaseline:
    case KvWiring::kDelay: {
      if (wiring_ == KvWiring::kDelay) {
        core.AdvanceCycles(kDelayCycles);
      }
      mk::CallEnv env{*kernel_, core, *client_, msg};
      return HandleEncrypt(env);
    }
    case KvWiring::kIpc:
    case KvWiring::kIpcCrossCore:
      return kernel_->IpcCall(client_thread_, encrypt_cap_, msg);
    case KvWiring::kSkyBridge:
      return sky_->DirectServerCall(client_thread_, encrypt_sid_, msg);
  }
  return sb::Internal("bad wiring");
}

sb::Status KvPipeline::Insert(const std::string& key, const std::string& value) {
  SB_ASSIGN_OR_RETURN(const mk::Message reply, CallEncryptOp(kOpInsert, key, value));
  if (reply.tag != 1) {
    return sb::Internal("insert failed");
  }
  return sb::OkStatus();
}

sb::StatusOr<std::string> KvPipeline::Query(const std::string& key) {
  SB_ASSIGN_OR_RETURN(const mk::Message reply, CallEncryptOp(kOpQuery, key, ""));
  if (reply.tag != 1) {
    return sb::NotFound("no such key");
  }
  return reply.ToString();
}

std::vector<sb::StatusOr<std::string>> KvPipeline::QueryBatch(std::span<const std::string> keys) {
  std::vector<sb::StatusOr<std::string>> out;
  out.reserve(keys.size());
  if (wiring_ != KvWiring::kSkyBridge) {
    for (const std::string& key : keys) {
      out.push_back(Query(key));
    }
    return out;
  }
  // One submission per key into the client->encrypt ring, one flush for the
  // lot. The encrypt handler runs per entry inside the drain and forwards
  // each get to the kv store as the usual nested call.
  hw::Core& core = client_core();
  std::vector<mk::Message> msgs;
  msgs.reserve(keys.size());
  for (const std::string& key : keys) {
    core.AdvanceCycles(kClientLogicCycles);
    (void)core.TouchData(mk::kHeapVa + 0x1000, std::max<uint64_t>(EncodedSize(key, ""), 64),
                         true);
    msgs.push_back(EncodeRequest(kOpQuery, key, ""));
  }
  auto results = sky_->CallBatch(client_thread_, encrypt_sid_, msgs);
  if (!results.ok()) {
    for (size_t i = 0; i < keys.size(); ++i) {
      out.push_back(results.status());
    }
    return out;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    const skybridge::SkyBridge::BatchEntryResult& r = (*results)[i];
    if (r.reply_too_large) {
      // The reply did not fit one ring entry's payload span: fetch it once
      // through the sync path, which has the whole slice and its own gate.
      // A reply the gate rejected as corrupt keeps its OutOfRange.
      out.push_back(Query(keys[i]));
    } else if (!r.status.ok()) {
      out.push_back(r.status);
    } else if (r.reply.tag != 1) {
      out.push_back(sb::NotFound("no such key"));
    } else {
      out.push_back(r.reply.ToString());
    }
  }
  return out;
}

sb::StatusOr<uint64_t> KvPipeline::SubmitQuery(const std::string& key) {
  if (wiring_ != KvWiring::kSkyBridge) {
    return sb::Unimplemented("batched queries need the SkyBridge wiring");
  }
  hw::Core& core = client_core();
  core.AdvanceCycles(kClientLogicCycles);
  (void)core.TouchData(mk::kHeapVa + 0x1000, std::max<uint64_t>(EncodedSize(key, ""), 64), true);
  // SubmitCall copies the payload into the ring, so a stack encoding will do.
  InlineRequest stack_req{};
  return sky_->SubmitCall(client_thread_, encrypt_sid_,
                          EncodeRequest(kOpQuery, key, "", stack_req));
}

sb::Status KvPipeline::FlushQueries() {
  if (wiring_ != KvWiring::kSkyBridge) {
    return sb::Unimplemented("batched queries need the SkyBridge wiring");
  }
  return sky_->FlushBatch(client_thread_, encrypt_sid_);
}

sb::StatusOr<std::string> KvPipeline::PollQuery(uint64_t token) {
  if (wiring_ != KvWiring::kSkyBridge) {
    return sb::Unimplemented("batched queries need the SkyBridge wiring");
  }
  SB_ASSIGN_OR_RETURN(const mk::Message reply,
                      sky_->PollCompletion(client_thread_, encrypt_sid_, token));
  if (reply.tag != 1) {
    return sb::NotFound("no such key");
  }
  return reply.ToString();
}

}  // namespace apps
