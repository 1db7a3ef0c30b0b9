// The key-value store pipeline from Section 2 (Figure 1):
//
//   Client -> Encryption server -> KV store server
//
// Inserts flow client -> encrypt -> kv-store (the encryption server forwards
// the encrypted value); queries flow the same chain with decryption on the
// way back. Five wirings reproduce Figures 2 and 8:
//
//   kBaseline      all three in one address space, plain function calls
//   kDelay         baseline + a busy-loop equal to the direct cost of each
//                  IPC leg (isolates the *indirect* cache/TLB cost)
//   kIpc           three processes, kernel IPC, one core
//   kIpcCrossCore  three processes pinned to three different cores
//   kSkyBridge     three processes, nested SkyBridge direct calls
//
// Encryption is a real XTEA cipher run over the value bytes.

#ifndef SRC_APPS_KV_H_
#define SRC_APPS_KV_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/mk/kernel.h"
#include "src/skybridge/skybridge.h"

namespace apps {

// XTEA, 64 rounds, in place over the whole 8-byte blocks of `data`; a tail
// shorter than 8 bytes stays plaintext. Blocks run 8 at a time in lockstep;
// the output is the same as block by block.
void XteaEncrypt(std::span<uint8_t> data, const uint32_t key[4]);
void XteaDecrypt(std::span<uint8_t> data, const uint32_t key[4]);

// Decodes a KV request payload (u32 key length, key, value). Returns false,
// leaving `key` and `value` untouched, when the payload is shorter than its
// length word or the key length runs past the payload.
bool DecodeKvRequest(std::span<const uint8_t> payload, std::string* key, std::string* value);

enum class KvWiring : uint8_t {
  kBaseline,
  kDelay,
  kIpc,
  kIpcCrossCore,
  kSkyBridge,
};

std::string_view KvWiringName(KvWiring wiring);

class KvPipeline {
 public:
  // `sky` may be null unless wiring == kSkyBridge. The kernel must be booted.
  // The store counts its work on the machine's registry as apps.kv.inserts,
  // apps.kv.queries and apps.kv.hits.
  KvPipeline(mk::Kernel& kernel, skybridge::SkyBridge* sky, KvWiring wiring);

  sb::Status Setup();

  // Runs one operation on the client core and returns its reply value (for
  // queries) — all costs land on the client thread's core clock.
  sb::Status Insert(const std::string& key, const std::string& value);
  sb::StatusOr<std::string> Query(const std::string& key);

  // Batched gets (DESIGN.md section 13): on the SkyBridge wiring the whole
  // batch of queries crosses client -> encrypt in ONE flushed ring (the
  // encrypt server still forwards each get nested to the kv store); other
  // wirings fall back to per-key Query. An entry whose reply outgrows one
  // ring entry's payload span is retried once through Query; one rejected
  // as corrupt at the return gate stays OutOfRange.
  // Per-key outcomes, in order.
  std::vector<sb::StatusOr<std::string>> QueryBatch(std::span<const std::string> keys);

  // Open-loop async gets (the load generator's batched mode, DESIGN.md
  // section 14): SubmitQuery enqueues one get into the client->encrypt ring
  // and returns its token; FlushQueries drains the pending submissions in
  // one crossing; PollQuery reaps one completion (Unavailable while the
  // entry is still pending). kSkyBridge wiring only — other wirings return
  // Unimplemented from SubmitQuery so callers fall back to sync Query.
  sb::StatusOr<uint64_t> SubmitQuery(const std::string& key);
  sb::Status FlushQueries();
  sb::StatusOr<std::string> PollQuery(uint64_t token);

  // Client core (where latency is measured).
  hw::Core& client_core();

 private:
  friend class KvPipelineTestPeer;  // Feeds raw requests to the handlers in unit tests.

  sb::StatusOr<mk::Message> CallEncrypt(const mk::Message& msg);
  // Op-level entry: routes large SkyBridge transfers through the in-place
  // shared-buffer API (AcquireSendBuffer + DirectServerCallInPlace), falls
  // back to the owned-message path everywhere else.
  sb::StatusOr<mk::Message> CallEncryptOp(uint64_t op, const std::string& key,
                                          const std::string& value);

  // Handlers (run in the encryption / kv server context).
  mk::Message HandleEncrypt(mk::CallEnv& env);
  mk::Message HandleKv(mk::CallEnv& env, hw::Core* core);

  sb::StatusOr<mk::Message> ForwardToKv(hw::Core& core, const mk::Message& msg);
  sb::StatusOr<mk::Message> ForwardToKvOp(hw::Core& core, uint64_t op, const std::string& key,
                                          const std::string& value);

  mk::Kernel* kernel_;
  skybridge::SkyBridge* sky_;
  KvWiring wiring_;

  mk::Process* client_ = nullptr;
  mk::Process* encrypt_ = nullptr;
  mk::Process* kv_ = nullptr;
  mk::Thread* client_thread_ = nullptr;
  mk::Thread* encrypt_thread_ = nullptr;

  // Kernel-IPC plumbing.
  mk::CapSlot encrypt_cap_ = 0;
  mk::CapSlot kv_cap_ = 0;
  // SkyBridge plumbing.
  skybridge::ServerId encrypt_sid_ = 0;
  skybridge::ServerId kv_sid_ = 0;

  // KV store state (functionally in C++, charged against the kv process).
  std::unordered_map<std::string, std::string> store_;
  hw::Gva kv_heap_ = 0;
  hw::Gva encrypt_heap_ = 0;
  uint32_t cipher_key_[4] = {0x13572468, 0xdeadbeef, 0x0badcafe, 0x87654321};
  sb::telemetry::Counter* inserts_;
  sb::telemetry::Counter* queries_;
  sb::telemetry::Counter* hits_;
};

}  // namespace apps

#endif  // SRC_APPS_KV_H_
