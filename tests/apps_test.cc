// Workload-layer tests: the KV pipeline in all wirings, YCSB generation,
// the synthetic corpus, and the full SQLite stack end to end.

#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/corpus.h"
#include "src/apps/kv.h"
#include "src/apps/sqlite_stack.h"
#include "src/apps/ycsb.h"
#include "src/base/faultpoint.h"
#include "src/base/rng.h"
#include "src/sim/executor.h"
#include "src/skybridge/buffers.h"
#include "src/skybridge/config.h"
#include "src/x86/scanner.h"

namespace apps {

// Sends hand-built request payloads straight to the encrypt and kv handlers.
class KvPipelineTestPeer {
 public:
  static sb::StatusOr<mk::Message> CallEncrypt(KvPipeline& p, uint64_t op,
                                               std::span<const uint8_t> payload) {
    return p.CallEncrypt(mk::Message::Borrowed(op, payload));
  }
  static sb::StatusOr<mk::Message> ForwardToKv(KvPipeline& p, uint64_t op,
                                               std::span<const uint8_t> payload) {
    return p.ForwardToKv(p.client_core(), mk::Message::Borrowed(op, payload));
  }
  static size_t StoreSize(const KvPipeline& p) { return p.store_.size(); }
  static bool Stores(const KvPipeline& p, const std::string& key) {
    return p.store_.contains(key);
  }
};

namespace {

using sb::kGiB;

TEST(Xtea, EncryptDecryptRoundTrip) {
  const uint32_t key[4] = {1, 2, 3, 4};
  // Produced by the block-at-a-time cipher for this key over bytes 0..63.
  const std::vector<uint8_t> golden = {
      0x12, 0x8a, 0xd8, 0x60, 0xa9, 0x6f, 0xc7, 0xe3, 0xb3, 0x09, 0x38, 0x72, 0x49,
      0xe2, 0x1f, 0x1e, 0x65, 0x9c, 0x91, 0xf8, 0xb3, 0x61, 0xdb, 0x0e, 0xb5, 0x00,
      0xef, 0xca, 0xef, 0xd8, 0x68, 0xac, 0x24, 0xe9, 0x83, 0x6a, 0x49, 0x22, 0x0f,
      0xa4, 0x47, 0x20, 0x41, 0xa9, 0x4b, 0x32, 0x42, 0xd8, 0x41, 0x0a, 0x28, 0x33,
      0x83, 0x84, 0x72, 0xbc, 0xc3, 0x41, 0x11, 0xe8, 0xb8, 0xa3, 0x7c, 0xa8};
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  std::vector<uint8_t> cipher = data;
  XteaEncrypt(cipher, key);
  EXPECT_EQ(cipher, golden);
  XteaDecrypt(cipher, key);
  EXPECT_EQ(cipher, data);
}

// Reference model: the block-at-a-time XTEA loops the lockstep cipher
// replaced. Any lane, shuffle or round-key slip in the vector path shows up
// as a byte difference against these.
void RefXteaEncrypt(std::span<uint8_t> data, const uint32_t key[4]) {
  for (size_t off = 0; off + 8 <= data.size(); off += 8) {
    uint32_t v0 = 0;
    uint32_t v1 = 0;
    std::memcpy(&v0, data.data() + off, 4);
    std::memcpy(&v1, data.data() + off + 4, 4);
    uint32_t sum = 0;
    for (int i = 0; i < 32; ++i) {
      v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
      sum += 0x9e3779b9;
      v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
    }
    std::memcpy(data.data() + off, &v0, 4);
    std::memcpy(data.data() + off + 4, &v1, 4);
  }
}

void RefXteaDecrypt(std::span<uint8_t> data, const uint32_t key[4]) {
  for (size_t off = 0; off + 8 <= data.size(); off += 8) {
    uint32_t v0 = 0;
    uint32_t v1 = 0;
    std::memcpy(&v0, data.data() + off, 4);
    std::memcpy(&v1, data.data() + off + 4, 4);
    uint32_t sum = 0x9e3779b9u * 32;
    for (int i = 0; i < 32; ++i) {
      v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
      sum -= 0x9e3779b9;
      v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    }
    std::memcpy(data.data() + off, &v0, 4);
    std::memcpy(data.data() + off + 4, &v1, 4);
  }
}

TEST(Xtea, MatchesTheBlockReferenceForEveryLength) {
  // Lengths 0..200 cover plaintext tails of < 8 bytes, whole blocks past the
  // last 64-byte chunk, and one to three whole chunks.
  sb::Rng rng(0x7e5a);
  for (int k = 0; k < 100; ++k) {
    uint32_t key[4];
    for (uint32_t& word : key) {
      word = static_cast<uint32_t>(rng.Next());
    }
    for (size_t len = 0; len <= 200; ++len) {
      std::vector<uint8_t> data(len);
      for (uint8_t& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      std::vector<uint8_t> got = data;
      std::vector<uint8_t> want = data;
      XteaEncrypt(got, key);
      RefXteaEncrypt(want, key);
      ASSERT_EQ(got, want) << "encrypt, key " << k << ", length " << len;
      got = data;
      want = data;
      XteaDecrypt(got, key);
      RefXteaDecrypt(want, key);
      ASSERT_EQ(got, want) << "decrypt, key " << k << ", length " << len;
    }
  }
}

std::vector<uint8_t> KvRequestBytes(uint32_t klen, size_t payload_bytes) {
  std::vector<uint8_t> p(payload_bytes, 'x');
  std::memcpy(p.data(), &klen, 4);
  return p;
}

TEST(DecodeKvRequest, SplitsKeyAndValue) {
  std::vector<uint8_t> p = KvRequestBytes(3, 16);
  std::memcpy(p.data() + 4, "abcdefghijkl", 12);
  std::string key;
  std::string value;
  ASSERT_TRUE(DecodeKvRequest(p, &key, &value));
  EXPECT_EQ(key, "abc");
  EXPECT_EQ(value, "defghijkl");
}

TEST(DecodeKvRequest, KeyFillingThePayloadLeavesAnEmptyValue) {
  const std::vector<uint8_t> p = KvRequestBytes(16 - 4, 16);
  std::string key;
  std::string value = "stale";
  ASSERT_TRUE(DecodeKvRequest(p, &key, &value));
  EXPECT_EQ(key, std::string(12, 'x'));
  EXPECT_EQ(value, "");
}

TEST(DecodeKvRequest, RejectsKeyLengthsPastThePayload) {
  // 0xFFFFFFFC and up wrap `4 + klen` in 32 bits; 16 - 3 is one byte over.
  for (const uint32_t klen : {0xFFFFFFFFu, 0xFFFFFFFDu, 0xFFFFFFFCu, 16u - 3u}) {
    const std::vector<uint8_t> p = KvRequestBytes(klen, 16);
    std::string key = "k";
    std::string value = "v";
    EXPECT_FALSE(DecodeKvRequest(p, &key, &value)) << klen;
    EXPECT_EQ(key, "k") << klen;
    EXPECT_EQ(value, "v") << klen;
  }
}

TEST(DecodeKvRequest, RejectsPayloadsShorterThanTheLengthWord) {
  for (size_t n = 0; n < 4; ++n) {
    const std::vector<uint8_t> p(n, 0);
    std::string key;
    std::string value;
    EXPECT_FALSE(DecodeKvRequest(p, &key, &value)) << n;
  }
}

struct KvEnv {
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<mk::Kernel> kernel;
  std::unique_ptr<skybridge::SkyBridge> sky;
  std::unique_ptr<KvPipeline> pipeline;
};

KvEnv MakeKv(KvWiring wiring, mk::KernelProfile profile = mk::Sel4Profile()) {
  KvEnv env;
  hw::MachineConfig mc;
  mc.num_cores = 4;
  mc.ram_bytes = 4 * kGiB;
  env.machine = std::make_unique<hw::Machine>(mc);
  mk::KernelOptions options;
  options.boot_rootkernel = wiring == KvWiring::kSkyBridge;
  env.kernel = std::make_unique<mk::Kernel>(*env.machine, std::move(profile), options);
  SB_CHECK(env.kernel->Boot().ok());
  if (wiring == KvWiring::kSkyBridge) {
    env.sky = std::make_unique<skybridge::SkyBridge>(*env.kernel);
  }
  env.pipeline = std::make_unique<KvPipeline>(*env.kernel, env.sky.get(), wiring);
  SB_CHECK(env.pipeline->Setup().ok());
  return env;
}

class KvWiringTest : public ::testing::TestWithParam<KvWiring> {};

TEST_P(KvWiringTest, InsertThenQueryReturnsValue) {
  KvEnv env = MakeKv(GetParam());
  ASSERT_TRUE(env.pipeline->Insert("user42", "payload-42").ok());
  auto value = env.pipeline->Query("user42");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, "payload-42");
  EXPECT_FALSE(env.pipeline->Query("missing").ok());
}

TEST_P(KvWiringTest, ManyKeysSurviveRoundTrips) {
  KvEnv env = MakeKv(GetParam());
  for (int i = 0; i < 32; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(env.pipeline->Insert(key, "value-" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 32; ++i) {
    auto v = env.pipeline->Query("k" + std::to_string(i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "value-" + std::to_string(i));
  }
}

// Value sizes across the 8-byte block edge, the 64-byte lane-chunk edge and
// the register-capacity edge between an owned reply and a slice reply.
constexpr size_t kSweepValueBytes[] = {0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 200, 1024};

std::string SweepValue(size_t n) {
  std::string v(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<char>(i * 37 + n);
  }
  return v;
}

TEST_P(KvWiringTest, ValueLengthSweepRoundTrips) {
  KvEnv env = MakeKv(GetParam());
  for (const size_t n : kSweepValueBytes) {
    ASSERT_TRUE(env.pipeline->Insert("len" + std::to_string(n), SweepValue(n)).ok()) << n;
  }
  for (const size_t n : kSweepValueBytes) {
    auto v = env.pipeline->Query("len" + std::to_string(n));
    ASSERT_TRUE(v.ok()) << n << ": " << v.status().ToString();
    EXPECT_EQ(*v, SweepValue(n)) << n;
  }
  if (GetParam() != KvWiring::kSkyBridge) {
    EXPECT_EQ(env.pipeline->SubmitQuery("len0").status().code(), sb::ErrorCode::kUnimplemented);
    return;
  }
  std::vector<uint64_t> tokens;
  for (const size_t n : kSweepValueBytes) {
    auto token = env.pipeline->SubmitQuery("len" + std::to_string(n));
    ASSERT_TRUE(token.ok()) << n << ": " << token.status().ToString();
    tokens.push_back(*token);
  }
  ASSERT_TRUE(env.pipeline->FlushQueries().ok());
  // A reply larger than a ring entry's payload span is rejected at the
  // per-entry return gate (OutOfRange), as SkyBridge::PollCompletion documents.
  const uint64_t entry_cap =
      (env.sky->config().shared_buffer_bytes - skybridge::BatchRingView::kHeaderBytes -
       skybridge::kBatchRingEntries * skybridge::BatchRingView::kDescBytes) /
      skybridge::kBatchRingEntries;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const size_t n = kSweepValueBytes[i];
    auto v = env.pipeline->PollQuery(tokens[i]);
    if (n > entry_cap) {
      EXPECT_EQ(v.status().code(), sb::ErrorCode::kOutOfRange) << n;
      continue;
    }
    ASSERT_TRUE(v.ok()) << n << ": " << v.status().ToString();
    EXPECT_EQ(*v, SweepValue(n)) << n;
  }
}

// A reply too large for one ring entry falls back to the sync path, so a
// batch returns every value, whatever its size.
TEST_P(KvWiringTest, QueryBatchReturnsEveryValueOfTheSweep) {
  KvEnv env = MakeKv(GetParam());
  std::vector<std::string> keys;
  for (const size_t n : kSweepValueBytes) {
    keys.push_back("len" + std::to_string(n));
    ASSERT_TRUE(env.pipeline->Insert(keys.back(), SweepValue(n)).ok()) << n;
  }
  keys.push_back("missing");
  const std::vector<sb::StatusOr<std::string>> values = env.pipeline->QueryBatch(keys);
  ASSERT_EQ(values.size(), keys.size());
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    const size_t n = kSweepValueBytes[i];
    ASSERT_TRUE(values[i].ok()) << n << ": " << values[i].status().ToString();
    EXPECT_EQ(*values[i], SweepValue(n)) << n;
  }
  EXPECT_EQ(values.back().status().code(), sb::ErrorCode::kNotFound);
}

// A batched reply the return gate rejects as corrupt did not outgrow its
// entry: it stays OutOfRange, with no second call through Query.
TEST_P(KvWiringTest, QueryBatchKeepsACorruptReplyRejected) {
  if (GetParam() != KvWiring::kSkyBridge) {
    return;  // Only the SkyBridge wiring has a per-entry return gate.
  }
  KvEnv env = MakeKv(GetParam());
  ASSERT_TRUE(env.pipeline->Insert("k", "v").ok());
  const sb::telemetry::Registry& reg = env.machine->telemetry();
  const uint64_t queries = reg.Value("apps.kv.queries");
  // Hit 1 is the return gate of the nested encrypt -> kv call, hit 2 the
  // batch entry's.
  sb::fault::FaultSpec spec;
  spec.nth_hit = 2;
  sb::fault::Arm(skybridge::kFaultReplyCorrupt, spec);
  const std::vector<std::string> keys = {"k"};
  const std::vector<sb::StatusOr<std::string>> values = env.pipeline->QueryBatch(keys);
  const sb::fault::PointStats gate = sb::fault::StatsFor(skybridge::kFaultReplyCorrupt);
  sb::fault::DisarmAll();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0].status().code(), sb::ErrorCode::kOutOfRange) << values[0].status().ToString();
  EXPECT_EQ(gate.fires, 1u);
  EXPECT_EQ(gate.hits, 2u);                                  // No retry reached a third gate.
  EXPECT_EQ(reg.Value("apps.kv.queries"), queries + 1);  // The store ran once.
}

TEST_P(KvWiringTest, MalformedRequestsGetTagZeroAndLeaveTheStoreAlone) {
  KvEnv env = MakeKv(GetParam());
  KvPipeline& kv = *env.pipeline;
  ASSERT_TRUE(kv.Insert("k", "v").ok());
  const sb::telemetry::Registry& reg = env.machine->telemetry();
  const uint64_t inserts = reg.Value("apps.kv.inserts");
  const uint64_t queries = reg.Value("apps.kv.queries");
  const std::vector<std::vector<uint8_t>> malformed = {
      KvRequestBytes(0xFFFFFFFDu, 16), KvRequestBytes(16 - 3, 16), std::vector<uint8_t>(2, 0)};
  for (const uint64_t op : {uint64_t{1}, uint64_t{2}}) {  // insert, query
    for (const std::vector<uint8_t>& p : malformed) {
      auto enc = KvPipelineTestPeer::CallEncrypt(kv, op, p);
      ASSERT_TRUE(enc.ok()) << enc.status().ToString();
      EXPECT_EQ(enc->tag, 0u) << op << " " << p.size();
      auto fwd = KvPipelineTestPeer::ForwardToKv(kv, op, p);
      ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
      EXPECT_EQ(fwd->tag, 0u) << op << " " << p.size();
    }
  }
  EXPECT_EQ(reg.Value("apps.kv.inserts"), inserts);
  EXPECT_EQ(reg.Value("apps.kv.queries"), queries);
  EXPECT_EQ(KvPipelineTestPeer::StoreSize(kv), 1u);
  EXPECT_FALSE(KvPipelineTestPeer::Stores(kv, ""));
}

INSTANTIATE_TEST_SUITE_P(Wirings, KvWiringTest,
                         ::testing::Values(KvWiring::kBaseline, KvWiring::kDelay,
                                           KvWiring::kIpc, KvWiring::kIpcCrossCore,
                                           KvWiring::kSkyBridge),
                         [](const auto& param_info) {
                           return std::string(KvWiringName(param_info.param)).substr(0, 3) +
                                  std::to_string(static_cast<int>(param_info.param));
                         });

uint64_t MeasureKvOp(KvPipeline& pipeline, const std::string& key, const std::string& value,
                     int iters = 50) {
  for (int i = 0; i < 10; ++i) {
    SB_CHECK(pipeline.Insert(key + "-warm", value).ok());
    SB_CHECK(pipeline.Query(key + "-warm").ok());
  }
  hw::Core& core = pipeline.client_core();
  const uint64_t start = core.cycles();
  for (int i = 0; i < iters; ++i) {
    SB_CHECK(pipeline.Insert(key + std::to_string(i), value).ok());
    SB_CHECK(pipeline.Query(key + std::to_string(i)).ok());
  }
  return (core.cycles() - start) / (2 * static_cast<uint64_t>(iters));
}

TEST(KvPipeline, Figure2OrderingHolds) {
  // Baseline < Delay < IPC < IPC-CrossCore, and SkyBridge between Delay and
  // IPC (Figure 8).
  const std::string value(64, 'v');
  uint64_t lat[5];
  int i = 0;
  for (const KvWiring wiring : {KvWiring::kBaseline, KvWiring::kDelay, KvWiring::kIpc,
                                KvWiring::kIpcCrossCore, KvWiring::kSkyBridge}) {
    KvEnv env = MakeKv(wiring);
    lat[i++] = MeasureKvOp(*env.pipeline, "key", value);
  }
  EXPECT_LT(lat[0], lat[1]);  // Baseline < Delay
  EXPECT_LT(lat[1], lat[2]);  // Delay < IPC
  EXPECT_LT(lat[2], lat[3]);  // IPC < CrossCore
  EXPECT_LT(lat[4], lat[2]);  // SkyBridge < IPC
  EXPECT_GT(lat[4], lat[0]);  // SkyBridge > Baseline
}

TEST(KvPipeline, LatencyGrowsWithValueSize) {
  KvEnv env = MakeKv(KvWiring::kIpc);
  const uint64_t small = MeasureKvOp(*env.pipeline, "s", std::string(16, 'x'));
  const uint64_t big = MeasureKvOp(*env.pipeline, "b", std::string(1024, 'x'));
  EXPECT_GT(big, small + 2000);
}

TEST(Ycsb, ZipfianSkewsTowardHotKeys) {
  sb::Rng rng(1);
  ZipfianGenerator zipf(1000, 0.99, &rng);
  uint64_t hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next() < 10) {
      ++hot;
    }
  }
  // With theta=0.99 the top-1% of keys get far more than 1% of requests.
  EXPECT_GT(hot, static_cast<uint64_t>(n) / 20);
}

TEST(Ycsb, ReadFractionRespected) {
  YcsbWorkload workload(YcsbA());
  int reads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (workload.NextOp().type == YcsbOpType::kRead) {
      ++reads;
    }
  }
  EXPECT_GT(reads, n * 45 / 100);
  EXPECT_LT(reads, n * 55 / 100);
}

TEST(Ycsb, WorkloadCIsReadOnly) {
  YcsbWorkload workload(YcsbC());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(workload.NextOp().type, YcsbOpType::kRead);
  }
}

TEST(Ycsb, KeysWithinRange) {
  YcsbWorkload workload(YcsbA());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(workload.NextOp().key, workload.config().record_count);
  }
}

TEST(Corpus, CleanProgramsHaveNoPattern) {
  sb::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const std::vector<uint8_t> program = GenerateProgram(rng, 32 * 1024);
    EXPECT_TRUE(x86::FindVmfuncBytes(program).empty()) << "program " << i;
  }
}

TEST(Corpus, PlantedProgramHasExactlyOneHitInCallImmediate) {
  sb::Rng rng(4);
  const std::vector<uint8_t> program = GenerateProgramWithCallImmPattern(rng, 32 * 1024);
  const auto hits = x86::ScanForVmfunc(program);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, x86::VmfuncOverlap::kInImm);
}

TEST(Corpus, Table6CorpusHasOneTotalHit) {
  const auto corpus = BuildTable6Corpus(7);
  int total_hits = 0;
  std::string hit_program;
  for (const CorpusProgram& program : corpus) {
    const auto hits = x86::FindVmfuncBytes(program.code);
    total_hits += static_cast<int>(hits.size());
    if (!hits.empty()) {
      hit_program = program.name;
    }
  }
  EXPECT_EQ(total_hits, 1);
  EXPECT_EQ(hit_program, "GIMP-2.8");
}

// ---- Full SQLite stack ----

TEST(SqliteStack, EndToEndInsertQueryUpdateDelete) {
  SqliteStackConfig config;
  config.transport = StackTransport::kIpcMtServer;
  config.preload_records = 50;
  auto stack = SqliteStack::Create(config);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  // Query a preloaded row.
  auto v = (*stack)->Query(0, 7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 100u);

  // Insert / update / delete new rows (all charged through the stack).
  std::vector<uint8_t> value(100, 0x11);
  ASSERT_TRUE((*stack)->Insert(0, 1000, value).ok());
  value[0] = 0x22;
  ASSERT_TRUE((*stack)->Update(0, 1000, value).ok());
  auto updated = (*stack)->Query(0, 1000);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ((*updated)[0], 0x22);
  ASSERT_TRUE((*stack)->Delete(0, 1000).ok());
  EXPECT_FALSE((*stack)->Query(0, 1000).ok());
}

class StackTransportTest : public ::testing::TestWithParam<StackTransport> {};

TEST_P(StackTransportTest, YcsbOpsRunOnAllTransports) {
  SqliteStackConfig config;
  config.transport = GetParam();
  config.preload_records = 100;
  config.num_client_threads = 2;
  auto stack = SqliteStack::Create(config);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  YcsbConfig wl = YcsbA();
  wl.record_count = 100;
  YcsbWorkload workload(wl);
  for (int i = 0; i < 40; ++i) {
    const YcsbOp op = workload.NextOp();
    ASSERT_TRUE((*stack)->RunYcsbOp(i % 2, op, workload).ok()) << i;
  }
  EXPECT_GT((*stack)->db_lock().acquisitions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, StackTransportTest,
                         ::testing::Values(StackTransport::kIpcStServer,
                                           StackTransport::kIpcMtServer,
                                           StackTransport::kSkyBridge),
                         [](const auto& param_info) {
                           return std::string(StackTransportName(param_info.param)).substr(0, 2) +
                                  std::to_string(static_cast<int>(param_info.param));
                         });

TEST(SqliteStack, SkyBridgeFasterThanStServer) {
  auto measure = [](StackTransport transport) -> uint64_t {
    SqliteStackConfig config;
    config.transport = transport;
    config.preload_records = 100;
    auto stack = SqliteStack::Create(config);
    SB_CHECK(stack.ok());
    YcsbConfig wl = YcsbA();
    wl.record_count = 100;
    YcsbWorkload workload(wl);
    hw::Core& core = (*stack)->machine().core(0);
    for (int i = 0; i < 10; ++i) {
      SB_CHECK((*stack)->RunYcsbOp(0, workload.NextOp(), workload).ok());
    }
    const uint64_t start = core.cycles();
    for (int i = 0; i < 50; ++i) {
      SB_CHECK((*stack)->RunYcsbOp(0, workload.NextOp(), workload).ok());
    }
    return (core.cycles() - start) / 50;
  };
  const uint64_t st = measure(StackTransport::kIpcStServer);
  const uint64_t mt = measure(StackTransport::kIpcMtServer);
  const uint64_t sky = measure(StackTransport::kSkyBridge);
  EXPECT_LT(sky, mt);
  EXPECT_LT(mt, st);
}

TEST(SqliteStack, ConcurrentClientsSerializeAndScaleLikeThePaper) {
  // Multicore YCSB through the virtual-time executor: correctness under
  // concurrency plus the paper's anti-scaling (throughput per op falls as
  // threads contend on the DB and FS locks).
  auto run = [](int threads) -> double {
    apps::SqliteStackConfig config;
    config.transport = apps::StackTransport::kSkyBridge;
    config.preload_records = 200;
    config.num_client_threads = threads;
    auto stack = apps::SqliteStack::Create(config);
    SB_CHECK(stack.ok());
    apps::YcsbConfig wl = apps::YcsbA();
    wl.record_count = 200;

    sim::Executor exec((*stack)->machine());
    uint64_t base_time = 0;
    for (int c = 0; c < 8; ++c) {
      base_time = std::max(base_time, (*stack)->machine().core(c).cycles());
    }
    for (int c = 0; c < 8; ++c) {
      (*stack)->machine().core(c).SyncClockTo(base_time);
    }
    (*stack)->db_lock().Release(base_time);
    (*stack)->fs().big_lock().Release(base_time);

    std::vector<std::unique_ptr<apps::YcsbWorkload>> workloads;
    uint64_t ops = 0;
    for (int t = 0; t < threads; ++t) {
      apps::YcsbConfig thread_wl = wl;
      thread_wl.seed = 7 + static_cast<uint64_t>(t);
      workloads.push_back(std::make_unique<apps::YcsbWorkload>(thread_wl));
      apps::YcsbWorkload* workload = workloads.back().get();
      apps::SqliteStack* s = stack->get();
      sim::SimThread* thread =
          exec.AddThread("c" + std::to_string(t), t, [=, &ops](sim::SimThread& st) {
            SB_CHECK(s->RunYcsbOp(t, workload->NextOp(), *workload).ok());
            ++ops;
            return st.iterations() + 1 < 30;
          });
      thread->set_now(base_time);
    }
    exec.RunToCompletion();
    EXPECT_EQ(ops, static_cast<uint64_t>(threads) * 30);
    return static_cast<double>(ops) /
           (static_cast<double>(exec.max_time() - base_time) / 4.0e9);
  };
  const double t1 = run(1);
  const double t4 = run(4);
  EXPECT_GT(t1, 0.0);
  EXPECT_GT(t4, 0.0);
  EXPECT_LT(t4, t1);  // Anti-scaling under the big locks, like Figures 9-11.
}

TEST(SqliteStack, NativeAndRootkernelThroughputClose) {
  // Table 5: the virtualization layer costs (next to) nothing and the
  // steady-state VM-exit count is zero.
  auto measure = [](bool rootkernel, uint64_t* exits) -> uint64_t {
    SqliteStackConfig config;
    config.transport = StackTransport::kIpcMtServer;
    config.boot_rootkernel = rootkernel;
    config.preload_records = 100;
    auto stack = SqliteStack::Create(config);
    SB_CHECK(stack.ok());
    YcsbConfig wl = YcsbA();
    wl.record_count = 100;
    YcsbWorkload workload(wl);
    hw::Core& core = (*stack)->machine().core(0);
    for (int i = 0; i < 10; ++i) {
      SB_CHECK((*stack)->RunYcsbOp(0, workload.NextOp(), workload).ok());
    }
    const sb::telemetry::Registry& reg = (*stack)->machine().telemetry();
    const uint64_t exits_before = reg.Value("hw.vmexit.total");
    const uint64_t start = core.cycles();
    for (int i = 0; i < 50; ++i) {
      SB_CHECK((*stack)->RunYcsbOp(0, workload.NextOp(), workload).ok());
    }
    if (exits != nullptr) {
      *exits = reg.Value("hw.vmexit.total") - exits_before;
    }
    return (core.cycles() - start) / 50;
  };
  uint64_t exits = 0;
  const uint64_t native = measure(false, nullptr);
  const uint64_t virt = measure(true, &exits);
  EXPECT_EQ(exits, 0u);
  // Within 2% of each other.
  EXPECT_LT(virt, native + native / 50);
  EXPECT_GT(virt, native - native / 50);
}

}  // namespace
}  // namespace apps
