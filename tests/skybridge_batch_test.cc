// Batched + asynchronous IPC (DESIGN.md section 13): submission/completion
// rings, the batch-dispatch drain leg, per-entry fault semantics, the
// free-list slice allocator, and the async Submit/Poll/Wait API.

#include "src/skybridge/skybridge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/faultpoint.h"
#include "src/base/rng.h"
#include "src/base/telemetry/trace.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::ErrorCode;
using sb::kGiB;

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override { sb::fault::DisarmAll(); }
  void TearDown() override {
    sb::fault::DisarmAll();
    sb::telemetry::SetTraceEnabled(false);
    sb::telemetry::TraceClear();
  }

  void Boot(SkyBridgeConfig config = {}) {
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    hw::MachineConfig mc;
    mc.num_cores = 4;
    mc.ram_bytes = 4 * kGiB;
    machine_ = std::make_unique<hw::Machine>(mc);
    kernel_ = std::make_unique<mk::Kernel>(*machine_, mk::Sel4Profile());
    ASSERT_TRUE(kernel_->Boot().ok());
    sky_ = std::make_unique<SkyBridge>(*kernel_, config);
  }

  struct Pair {
    mk::Process* client;
    mk::Process* server;
    mk::Thread* thread;
    ServerId sid;
  };

  Pair MakePair(Handler handler, int connections = 8) {
    Pair p;
    p.client = kernel_->CreateProcess("client").value();
    p.server = kernel_->CreateProcess("server").value();
    p.sid = sky_->RegisterServer(p.server, connections, std::move(handler)).value();
    SB_CHECK(sky_->RegisterClient(p.client, p.sid).ok());
    p.thread = p.client->AddThread(0);
    SB_CHECK(kernel_->ContextSwitchTo(machine_->core(0), p.client).ok());
    return p;
  }

  void ExpectHealthy() {
    const sb::Status invariants = sky_->CheckInvariants();
    EXPECT_TRUE(invariants.ok()) << invariants.ToString();
    EXPECT_EQ(sky_->InFlightCalls(), 0u);
    mk::Process* current = kernel_->current_process(0);
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(machine_->core(0).vmcs().active_ept(), kernel_->rootkernel()->ept(current->ept_id()));
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  // The ring's shared bytes as both ends map them: the connection's slice,
  // which the ring is carved from.
  std::span<uint8_t> RingBytes(const Pair& p) {
    auto slice = sky_->AcquireSendBuffer(p.thread, p.sid);
    SB_CHECK(slice.ok()) << slice.status().ToString();
    return *slice;
  }
  uint64_t DescOff(uint64_t token) const {
    return BatchRingView::kHeaderBytes + (token % kBatchRingEntries) * BatchRingView::kDescBytes;
  }
  template <typename T>
  static void Poke(std::span<uint8_t> ring, uint64_t off, T value) {
    SB_CHECK(off + sizeof(value) <= ring.size());
    std::memcpy(ring.data() + off, &value, sizeof(value));
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

Message Payload(uint64_t tag, const std::string& s) {
  return Message(tag, std::vector<uint8_t>(s.begin(), s.end()));
}

// ---- The ring basics: submit, one flush, completions in the ring ----

TEST_F(BatchTest, SubmitFlushPollRoundtrip) {
  Boot();
  Pair p = MakePair(EchoHandler());

  std::vector<uint64_t> tokens;
  for (int i = 0; i < 4; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Payload(10 + i, "req-" + std::to_string(i)));
    ASSERT_TRUE(token.ok()) << token.status().ToString();
    tokens.push_back(*token);
  }
  // Nothing crossed yet: completions are pending.
  auto early = sky_->PollCompletion(p.thread, p.sid, tokens[0]);
  EXPECT_EQ(early.status().code(), ErrorCode::kUnavailable);

  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  for (int i = 0; i < 4; ++i) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, 10u + i);
    EXPECT_EQ(reply->ToString(), "req-" + std::to_string(i));
  }

  EXPECT_EQ(Metric("skybridge.ipc.batched_calls"), 4u);
  EXPECT_EQ(Metric("skybridge.ipc.batch_flushes"), 1u);
  EXPECT_GE(Metric("skybridge.ipc.drain_rounds"), 1u);
  ExpectHealthy();
}

TEST_F(BatchTest, CallBatchMatchesDirectCalls) {
  Boot();
  Handler handler = [](CallEnv& env) {
    Message reply(env.request.tag + 100);
    auto p = env.request.payload();
    reply.data.assign(p.begin(), p.end());
    std::reverse(reply.data.begin(), reply.data.end());
    return reply;
  };
  Pair p = MakePair(handler);

  std::vector<Message> msgs;
  for (int i = 0; i < 10; ++i) {
    msgs.push_back(Payload(i, "value-" + std::to_string(i)));
  }
  auto batched = sky_->CallBatch(p.thread, p.sid, msgs);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), msgs.size());
  for (size_t i = 0; i < msgs.size(); ++i) {
    auto direct = sky_->DirectServerCall(p.thread, p.sid, msgs[i]);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE((*batched)[i].status.ok()) << (*batched)[i].status.ToString();
    EXPECT_EQ((*batched)[i].reply.tag, direct->tag);
    EXPECT_EQ((*batched)[i].reply.ToString(), direct->ToString());
  }
  ExpectHealthy();
}

TEST_F(BatchTest, RingWrapsAcrossManyRounds) {
  Boot();
  Pair p = MakePair(EchoHandler());

  constexpr uint64_t kEntries = kBatchRingEntries;
  uint64_t expected_token = 0;
  for (uint64_t round = 0; round < 5; ++round) {
    std::vector<uint64_t> tokens;
    for (uint64_t i = 0; i < kEntries; ++i) {
      auto token = sky_->SubmitCall(p.thread, p.sid, Payload(round * kEntries + i, "x"));
      ASSERT_TRUE(token.ok());
      EXPECT_EQ(*token, expected_token++);  // Tokens are monotone; slots wrap.
      tokens.push_back(*token);
    }
    ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
    for (uint64_t i = 0; i < kEntries; ++i) {
      auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->tag, round * kEntries + i);
    }
  }
  ExpectHealthy();
}

// ---- Backpressure and per-entry capacity ----

TEST_F(BatchTest, FullRingIsExplicitlyExhausted) {
  Boot();
  Pair p = MakePair(EchoHandler());

  for (uint64_t i = 0; i < kBatchRingEntries; ++i) {
    ASSERT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(i)).ok());
  }
  auto overflow = sky_->SubmitCall(p.thread, p.sid, Message(kBatchRingEntries + 1));
  EXPECT_EQ(overflow.status().code(), ErrorCode::kResourceExhausted);

  // Flush + reap one slot: submission works again.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ASSERT_TRUE(sky_->PollCompletion(p.thread, p.sid, 0).ok());
  EXPECT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(kBatchRingEntries + 2)).ok());
}

TEST_F(BatchTest, OversizedPayloadRejectedAtSubmit) {
  Boot();
  Pair p = MakePair(EchoHandler());
  // Per-entry capacity is (slice - header - descriptors) / entries — far
  // below the whole slice; a slice-sized payload cannot fit one entry.
  Message big(1);
  big.data.assign(sky_->config().shared_buffer_bytes, 0xab);
  auto token = sky_->SubmitCall(p.thread, p.sid, big);
  EXPECT_EQ(token.status().code(), ErrorCode::kOutOfRange);
}

TEST_F(BatchTest, DoublePollIsAnExplicitError) {
  Boot();
  Pair p = MakePair(EchoHandler());
  auto token = sky_->SubmitCall(p.thread, p.sid, Message(1));
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ASSERT_TRUE(sky_->PollCompletion(p.thread, p.sid, *token).ok());
  auto again = sky_->PollCompletion(p.thread, p.sid, *token);
  EXPECT_EQ(again.status().code(), ErrorCode::kInvalidArgument);
}

// ---- Async API: WaitCompletion ----

TEST_F(BatchTest, WaitCompletionFlushesImplicitly) {
  Boot();
  Pair p = MakePair(EchoHandler());
  auto t0 = sky_->SubmitCall(p.thread, p.sid, Payload(1, "a"));
  auto t1 = sky_->SubmitCall(p.thread, p.sid, Payload(2, "b"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  // No explicit FlushBatch: the wait drives the crossing.
  auto reply = sky_->WaitCompletion(p.thread, p.sid, *t1);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->ToString(), "b");
  // The flush drained the whole ring; t0 is already complete.
  EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, *t0).ok());
  EXPECT_EQ(Metric("skybridge.ipc.batch_flushes"), 1u);
  ExpectHealthy();
}

// ---- Fault semantics during a batch (PR 4 catalog, batched) ----

TEST_F(BatchTest, HandlerCrashMidDrainPostsAbortedAndPreservesRest) {
  Boot();
  Pair p = MakePair(EchoHandler());

  std::vector<uint64_t> tokens;
  for (int i = 0; i < 6; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Message(i));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  // The handler dies on the 3rd entry of the drain.
  sb::fault::Arm(kFaultHandlerCrash, {.nth_hit = 3});
  const sb::Status flushed = sky_->FlushBatch(p.thread, p.sid);
  EXPECT_EQ(flushed.code(), ErrorCode::kAborted) << flushed.ToString();
  ExpectHealthy();  // View restored, nothing in flight, invariants hold.

  // Entries before the crash completed; the crashed entry posted Aborted;
  // entries after it were never touched.
  EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, tokens[0]).ok());
  EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, tokens[1]).ok());
  auto crashed = sky_->PollCompletion(p.thread, p.sid, tokens[2]);
  EXPECT_EQ(crashed.status().code(), ErrorCode::kAborted);
  for (int i = 3; i < 6; ++i) {
    auto pending = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    EXPECT_EQ(pending.status().code(), ErrorCode::kUnavailable);
  }

  // The next flush drains the untouched tail normally.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  for (int i = 3; i < 6; ++i) {
    EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, tokens[i]).ok());
  }
  EXPECT_EQ(Metric("skybridge.ipc.aborted_calls"), 1u);
  ExpectHealthy();
}

TEST_F(BatchTest, CorruptReplyRejectsOneEntryAndBatchContinues) {
  Boot();
  Pair p = MakePair(EchoHandler());

  std::vector<uint64_t> tokens;
  for (int i = 0; i < 4; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Payload(i, "payload"));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  const uint64_t rejections_before = Metric("skybridge.ipc.gate_rejections");
  sb::fault::Arm(kFaultReplyCorrupt, {.nth_hit = 2});
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());  // The batch survives.

  auto bad = sky_->PollCompletion(p.thread, p.sid, tokens[1]);
  EXPECT_EQ(bad.status().code(), ErrorCode::kOutOfRange);
  for (const int i : {0, 2, 3}) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->ToString(), "payload");
  }
  EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), rejections_before + 1);
  ExpectHealthy();
}

// The server can write every descriptor, including completed siblings'. A
// scribbled reply length or status word must come back as a clean error,
// never as a reply span past the entry's payload arena.
TEST_F(BatchTest, ScribbledCompletionDescriptorsRejectedAtPoll) {
  Boot();
  const uint32_t entries = kBatchRingEntries;
  uint8_t* first_arena = nullptr;  // Entry 0's payload span: ring slot 0.
  Handler handler = [&](CallEnv& env) {
    if (env.request.tag == 0) {
      first_arena = env.reply_buffer.data();
    } else if (env.request.tag <= 2 && first_arena != nullptr) {
      // Descriptors sit right below the arena; entry `tag - 1` already
      // completed, and this hostile handler rewrites it.
      uint8_t* sibling = first_arena - entries * BatchRingView::kDescBytes +
                         (env.request.tag - 1) * BatchRingView::kDescBytes;
      if (env.request.tag == 1) {
        const uint32_t huge_len = 0x7fffffff;
        std::memcpy(sibling + offsetof(BatchRingView::Desc, reply_len), &huge_len,
                    sizeof(huge_len));
      } else {
        const uint32_t bogus_status = 1 + 200;  // No such ErrorCode.
        std::memcpy(sibling + offsetof(BatchRingView::Desc, status), &bogus_status,
                    sizeof(bogus_status));
      }
    }
    return env.request;
  };
  Pair p = MakePair(handler);

  std::vector<uint64_t> tokens;
  for (int i = 0; i < 3; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Payload(i, "entry-" + std::to_string(i)));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  const uint64_t rejections_before = Metric("skybridge.ipc.gate_rejections");
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ASSERT_NE(first_arena, nullptr);

  auto huge = sky_->PollCompletion(p.thread, p.sid, tokens[0]);
  EXPECT_EQ(huge.status().code(), ErrorCode::kOutOfRange) << huge.status().ToString();
  auto bogus = sky_->PollCompletion(p.thread, p.sid, tokens[1]);
  EXPECT_EQ(bogus.status().code(), ErrorCode::kOutOfRange) << bogus.status().ToString();
  auto intact = sky_->PollCompletion(p.thread, p.sid, tokens[2]);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact->ToString(), "entry-2");
  EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), rejections_before + 2);
  // The rejected slots were reaped: the ring accepts new work.
  const std::vector<Message> more = {Payload(7, "after")};
  auto next = sky_->CallBatch(p.thread, p.sid, more);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE((*next)[0].status.ok());
  ExpectHealthy();
}

TEST_F(BatchTest, ScribbledRingHeadRejectedAtFlush) {
  Boot();
  const uint32_t entries = kBatchRingEntries;
  uint8_t* first_arena = nullptr;  // Entry 0's payload span: ring slot 0.
  Handler handler = [&](CallEnv& env) {
    if (env.request.tag == 0) {
      first_arena = env.reply_buffer.data();
    }
    return env.request;
  };
  Pair p = MakePair(handler);
  auto first = sky_->SubmitCall(p.thread, p.sid, Message(0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ASSERT_TRUE(sky_->PollCompletion(p.thread, p.sid, *first).ok());
  ASSERT_NE(first_arena, nullptr);
  // The header sits right below the descriptors; the server can write it.
  uint8_t* header =
      first_arena - entries * BatchRingView::kDescBytes - BatchRingView::kHeaderBytes;
  auto scribble_head = [&](uint64_t value) {
    std::memcpy(header + offsetof(BatchRingView::Header, sq_head), &value, sizeof(value));
  };
  auto submit_two = [&](uint64_t tag) {
    std::vector<uint64_t> tokens;
    for (uint64_t t = tag; t < tag + 2; ++t) {
      auto token = sky_->SubmitCall(p.thread, p.sid, Message(t));
      EXPECT_TRUE(token.ok()) << token.status().ToString();
      tokens.push_back(token.ok() ? *token : 0);
    }
    return tokens;
  };
  // Scribbles a head past the tail and one below the accepted head; each
  // flush must refuse without crossing and leave the entries pending.
  auto expect_rejected = [&](const std::vector<uint64_t>& tokens) {
    const uint64_t accepted = tokens.front();
    const uint64_t tail = tokens.back() + 1;
    for (const uint64_t bogus : {tail + 5, accepted - 1}) {
      SCOPED_TRACE(testing::Message() << "sq_head " << bogus);
      scribble_head(bogus);
      const uint64_t rejections = Metric("skybridge.ipc.gate_rejections");
      const uint64_t flushes = Metric("skybridge.ipc.batch_flushes");
      EXPECT_EQ(sky_->FlushBatch(p.thread, p.sid).code(), ErrorCode::kOutOfRange);
      EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), rejections + 1);
      EXPECT_EQ(Metric("skybridge.ipc.batch_flushes"), flushes);
      for (const uint64_t token : tokens) {
        EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, token).status().code(),
                  ErrorCode::kUnavailable);
      }
      ExpectHealthy();
    }
    scribble_head(accepted);
  };

  // Live flush: after the rejections, the restored head drains normally.
  const std::vector<uint64_t> live = submit_two(1);
  expect_rejected(live);
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  for (const uint64_t token : live) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, token);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, token);
  }
  ExpectHealthy();

  // Revoked flush: the client-side failure loop never runs from a bad head.
  const std::vector<uint64_t> revoked = submit_two(3);
  ASSERT_TRUE(sky_->RevokeBinding(p.client, p.sid).ok());
  expect_rejected(revoked);
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  for (const uint64_t token : revoked) {
    EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, token).status().code(),
              ErrorCode::kPermissionDenied);
  }
  ExpectHealthy();
}

TEST_F(BatchTest, RevokedBindingFailsPendingEntriesClientSide) {
  Boot();
  Pair p = MakePair(EchoHandler());

  std::vector<uint64_t> tokens;
  for (int i = 0; i < 3; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Message(i));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  ASSERT_TRUE(sky_->RevokeBinding(p.client, p.sid).ok());

  // The flush does not cross; pending entries complete with PermissionDenied.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  EXPECT_EQ(Metric("skybridge.ipc.batch_flushes"), 0u);  // No crossing happened.
  for (const uint64_t token : tokens) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, token);
    EXPECT_EQ(reply.status().code(), ErrorCode::kPermissionDenied);
  }
  // New submissions are refused outright.
  auto refused = sky_->SubmitCall(p.thread, p.sid, Message(9));
  EXPECT_EQ(refused.status().code(), ErrorCode::kPermissionDenied);
  ExpectHealthy();
}

// ---- The drain bounds every client-written word ----

// The client writes the tail. One far past the head used to replay stale
// slots 100,000 times in one crossing; now any tail outside one ring of the
// drain's head refuses the whole crossing.
TEST_F(BatchTest, TailOutsideOneRingOfTheHeadRefusesTheCrossing) {
  Boot();
  const uint64_t entries = kBatchRingEntries;
  int runs = 0;
  Pair p = MakePair([&](CallEnv& env) {
    ++runs;
    return env.request;
  });
  auto token = sky_->SubmitCall(p.thread, p.sid, Message(1));
  ASSERT_TRUE(token.ok());
  const std::span<uint8_t> ring = RingBytes(p);
  const uint64_t tail_off = offsetof(BatchRingView::Header, sq_tail);
  auto expect_refused = [&](uint64_t head, uint64_t bogus_tail) {
    SCOPED_TRACE(testing::Message() << "head " << head << " tail " << bogus_tail);
    Poke(ring, tail_off, bogus_tail);
    const uint64_t rejections = Metric("skybridge.ipc.gate_rejections");
    const int runs_before = runs;
    ASSERT_EQ(sky_->FlushBatch(p.thread, p.sid).code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(runs, runs_before);
    EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), rejections + 1);
    ExpectHealthy();
  };
  for (const uint64_t bogus : {*token + 100000, *token + entries + 1, uint64_t{~0ULL}}) {
    expect_refused(*token, bogus);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, *token).status().code(),
              ErrorCode::kUnavailable);
  }
  // The honest tail drains normally, and a tail behind the new head is
  // refused too.
  Poke(ring, tail_off, *token + 1);
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, *token).ok());
  auto next = sky_->SubmitCall(p.thread, p.sid, Message(2));
  ASSERT_TRUE(next.ok());
  expect_refused(*next, *token);
}

// A request length past the entry's payload span fails that entry only:
// no handler sees a byte beyond its entry.
TEST_F(BatchTest, OversizedRequestLengthFailsOnlyItsEntry) {
  Boot();
  std::vector<size_t> seen;
  size_t cap = 0;
  Pair p = MakePair([&](CallEnv& env) {
    seen.push_back(env.request.size());
    cap = env.reply_buffer.size();
    return env.request;
  });
  std::vector<uint64_t> tokens;
  for (int i = 0; i < 3; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Payload(i, "entry-" + std::to_string(i)));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  Poke(RingBytes(p), DescOff(tokens[1]) + offsetof(BatchRingView::Desc, req_len),
       uint32_t{0x7fffffff});
  const uint64_t rejections = Metric("skybridge.ipc.gate_rejections");
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());

  ASSERT_EQ(seen.size(), 2u);
  for (const size_t n : seen) {
    EXPECT_LE(n, cap);
  }
  EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, tokens[1]).status().code(),
            ErrorCode::kOutOfRange);
  for (const int i : {0, 2}) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->ToString(), "entry-" + std::to_string(i));
  }
  EXPECT_EQ(Metric("skybridge.ipc.gate_rejections"), rejections + 1);
  ExpectHealthy();
}

// The drain starts from its own head. A header head scribbled forward, yet
// within what the client accepts, must not skip an entry.
TEST_F(BatchTest, ScribbledHeaderHeadDoesNotMoveTheDrainStart) {
  Boot();
  std::vector<uint64_t> drained;
  Pair p = MakePair([&](CallEnv& env) {
    drained.push_back(env.request.tag);
    return env.request;
  });
  std::vector<uint64_t> tokens;
  for (uint64_t tag = 1; tag <= 2; ++tag) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Message(tag));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  Poke(RingBytes(p), offsetof(BatchRingView::Header, sq_head), tokens[0] + 1);
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  EXPECT_EQ(drained, (std::vector<uint64_t>{1, 2}));
  for (size_t i = 0; i < tokens.size(); ++i) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, i + 1);
  }
  ExpectHealthy();
}

// Slot ownership is client-private: a server that overwrites every byte of
// a completed descriptor gets a clean error at poll and cannot leak the slot.
TEST_F(BatchTest, ScribbledCompletedDescriptorLeaksNoSlot) {
  Boot();
  const uint32_t entries = kBatchRingEntries;
  Pair p = MakePair(EchoHandler());
  auto token = sky_->SubmitCall(p.thread, p.sid, Message(1));
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  const std::span<uint8_t> ring = RingBytes(p);
  std::memset(ring.data() + DescOff(*token), 0xa5, BatchRingView::kDescBytes);

  EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, *token).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, *token).status().code(),
            ErrorCode::kInvalidArgument);
  // Every slot, the scribbled one included, takes a new submission.
  std::vector<uint64_t> tokens;
  for (uint32_t i = 0; i < entries; ++i) {
    auto next = sky_->SubmitCall(p.thread, p.sid, Message(100 + i));
    ASSERT_TRUE(next.ok()) << i << ": " << next.status().ToString();
    tokens.push_back(*next);
  }
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  for (uint32_t i = 0; i < entries; ++i) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, 100u + i);
  }
  ExpectHealthy();
}

// PAPER.md item 4(d): the timeout bounds the drain as well as the sync
// call. A slow handler returns the crossing early; the entries it did not
// reach stay pending and a later flush completes them.
TEST_F(BatchTest, DrainStopsAtTheTimeoutAndLeavesTheRestPending) {
  Boot();
  const uint32_t entries = kBatchRingEntries;
  uint32_t runs = 0;
  Pair p = MakePair([&](CallEnv& env) {
    ++runs;
    env.core.AdvanceCycles(kHandlerTimeoutCycles / 5 * 2);
    return env.request;
  });
  std::vector<uint64_t> tokens;
  for (uint32_t i = 0; i < entries; ++i) {
    auto token = sky_->SubmitCall(p.thread, p.sid, Message(i));
    ASSERT_TRUE(token.ok());
    tokens.push_back(*token);
  }
  const uint64_t timeouts = Metric("skybridge.ipc.timeouts");
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  EXPECT_GT(runs, 0u);
  ASSERT_LT(runs, entries);
  EXPECT_EQ(Metric("skybridge.ipc.timeouts"), timeouts + 1);
  EXPECT_EQ(sky_->PollCompletion(p.thread, p.sid, tokens[runs]).status().code(),
            ErrorCode::kUnavailable);
  ExpectHealthy();

  for (int flushes = 1; runs < entries && flushes < static_cast<int>(entries); ++flushes) {
    ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  }
  EXPECT_EQ(runs, entries);
  for (uint32_t i = 0; i < entries; ++i) {
    auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->tag, i);
  }
  ExpectHealthy();
}

// ---- Adaptive drain: submissions arriving during the drain ----

TEST_F(BatchTest, AdaptiveDrainPicksUpRefillRounds) {
  Boot();
  Pair p = MakePair(EchoHandler());

  // The refill hook models the client core producing while the server
  // drains: two extra submissions per round, six total.
  int refills_left = 3;
  std::vector<uint64_t> refill_tokens;
  sky_->SetBatchRefill([&] {
    if (refills_left-- <= 0) {
      return;
    }
    for (int i = 0; i < 2; ++i) {
      auto token = sky_->SubmitCall(p.thread, p.sid, Message(100));
      if (token.ok()) {
        refill_tokens.push_back(*token);
      }
    }
  });

  auto t0 = sky_->SubmitCall(p.thread, p.sid, Message(1));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  sky_->SetBatchRefill(nullptr);

  // One crossing, multiple rounds: the refilled entries completed without
  // another VMFUNC.
  EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, *t0).ok());
  EXPECT_EQ(refill_tokens.size(), 6u);
  for (const uint64_t token : refill_tokens) {
    EXPECT_TRUE(sky_->PollCompletion(p.thread, p.sid, token).ok());
  }
  EXPECT_EQ(Metric("skybridge.ipc.batch_flushes"), 1u);
  EXPECT_GE(Metric("skybridge.ipc.drain_rounds"), 3u);
  ExpectHealthy();
}

TEST_F(BatchTest, DrainRoundsBoundedByConfig) {
  Boot();
  Pair p = MakePair(EchoHandler());

  // An unbounded refill source: the drain must stop after kMaxDrainRounds
  // and leave the rest for the next flush.
  sky_->SetBatchRefill([&] {
    (void)sky_->SubmitCall(p.thread, p.sid, Message(7));
  });
  ASSERT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(1)).ok());
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  sky_->SetBatchRefill(nullptr);

  EXPECT_EQ(Metric("skybridge.ipc.drain_rounds"), kMaxDrainRounds);
  // The last refilled entry is still pending; a second flush finishes it.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ExpectHealthy();
}

// ---- The free-list slice allocator (the old tid % slices collision) ----

TEST_F(BatchTest, SliceAllocatorHandsOutDistinctSlicesAndExhausts) {
  SkyBridgeConfig config;
  config.buffer_slices = 4;
  Boot(config);
  Pair p = MakePair(EchoHandler());

  // Five connections contend for four slices. Under the old
  // `tid % buffer_slices` mapping, tid 4 silently shared tid 0's slice.
  std::vector<mk::Thread*> threads = {p.thread};
  for (int i = 1; i < 5; ++i) {
    threads.push_back(p.client->AddThread(0));
  }
  std::vector<std::span<uint8_t>> spans;
  for (int i = 0; i < 4; ++i) {
    auto buf = sky_->AcquireSendBuffer(threads[i], p.sid);
    ASSERT_TRUE(buf.ok()) << buf.status().ToString();
    spans.push_back(*buf);
  }
  // All four slices are pairwise disjoint.
  for (size_t a = 0; a < spans.size(); ++a) {
    for (size_t b = a + 1; b < spans.size(); ++b) {
      const bool disjoint = spans[a].data() + spans[a].size() <= spans[b].data() ||
                            spans[b].data() + spans[b].size() <= spans[a].data();
      EXPECT_TRUE(disjoint) << "slices " << a << " and " << b << " overlap";
    }
  }
  // The fifth connection gets an explicit error, not a shared slice.
  auto exhausted = sky_->AcquireSendBuffer(threads[4], p.sid);
  EXPECT_EQ(exhausted.status().code(), ErrorCode::kResourceExhausted);
  // Re-acquiring an established connection still returns its own slice.
  auto again = sky_->AcquireSendBuffer(threads[0], p.sid);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data(), spans[0].data());
  ExpectHealthy();
}

TEST_F(BatchTest, QueuedSubmissionInvariantsHold) {
  Boot();
  Pair p = MakePair(EchoHandler());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(i)).ok());
  }
  ExpectHealthy();  // Slot tokens inside the ring window, slices consistent.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ExpectHealthy();
}

// ---- Seeded ring mutations ----
//
// Both ends of the ring can write every shared byte. These tests scribble
// them from a fixed seed in two modes:
//   client: between submit and flush, and from the refill hook mid-drain,
//           the tail (and the head), the descriptors and the payload bytes;
//   server: from inside the handler, the head, any descriptor (completed
//           ones included) and the payload bytes.
// The oracle, after every flush: the flush returns OK or OutOfRange and each
// poll an in-bounds reply or an error; no handler sees a byte past its
// entry; the handler runs at most entries x kMaxDrainRounds times per
// crossing (checked inside the handler, so an unbounded drain aborts
// instead of hanging); and CheckInvariants holds.
class RingMutationTest : public BatchTest {
 protected:
  static constexpr uint32_t kEntries = kBatchRingEntries;
  static constexpr uint32_t kDrainRounds = kMaxDrainRounds;
  static constexpr int kRoundsPerWorld = 32;
  static constexpr uint64_t kMutationsPerMode = 10000;

  enum class Mode { kClient, kServer };

  // A value biased toward the boundaries a bounds check must hold at.
  static uint64_t Word(sb::Rng& rng, uint64_t near) {
    switch (rng.Below(6)) {
      case 0:
        return 0;
      case 1:
        return near + rng.Below(2 * kEntries + 4) - 4;
      case 2:
        return 0x7fffffff;
      case 3:
        return ~0ULL;
      case 4:
        return rng.Below(1 << 16);
      default:
        return rng.Next();
    }
  }

  // Entry `slot`'s payload span, carved as BufferPool::CarveRing carves it.
  static std::span<uint8_t> EntrySpan(std::span<uint8_t> ring, uint64_t slot) {
    const uint64_t fixed = BatchRingView::kHeaderBytes + kEntries * BatchRingView::kDescBytes;
    const uint64_t cap = (ring.size() - fixed) / kEntries;
    return ring.subspan(fixed + slot * cap, cap);
  }

  template <typename T>
  static void PokeWord(std::span<uint8_t> ring, uint64_t off, sb::Rng& rng) {
    T old;
    std::memcpy(&old, ring.data() + off, sizeof(old));
    Poke(ring, off, static_cast<T>(Word(rng, old)));
  }

  // One scribble of a word or byte run that `mode`'s end can write.
  static void Scribble(Mode mode, std::span<uint8_t> ring, sb::Rng& rng) {
    const uint64_t slot = rng.Below(kEntries);
    switch (rng.Below(4)) {
      case 0: {
        // The server writes the head. The client writes the tail, and its
        // mapping lets it scribble the head too.
        const bool tail = mode == Mode::kClient && !rng.OneIn(4);
        PokeWord<uint64_t>(ring,
                           tail ? offsetof(BatchRingView::Header, sq_tail)
                                : offsetof(BatchRingView::Header, sq_head),
                           rng);
        return;
      }
      case 1:
      case 2: {
        const uint64_t desc = BatchRingView::kHeaderBytes + slot * BatchRingView::kDescBytes;
        using D = BatchRingView::Desc;
        switch (rng.Below(7)) {
          case 0: PokeWord<uint64_t>(ring, desc + offsetof(D, tag), rng); return;
          case 1: PokeWord<uint64_t>(ring, desc + offsetof(D, reply_tag), rng); return;
          case 2: PokeWord<uint32_t>(ring, desc + offsetof(D, req_len), rng); return;
          case 3: PokeWord<uint32_t>(ring, desc + offsetof(D, reply_len), rng); return;
          case 4: PokeWord<uint32_t>(ring, desc + offsetof(D, status), rng); return;
          case 5: PokeWord<uint64_t>(ring, desc + offsetof(D, call_id), rng); return;
          default: PokeWord<uint64_t>(ring, desc + rng.Below(BatchRingView::kDescBytes / 8) * 8,
                                      rng);
                   return;
        }
      }
      default: {
        const std::span<uint8_t> entry = EntrySpan(ring, slot);
        const uint64_t len = rng.Range(1, 16);
        const uint64_t off = rng.Below(entry.size() - len + 1);
        for (uint64_t i = 0; i < len; ++i) {
          entry[off + i] = static_cast<uint8_t>(rng.Next());
        }
        return;
      }
    }
  }

  void Run(Mode mode, uint64_t seed) {
    sb::Rng rng(seed);
    uint64_t mutations = 0;
    uint64_t replies = 0;
    while (mutations < kMutationsPerMode) {
      SCOPED_TRACE(testing::Message() << "mutation " << mutations);
      Boot();
      std::span<uint8_t> ring;
      uint32_t runs = 0;
      uint32_t escapes = 0;
      uint64_t checksum = 0;
      Pair p = MakePair([&](CallEnv& env) {
        // An unbounded drain would never return to a check after the flush.
        SB_CHECK(++runs <= kEntries * kDrainRounds) << "drain ran past entries x rounds";
        const std::span<const uint8_t> req = env.request.payload();
        const uint8_t* lo = env.reply_buffer.data();
        if (req.data() < lo || req.data() + req.size() > lo + env.reply_buffer.size()) {
          ++escapes;
        } else {
          for (const uint8_t b : req) {
            checksum += b;
          }
        }
        if (mode == Mode::kServer && rng.OneIn(2)) {
          Scribble(mode, ring, rng);
          ++mutations;
        }
        return env.request;
      });
      if (mode == Mode::kClient) {
        sky_->SetBatchRefill([&] {
          if (rng.OneIn(4)) {
            Scribble(mode, ring, rng);
            ++mutations;
          }
        });
      }
      std::vector<uint64_t> outstanding;
      for (int round = 0; round < kRoundsPerWorld; ++round) {
        const uint64_t submits = rng.Range(1, kEntries);
        for (uint64_t i = 0; i < submits; ++i) {
          const std::vector<uint8_t> bytes(rng.Below(65), static_cast<uint8_t>(rng.Next()));
          auto token = sky_->SubmitCall(p.thread, p.sid, Message(rng.Next(), bytes));
          if (token.ok()) {
            outstanding.push_back(*token);
          } else {
            EXPECT_EQ(token.status().code(), ErrorCode::kResourceExhausted);
          }
        }
        if (ring.empty()) {
          ring = RingBytes(p);
        }
        if (mode == Mode::kClient) {
          for (uint64_t n = rng.Range(1, 3); n > 0; --n) {
            Scribble(mode, ring, rng);
            ++mutations;
          }
        }
        runs = 0;
        const sb::Status flushed = sky_->FlushBatch(p.thread, p.sid);
        EXPECT_TRUE(flushed.ok() || flushed.code() == ErrorCode::kOutOfRange)
            << flushed.ToString();
        EXPECT_EQ(escapes, 0u);

        std::vector<uint64_t> pending;
        for (const uint64_t token : outstanding) {
          auto reply = sky_->PollCompletion(p.thread, p.sid, token);
          if (reply.ok()) {
            // In bounds: the reply is a view of the token's own entry span.
            const std::span<uint8_t> entry = EntrySpan(ring, token % kEntries);
            const std::span<const uint8_t> bytes = reply->payload();
            EXPECT_GE(bytes.data(), entry.data());
            EXPECT_LE(bytes.data() + bytes.size(), entry.data() + entry.size());
            for (const uint8_t b : bytes) {
              checksum += b;
            }
            ++replies;
          } else if (reply.status().code() == ErrorCode::kUnavailable) {
            pending.push_back(token);
          }
        }
        outstanding = std::move(pending);
        ExpectHealthy();
        if (HasFailure()) {
          return;
        }
      }
      sky_->SetBatchRefill(nullptr);
    }
    // The run exercised completed replies too, not only rejections.
    EXPECT_GT(replies, kMutationsPerMode / 10);
  }
};

TEST_F(RingMutationTest, ClientScribblesStayContained) { Run(Mode::kClient, 0xc11e47); }

TEST_F(RingMutationTest, ServerScribblesStayContained) { Run(Mode::kServer, 0x5e7e7); }

}  // namespace
}  // namespace skybridge
