// Batched + asynchronous IPC (DESIGN.md section 13): submission/completion
// rings, the batch-dispatch drain leg, per-entry fault semantics, the
// free-list slice allocator, and the async Submit/Poll/Wait API.

#include "src/skybridge/skybridge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/faultpoint.h"
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
    EXPECT_EQ(kernel_->rootkernel()->ActiveEptId(0), current->ept_id());
  }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

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
  SkyBridgeConfig config;
  config.batch_ring_entries = 8;
  Boot(config);
  Pair p = MakePair(EchoHandler());

  uint64_t expected_token = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<uint64_t> tokens;
    for (int i = 0; i < 8; ++i) {
      auto token = sky_->SubmitCall(p.thread, p.sid, Payload(round * 8 + i, "x"));
      ASSERT_TRUE(token.ok());
      EXPECT_EQ(*token, expected_token++);  // Tokens are monotone; slots wrap.
      tokens.push_back(*token);
    }
    ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
    for (int i = 0; i < 8; ++i) {
      auto reply = sky_->PollCompletion(p.thread, p.sid, tokens[i]);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->tag, static_cast<uint64_t>(round * 8 + i));
    }
  }
  ExpectHealthy();
}

// ---- Backpressure and per-entry capacity ----

TEST_F(BatchTest, FullRingIsExplicitlyExhausted) {
  SkyBridgeConfig config;
  config.batch_ring_entries = 8;
  Boot(config);
  Pair p = MakePair(EchoHandler());

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(i)).ok());
  }
  auto overflow = sky_->SubmitCall(p.thread, p.sid, Message(9));
  EXPECT_EQ(overflow.status().code(), ErrorCode::kResourceExhausted);

  // Flush + reap one slot: submission works again.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ASSERT_TRUE(sky_->PollCompletion(p.thread, p.sid, 0).ok());
  EXPECT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(10)).ok());
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
  const uint32_t entries = sky_->config().batch_ring_entries;
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
        std::memcpy(sibling + BatchRingView::kDescReplyLen, &huge_len, sizeof(huge_len));
      } else {
        const uint32_t bogus_status = 1 + 200;  // No such ErrorCode.
        std::memcpy(sibling + BatchRingView::kDescStatus, &bogus_status, sizeof(bogus_status));
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
  const uint32_t entries = sky_->config().batch_ring_entries;
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
    std::memcpy(header + BatchRingView::kSqHeadOff, &value, sizeof(value));
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

// ---- Adaptive drain: submissions arriving during the drain ----

TEST_F(BatchTest, AdaptiveDrainPicksUpRefillRounds) {
  SkyBridgeConfig config;
  config.max_drain_rounds = 4;
  Boot(config);
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
  SkyBridgeConfig config;
  config.max_drain_rounds = 2;
  Boot(config);
  Pair p = MakePair(EchoHandler());

  // An unbounded refill source: the drain must stop after max_drain_rounds
  // and leave the rest for the next flush.
  sky_->SetBatchRefill([&] {
    (void)sky_->SubmitCall(p.thread, p.sid, Message(7));
  });
  ASSERT_TRUE(sky_->SubmitCall(p.thread, p.sid, Message(1)).ok());
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  sky_->SetBatchRefill(nullptr);

  EXPECT_EQ(Metric("skybridge.ipc.drain_rounds"), 2u);
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
  ExpectHealthy();  // queued_submissions <= ring entries, slices consistent.
  ASSERT_TRUE(sky_->FlushBatch(p.thread, p.sid).ok());
  ExpectHealthy();
}

}  // namespace
}  // namespace skybridge
