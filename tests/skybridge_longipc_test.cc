// Long-message IPC tests: per-connection buffer carving, the in-place
// (zero-copy) call/reply API, copy-mode cost ordering, capacity boundaries,
// and the long-reply overflow regression (the client's EPT view must be
// restored even when the reply is rejected).

#include <algorithm>
#include <cstring>
#include <string_view>

#include <gtest/gtest.h>

#include "src/skybridge/skybridge.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Handler;
using mk::Message;
using sb::kGiB;

hw::MachineConfig TestMachine() {
  hw::MachineConfig config;
  config.num_cores = 4;
  config.ram_bytes = 4 * kGiB;
  return config;
}

class LongIpcTest : public ::testing::Test {
 protected:
  void Boot(SkyBridgeConfig config = {}) {
    sky_.reset();
    kernel_.reset();
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(TestMachine());
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

  uint64_t reg_capacity() const { return kernel_->profile().register_msg_capacity; }

  // A counter or gauge on this world's telemetry registry.
  uint64_t Metric(std::string_view name) const { return machine_->telemetry().Value(name); }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<mk::Kernel> kernel_;
  std::unique_ptr<SkyBridge> sky_;
};

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

// ---- S1 regression: an oversized reply must not strand the client in the
// server's EPT view. ----

TEST_F(LongIpcTest, OversizedReplyRestoresClientViewAndFails) {
  Boot();
  const uint64_t too_big = SkyBridgeConfig{}.shared_buffer_bytes + 1;
  Handler handler = [too_big](CallEnv& env) {
    if (env.request.tag != 1) {
      return Message(0);
    }
    return Message::FromString(1, std::string(too_big, 'x'));
  };
  Pair p = MakePair(handler);
  ASSERT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(0)).ok());

  hw::Core& core = machine_->core(0);
  const size_t client_view = core.vmcs().active_index;
  const uint64_t rejected_before = Metric("skybridge.ipc.rejected_calls");

  auto result = sky_->DirectServerCall(p.thread, p.sid, Message(1));
  EXPECT_EQ(result.status().code(), sb::ErrorCode::kOutOfRange);
  // The return gate ran: we are back in the client's EPT view, not stranded
  // in the server's.
  EXPECT_EQ(core.vmcs().active_index, client_view);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), rejected_before + 1);

  // The connection still works.
  EXPECT_TRUE(sky_->DirectServerCall(p.thread, p.sid, Message(2)).ok());
}

// ---- S2 regression: reply bytes written through the shared buffer must be
// visible in the returned message. ----

TEST_F(LongIpcTest, LongReplyBytesReachTheClient) {
  Boot();
  std::string payload(3000, 'r');
  payload[0] = 'R';
  payload[2999] = '!';
  Handler handler = [payload](CallEnv&) { return Message::FromString(1, payload); };
  Pair p = MakePair(handler);
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(0));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->ToString(), payload);
}

TEST_F(LongIpcTest, LongReplyBytesReachTheClientInLegacyTwoCopyMode) {
  SkyBridgeConfig config;
  config.legacy_two_copy = true;
  Boot(config);
  std::string payload(3000, 's');
  payload[0] = 'S';
  Handler handler = [payload](CallEnv&) { return Message::FromString(1, payload); };
  Pair p = MakePair(handler);
  auto reply = sky_->DirectServerCall(p.thread, p.sid, Message(0));
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->borrowed());  // Two-copy mode hands back an owned copy.
  EXPECT_EQ(reply->ToString(), payload);
}

// ---- S3: capacity boundaries. ----

TEST_F(LongIpcTest, RegisterCapacityMessageStaysShort) {
  Boot();
  Pair p = MakePair(EchoHandler());
  Message msg(7);
  msg.data.assign(reg_capacity(), 0x5a);
  auto reply = sky_->DirectServerCall(p.thread, p.sid, msg);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->size(), reg_capacity());
  EXPECT_EQ(Metric("skybridge.ipc.long_calls"), 0u);  // Fits in registers.
}

TEST_F(LongIpcTest, OneOverRegisterCapacityGoesLong) {
  Boot();
  Pair p = MakePair(EchoHandler());
  Message msg(7);
  msg.data.assign(reg_capacity() + 1, 0x5a);
  auto reply = sky_->DirectServerCall(p.thread, p.sid, msg);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->size(), reg_capacity() + 1);
  EXPECT_EQ(Metric("skybridge.ipc.long_calls"), 1u);
}

TEST_F(LongIpcTest, FullSliceMessageFitsAndOneMoreByteIsRejected) {
  Boot();
  Pair p = MakePair(EchoHandler());
  const uint64_t cap = SkyBridgeConfig{}.shared_buffer_bytes;

  Message fits(7);
  fits.data.assign(cap, 0xa5);
  auto reply = sky_->DirectServerCall(p.thread, p.sid, fits);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->size(), cap);

  Message over(7);
  over.data.assign(cap + 1, 0xa5);
  const uint64_t rejected_before = Metric("skybridge.ipc.rejected_calls");
  auto result = sky_->DirectServerCall(p.thread, p.sid, over);
  EXPECT_EQ(result.status().code(), sb::ErrorCode::kOutOfRange);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), rejected_before + 1);
}

// ---- In-place (zero-copy) API. ----

TEST_F(LongIpcTest, InPlaceCallRoundTripCarriesBytes) {
  Boot();
  std::string seen;
  Handler handler = [&seen](CallEnv& env) {
    seen = env.request.ToString();
    return env.request;  // Borrowed echo: reply already in the slice.
  };
  Pair p = MakePair(handler);

  auto buf = sky_->AcquireSendBuffer(p.thread, p.sid);
  ASSERT_TRUE(buf.ok()) << buf.status().ToString();
  const uint64_t len = 4096;
  ASSERT_GE(buf->size(), len);
  for (uint64_t i = 0; i < len; ++i) {
    (*buf)[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  auto reply = sky_->DirectServerCallInPlace(p.thread, p.sid, 9, len);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->tag, 9u);
  ASSERT_EQ(seen.size(), len);
  ASSERT_EQ(reply->size(), len);
  for (uint64_t i = 0; i < len; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(seen[i]), static_cast<uint8_t>(i * 31 + 7));
    EXPECT_EQ(reply->payload()[i], static_cast<uint8_t>(i * 31 + 7));
  }
  EXPECT_EQ(Metric("skybridge.ipc.inplace_calls"), 1u);
  EXPECT_EQ(Metric("skybridge.ipc.inplace_replies"), 1u);
}

TEST_F(LongIpcTest, InPlaceCallChargesNoCopyCycles) {
  Boot();
  Pair p = MakePair(EchoHandler());
  // Warm up.
  auto buf = sky_->AcquireSendBuffer(p.thread, p.sid);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(sky_->DirectServerCallInPlace(p.thread, p.sid, 1, 16384).ok());

  const hw::Core& core = machine_->core(0);
  const uint64_t copy_before = core.ledger()[hw::Bucket::kCopy];
  ASSERT_TRUE(sky_->DirectServerCallInPlace(p.thread, p.sid, 1, 16384).ok());
  // Neither request nor reply was copied.
  EXPECT_EQ(core.ledger()[hw::Bucket::kCopy], copy_before);
}

TEST_F(LongIpcTest, InPlaceCallOverCapacityRejected) {
  Boot();
  Pair p = MakePair(EchoHandler());
  ASSERT_TRUE(sky_->AcquireSendBuffer(p.thread, p.sid).ok());
  const uint64_t rejected_before = Metric("skybridge.ipc.rejected_calls");
  auto result = sky_->DirectServerCallInPlace(p.thread, p.sid, 1,
                                              SkyBridgeConfig{}.shared_buffer_bytes + 1);
  EXPECT_EQ(result.status().code(), sb::ErrorCode::kOutOfRange);
  EXPECT_EQ(Metric("skybridge.ipc.rejected_calls"), rejected_before + 1);
}

TEST_F(LongIpcTest, AcquireSendBufferRejectsStrangers) {
  Boot();
  Pair p = MakePair(EchoHandler());
  EXPECT_EQ(sky_->AcquireSendBuffer(p.thread, p.sid + 1000).status().code(),
            sb::ErrorCode::kNotFound);

  auto* stranger = kernel_->CreateProcess("stranger").value();
  mk::Thread* t = stranger->AddThread(1);
  EXPECT_EQ(sky_->AcquireSendBuffer(t, p.sid).status().code(),
            sb::ErrorCode::kPermissionDenied);
}

// ---- Per-connection carving: two threads of the same binding use disjoint
// slices and do not corrupt each other. ----

TEST_F(LongIpcTest, TwoConnectionsUseDisjointSlices) {
  Boot();
  Handler handler = [](CallEnv& env) { return env.request; };
  Pair p = MakePair(handler);
  mk::Thread* t2 = p.client->AddThread(1);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(1), p.client).ok());

  auto buf_a = sky_->AcquireSendBuffer(p.thread, p.sid);
  auto buf_b = sky_->AcquireSendBuffer(t2, p.sid);
  ASSERT_TRUE(buf_a.ok());
  ASSERT_TRUE(buf_b.ok());
  ASSERT_NE(buf_a->data(), buf_b->data());

  // Fill both slices, then issue both calls: neither call may disturb the
  // other connection's in-flight payload.
  const uint64_t len = 8192;
  std::fill_n(buf_a->data(), len, 0xAA);
  std::fill_n(buf_b->data(), len, 0xBB);

  auto reply_a = sky_->DirectServerCallInPlace(p.thread, p.sid, 1, len);
  ASSERT_TRUE(reply_a.ok());
  auto reply_b = sky_->DirectServerCallInPlace(t2, p.sid, 2, len);
  ASSERT_TRUE(reply_b.ok());

  ASSERT_EQ(reply_a->size(), len);
  ASSERT_EQ(reply_b->size(), len);
  EXPECT_TRUE(std::all_of(reply_a->payload().begin(), reply_a->payload().end(),
                          [](uint8_t b) { return b == 0xAA; }));
  EXPECT_TRUE(std::all_of(reply_b->payload().begin(), reply_b->payload().end(),
                          [](uint8_t b) { return b == 0xBB; }));
}

// ---- Copy-mode cost ordering: zero-copy <= one-copy <= two-copy. ----

TEST_F(LongIpcTest, CopyModesOrderAsExpected) {
  const uint64_t len = 16384;

  auto measure = [&](bool legacy, bool in_place) -> uint64_t {
    SkyBridgeConfig config;
    config.legacy_two_copy = legacy;
    Boot(config);
    // One-copy must still pay the reply write, so echo an owned copy; the
    // zero-copy mode echoes the borrowed slice view directly.
    Handler handler = in_place ? EchoHandler()
                               : Handler([](CallEnv& env) { return env.request.ToOwned(); });
    Pair p = MakePair(std::move(handler));
    Message msg(1);
    if (!in_place) {
      msg.data.assign(len, 0xcd);
    }
    for (int i = 0; i < 4; ++i) {  // Warm caches and TLBs.
      if (in_place) {
        SB_CHECK(sky_->AcquireSendBuffer(p.thread, p.sid).ok());
        SB_CHECK(sky_->DirectServerCallInPlace(p.thread, p.sid, 1, len).ok());
      } else {
        SB_CHECK(sky_->DirectServerCall(p.thread, p.sid, msg).ok());
      }
    }
    const hw::Core& core = machine_->core(0);
    const uint64_t copy_before = core.ledger()[hw::Bucket::kCopy];
    if (in_place) {
      SB_CHECK(sky_->DirectServerCallInPlace(p.thread, p.sid, 1, len).ok());
    } else {
      SB_CHECK(sky_->DirectServerCall(p.thread, p.sid, msg).ok());
    }
    return core.ledger()[hw::Bucket::kCopy] - copy_before;
  };

  const uint64_t two_copy = measure(/*legacy=*/true, /*in_place=*/false);
  const uint64_t one_copy = measure(/*legacy=*/false, /*in_place=*/false);
  const uint64_t zero_copy = measure(/*legacy=*/false, /*in_place=*/true);

  EXPECT_EQ(zero_copy, 0u);
  EXPECT_LT(zero_copy, one_copy);
  EXPECT_LT(one_copy, two_copy);
}

}  // namespace
}  // namespace skybridge
