// Crossing-backend conformance suite (DESIGN.md section 16): one seeded call
// script is replayed against each backend (EPTP / MPK / kernel fastpath) and
// the observable outcomes — status codes, reply tags and bytes, invariant
// results — must be identical. The backends may differ in *cost* and in
// their isolation envelope (pinned separately by the security tests), never
// in IPC semantics.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/faultpoint.h"
#include "src/skybridge/skybridge.h"
#include "src/vmm/rootkernel.h"

namespace skybridge {
namespace {

using mk::CallEnv;
using mk::Message;
using sb::ErrorCode;
using sb::kGiB;

// The script only arms deterministic nth-hit faults at backend-invariant
// fault points, so every backend draws the same fault schedule.
constexpr uint64_t kScriptSeed = 0xc0f0'12e5ULL;

std::string CodeName(const sb::Status& status) {
  return status.ok() ? "ok" : std::to_string(static_cast<int>(status.code()));
}

// Runs the whole call script on a fresh world wired to `backend` and returns
// a printable transcript of every observable outcome.
std::vector<std::string> RunScript(CrossingBackendKind backend) {
  sb::fault::DisarmAll();
  sb::fault::SetSeed(kScriptSeed);

  hw::MachineConfig mc;
  mc.num_cores = 2;
  mc.ram_bytes = 2 * kGiB;
  hw::Machine machine(mc);
  mk::Kernel kernel(machine, mk::Sel4Profile());
  SB_CHECK(kernel.Boot().ok());
  SkyBridgeConfig config;
  config.crossing_backend = backend;
  SkyBridge sky(kernel, config);

  auto* server = kernel.CreateProcess("conf-server").value();
  const ServerId sid =
      sky.RegisterServer(server, 8,
                         [](CallEnv& env) {
                           Message reply = env.request;
                           reply.tag = env.request.tag * 3 + 1;
                           return reply;
                         })
          .value();
  auto* client = kernel.CreateProcess("conf-client").value();
  SB_CHECK(sky.RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(kernel.ContextSwitchTo(machine.core(0), client).ok());

  std::vector<std::string> transcript;
  auto record = [&](const std::string& step, const sb::Status& status,
                    const Message* reply = nullptr) {
    std::ostringstream line;
    line << step << " status=" << CodeName(status);
    if (status.ok() && reply != nullptr) {
      line << " tag=" << reply->tag << " len=" << reply->size();
      uint64_t sum = 0;
      for (const uint8_t b : reply->payload()) {
        sum = sum * 131 + b;
      }
      line << " paysum=" << sum;
    }
    const sb::Status invariants = sky.CheckInvariants();
    line << " invariants=" << CodeName(invariants) << " inflight=" << sky.InFlightCalls();
    transcript.push_back(line.str());
  };

  // 1. Register-size echo.
  {
    auto reply = sky.DirectServerCall(thread, sid, Message(11));
    record("small", reply.status(), reply.ok() ? &*reply : nullptr);
  }
  // 2. Long message through the shared buffer.
  {
    Message big(5);
    big.data.assign(4096, 0x7e);
    big.data[17] = 0x41;
    auto reply = sky.DirectServerCall(thread, sid, big);
    record("long", reply.status(), reply.ok() ? &*reply : nullptr);
  }
  // 3. In-place (zero-copy) call.
  {
    auto buf = sky.AcquireSendBuffer(thread, sid);
    SB_CHECK(buf.ok());
    for (size_t i = 0; i < 256; ++i) {
      (*buf)[i] = static_cast<uint8_t>(i * 7);
    }
    auto reply = sky.DirectServerCallInPlace(thread, sid, 9, 256);
    record("inplace", reply.status(), reply.ok() ? &*reply : nullptr);
  }
  // 4. Forged calling key.
  {
    auto reply = sky.CallWithForgedKey(thread, sid, Message(1), 0xbad);
    record("forged_key", reply.status());
  }
  // 5. Handler crash (nth-hit fault, backend-invariant point) + recovery.
  {
    sb::fault::FaultSpec spec;
    spec.nth_hit = 1;
    sb::fault::Arm(kFaultHandlerCrash, spec);
    auto crashed = sky.DirectServerCall(thread, sid, Message(2));
    sb::fault::DisarmAll();
    record("crash", crashed.status());
    auto after = sky.DirectServerCall(thread, sid, Message(3));
    record("crash_recovery", after.status(), after.ok() ? &*after : nullptr);
  }
  // 6. Corrupt reply rejected at the return gate.
  {
    sb::fault::FaultSpec spec;
    spec.nth_hit = 1;
    sb::fault::Arm(kFaultReplyCorrupt, spec);
    auto corrupt = sky.DirectServerCall(thread, sid, Message(4));
    sb::fault::DisarmAll();
    record("reply_corrupt", corrupt.status());
  }
  // 7. Revocation racing an in-flight call, refusal, revival.
  {
    sb::fault::FaultSpec spec;
    spec.nth_hit = 1;
    sb::fault::Arm(kFaultRevokeInflight, spec);
    auto racing = sky.DirectServerCall(thread, sid, Message(6));
    sb::fault::DisarmAll();
    record("revoke_inflight", racing.status(), racing.ok() ? &*racing : nullptr);
    auto refused = sky.DirectServerCall(thread, sid, Message(7));
    record("revoked_refusal", refused.status());
    record("revival", sky.RegisterClient(client, sid));
    auto revived = sky.DirectServerCall(thread, sid, Message(8));
    record("revived_call", revived.status(), revived.ok() ? &*revived : nullptr);
  }
  // 8. Batched IPC: submit, flush, poll.
  {
    std::vector<uint64_t> tokens;
    for (uint64_t i = 0; i < 4; ++i) {
      Message msg(20 + i);
      msg.data.assign(32 + i, static_cast<uint8_t>(i));
      auto token = sky.SubmitCall(thread, sid, msg);
      SB_CHECK(token.ok()) << token.status().ToString();
      tokens.push_back(*token);
    }
    record("batch_flush", sky.FlushBatch(thread, sid));
    for (const uint64_t token : tokens) {
      auto reply = sky.PollCompletion(thread, sid, token);
      record("batch_poll_" + std::to_string(token), reply.status(),
             reply.ok() ? &*reply : nullptr);
    }
  }
  // 9. Unregistered stranger.
  {
    auto* stranger = kernel.CreateProcess("conf-stranger").value();
    mk::Thread* st = stranger->AddThread(1);
    auto reply = sky.DirectServerCall(st, sid, Message(0));
    record("stranger", reply.status());
  }
  // 10. Deterministic end-state counters every backend must agree on.
  {
    std::ostringstream line;
    line << "counters";
    for (const char* name :
         {"skybridge.ipc.direct_calls", "skybridge.ipc.long_calls", "skybridge.ipc.inplace_calls",
          "skybridge.ipc.rejected_calls", "skybridge.ipc.aborted_calls",
          "skybridge.ipc.gate_rejections", "skybridge.bindings.revoked",
          "skybridge.ipc.batched_calls", "skybridge.ipc.batch_flushes"}) {
      line << " " << name << "=" << machine.telemetry().Value(name);
    }
    transcript.push_back(line.str());
  }
  sb::fault::DisarmAll();
  return transcript;
}

TEST(CrossingConformance, AllBackendsReplayTheScriptIdentically) {
  const std::vector<std::string> eptp = RunScript(CrossingBackendKind::kEptp);
  const std::vector<std::string> mpk = RunScript(CrossingBackendKind::kMpk);
  const std::vector<std::string> syscall = RunScript(CrossingBackendKind::kSyscall);
  ASSERT_FALSE(eptp.empty());
  EXPECT_EQ(eptp, mpk);
  EXPECT_EQ(eptp, syscall);
}

TEST(CrossingConformance, ScriptIsDeterministicPerBackend) {
  for (const CrossingBackendKind backend :
       {CrossingBackendKind::kEptp, CrossingBackendKind::kMpk,
        CrossingBackendKind::kSyscall}) {
    EXPECT_EQ(RunScript(backend), RunScript(backend)) << CrossingBackendName(backend);
  }
}

TEST(CrossingConformance, PerBackendCrossingCountersTickOnlyForTheActiveBackend) {
  for (const CrossingBackendKind backend :
       {CrossingBackendKind::kEptp, CrossingBackendKind::kMpk,
        CrossingBackendKind::kSyscall}) {
    hw::MachineConfig mc;
    mc.num_cores = 1;
    mc.ram_bytes = 2 * kGiB;
    hw::Machine machine(mc);
    mk::Kernel kernel(machine, mk::Sel4Profile());
    ASSERT_TRUE(kernel.Boot().ok());
    SkyBridgeConfig config;
    config.crossing_backend = backend;
    SkyBridge sky(kernel, config);
    auto* server = kernel.CreateProcess("s").value();
    const ServerId sid =
        sky.RegisterServer(server, 4, [](CallEnv& env) { return env.request; }).value();
    auto* client = kernel.CreateProcess("c").value();
    ASSERT_TRUE(sky.RegisterClient(client, sid).ok());
    mk::Thread* thread = client->AddThread(0);
    ASSERT_TRUE(kernel.ContextSwitchTo(machine.core(0), client).ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(sky.DirectServerCall(thread, sid, Message(0)).ok());
    }
    for (const CrossingBackendKind other :
         {CrossingBackendKind::kEptp, CrossingBackendKind::kMpk,
          CrossingBackendKind::kSyscall}) {
      const std::string prefix =
          std::string("skybridge.crossing.") + CrossingBackendName(other);
      const uint64_t enters = machine.telemetry().Value(prefix + ".enters");
      const uint64_t returns = machine.telemetry().Value(prefix + ".returns");
      if (other == backend) {
        EXPECT_EQ(enters, 10u) << prefix;
        EXPECT_EQ(returns, 10u) << prefix;
      } else {
        EXPECT_EQ(enters, 0u) << prefix;
        EXPECT_EQ(returns, 0u) << prefix;
      }
    }
  }
}

}  // namespace
}  // namespace skybridge
