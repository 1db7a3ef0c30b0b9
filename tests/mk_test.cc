// Subkernel tests: processes, capabilities, same-core and cross-core IPC,
// personalities, KPTI, identity pages.

#include "src/mk/kernel.h"

#include <gtest/gtest.h>

#include "src/base/logging.h"
#include "src/mk/profile.h"

namespace mk {
namespace {

using sb::kGiB;

hw::MachineConfig TestMachine(int cores = 4) {
  hw::MachineConfig config;
  config.num_cores = cores;
  config.ram_bytes = 4 * kGiB;
  return config;
}

Handler EchoHandler() {
  return [](CallEnv& env) { return env.request; };
}

class KernelTest : public ::testing::Test {
 protected:
  void BootKernel(KernelProfile profile, bool rootkernel = false) {
    kernel_.reset();   // Tear down in dependency order before re-booting.
    machine_.reset();
    machine_ = std::make_unique<hw::Machine>(TestMachine());
    KernelOptions options;
    options.boot_rootkernel = rootkernel;
    kernel_ = std::make_unique<Kernel>(*machine_, std::move(profile), options);
    ASSERT_TRUE(kernel_->Boot().ok());
  }

  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(KernelTest, CreateProcessBuildsAddressSpace) {
  BootKernel(Sel4Profile());
  auto p = kernel_->CreateProcess("proc");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE((*p)->address_space().WalkVa(kCodeVa).ok);
  EXPECT_TRUE((*p)->address_space().WalkVa(kHeapVa).ok);
  EXPECT_TRUE((*p)->address_space().WalkVa(kStackTopVa - 0x1000).ok);
  EXPECT_TRUE((*p)->address_space().WalkVa(kIdentityVa).ok);
  // Kernel upper half is visible (shared).
  EXPECT_TRUE((*p)->address_space().WalkVa(kKernelCodeVa).ok);
}

TEST_F(KernelTest, HeapAllocator) {
  BootKernel(Sel4Profile());
  auto p = kernel_->CreateProcess("proc");
  ASSERT_TRUE(p.ok());
  auto a = (*p)->AllocHeap(100);
  auto b = (*p)->AllocHeap(100);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(*b, *a + 100);
}

TEST_F(KernelTest, ProcessMemoryIsIsolated) {
  BootKernel(Sel4Profile());
  auto p1 = kernel_->CreateProcess("p1");
  auto p2 = kernel_->CreateProcess("p2");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  hw::Core& core = machine_->core(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p1).ok());
  ASSERT_TRUE(core.WriteVirtU64(kHeapVa, 0x1111).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p2).ok());
  ASSERT_TRUE(core.WriteVirtU64(kHeapVa, 0x2222).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p1).ok());
  auto v = core.ReadVirtU64(kHeapVa);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0x1111u);
}

TEST_F(KernelTest, IpcRequiresCapability) {
  BootKernel(Sel4Profile());
  auto client = kernel_->CreateProcess("client");
  auto server = kernel_->CreateProcess("server");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(server.ok());
  auto ep = kernel_->CreateEndpoint(*server, EchoHandler(), {});
  ASSERT_TRUE(ep.ok());
  Thread* t = (*client)->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), *client).ok());

  // No cap installed: slot 0 belongs to nothing in the client.
  EXPECT_FALSE(kernel_->IpcCall(t, 0, Message(1)).ok());

  // Grant without the call right: denied.
  auto slot_ro = kernel_->GrantEndpointCap(*client, (*ep)->id(), kRightGrant);
  ASSERT_TRUE(slot_ro.ok());
  EXPECT_EQ(kernel_->IpcCall(t, *slot_ro, Message(1)).status().code(),
            sb::ErrorCode::kPermissionDenied);

  // Grant with the call right: succeeds.
  auto slot = kernel_->GrantEndpointCap(*client, (*ep)->id(), kRightCall);
  ASSERT_TRUE(slot.ok());
  auto reply = kernel_->IpcCall(t, *slot, Message(42));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->tag, 42u);
}

struct IpcFixture {
  Process* client = nullptr;
  Process* server = nullptr;
  Thread* thread = nullptr;
  CapSlot slot = 0;
};

IpcFixture MakeIpcPair(Kernel& kernel, hw::Machine& machine, std::vector<int> server_cores,
                       Handler handler) {
  IpcFixture f;
  f.client = kernel.CreateProcess("client").value();
  f.server = kernel.CreateProcess("server").value();
  auto* ep = kernel.CreateEndpoint(f.server, std::move(handler), std::move(server_cores)).value();
  f.slot = kernel.GrantEndpointCap(f.client, ep->id(), kRightCall).value();
  f.thread = f.client->AddThread(0);
  SB_CHECK(kernel.ContextSwitchTo(machine.core(0), f.client).ok());
  return f;
}

// Measures the warm roundtrip cost of an empty-message IPC.
// With `ledger_out`, also returns the caller core's ledger delta over the
// measured calls.
uint64_t WarmRoundtrip(Kernel& kernel, hw::Machine& machine, IpcFixture& f,
                       hw::CycleLedger* ledger_out = nullptr) {
  for (int i = 0; i < 50; ++i) {
    SB_CHECK(kernel.IpcCall(f.thread, f.slot, Message(0)).ok());
  }
  hw::Core& core = machine.core(0);
  const uint64_t start = core.cycles();
  const hw::CycleLedger before = core.ledger();
  const int kIters = 100;
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(kernel.IpcCall(f.thread, f.slot, Message(0)).ok());
  }
  if (ledger_out != nullptr) {
    *ledger_out = core.ledger() - before;
  }
  return (core.cycles() - start) / kIters;
}

TEST_F(KernelTest, Sel4FastpathRoundtripNear986) {
  BootKernel(Sel4Profile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t rt = WarmRoundtrip(*kernel_, *machine_, f);
  EXPECT_GE(rt, 900u);
  EXPECT_LE(rt, 1100u);
}

TEST_F(KernelTest, FiascoRoundtripNear2717) {
  BootKernel(FiascoProfile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t rt = WarmRoundtrip(*kernel_, *machine_, f);
  EXPECT_GE(rt, 2500u);
  EXPECT_LE(rt, 3000u);
}

TEST_F(KernelTest, ZirconRoundtripNear8157) {
  BootKernel(ZirconProfile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t rt = WarmRoundtrip(*kernel_, *machine_, f);
  EXPECT_GE(rt, 7700u);
  EXPECT_LE(rt, 8700u);
}

TEST_F(KernelTest, KernelOrderingSel4FastestZirconSlowest) {
  uint64_t results[3];
  int i = 0;
  for (const KernelKind kind : {KernelKind::kSel4, KernelKind::kFiasco, KernelKind::kZircon}) {
    BootKernel(ProfileFor(kind));
    IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
    results[i++] = WarmRoundtrip(*kernel_, *machine_, f);
  }
  EXPECT_LT(results[0], results[1]);
  EXPECT_LT(results[1], results[2]);
}

TEST_F(KernelTest, LinuxMonolithicProfileIsSlowest) {
  // The Section 10 extension profile: pipe-style IPC with KPTI pays more
  // than any microkernel fastpath.
  BootKernel(LinuxProfile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t linux_rt = WarmRoundtrip(*kernel_, *machine_, f);

  BootKernel(Sel4Profile());
  IpcFixture f2 = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t sel4_rt = WarmRoundtrip(*kernel_, *machine_, f2);
  EXPECT_GT(linux_rt, 9000u);
  EXPECT_GT(linux_rt, sel4_rt * 8);
}

TEST_F(KernelTest, CrossCoreSel4Near6764) {
  BootKernel(Sel4Profile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {1}, EchoHandler());
  const uint64_t rt = WarmRoundtrip(*kernel_, *machine_, f);
  EXPECT_GE(rt, 6300u);
  EXPECT_LE(rt, 7300u);
  EXPECT_GT(machine_->telemetry().Value("mk.ipc.cross_core_calls"), 0u);
  EXPECT_GT(machine_->telemetry().Value("hw.ipi.sent"), 0u);
}

TEST_F(KernelTest, CrossCoreZirconNear20099) {
  BootKernel(ZirconProfile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {1}, EchoHandler());
  const uint64_t rt = WarmRoundtrip(*kernel_, *machine_, f);
  EXPECT_GE(rt, 19000u);
  EXPECT_LE(rt, 21500u);
}

TEST_F(KernelTest, BreakdownBucketsAddUp) {
  BootKernel(Sel4Profile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  hw::CycleLedger bd;
  const uint64_t rt = WarmRoundtrip(*kernel_, *machine_, f, &bd);
  // Per-roundtrip buckets: 2 mode switches (>= 418), 2 CR3 writes (372).
  EXPECT_GE(bd[hw::Bucket::kSyscall] / 100, 418u);
  EXPECT_EQ(bd[hw::Bucket::kCtxSwitch] / 100, 372u);
  EXPECT_EQ(bd[hw::Bucket::kVmfunc], 0u);
  // The buckets cover the measured total exactly.
  EXPECT_EQ(bd.total() / 100, rt);
}

TEST_F(KernelTest, CapabilityTransferOverIpc) {
  // seL4-style grant: the client mints its endpoint capability into a
  // broker, which can then call the endpoint itself.
  BootKernel(Sel4Profile());
  auto* service = kernel_->CreateProcess("service").value();
  auto* broker = kernel_->CreateProcess("broker").value();
  auto* client = kernel_->CreateProcess("client").value();

  auto* service_ep =
      kernel_->CreateEndpoint(service, [](CallEnv&) { return Message(0x5e41ce); }, {}).value();
  auto* broker_ep =
      kernel_->CreateEndpoint(broker, [](CallEnv& env) { return env.request; }, {}).value();

  // The client holds the service cap with grant rights, and a call cap to
  // the broker.
  ASSERT_TRUE(kernel_
                  ->GrantEndpointCap(client, service_ep->id(),
                                     kRightCall | kRightGrant)
                  .ok());
  const CapSlot to_broker =
      kernel_->GrantEndpointCap(client, broker_ep->id(), kRightCall).value();
  Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  // Send the service capability to the broker in a message.
  Message msg(1);
  msg.has_cap_grant = true;
  msg.grant_endpoint = service_ep->id();
  msg.grant_rights = kRightCall;
  ASSERT_TRUE(kernel_->IpcCall(t, to_broker, msg).ok());
  const CapSlot minted = kernel_->last_granted_slot();

  // The broker can now call the service with the minted capability.
  Thread* bt = broker->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), broker).ok());
  auto reply = kernel_->IpcCall(bt, minted, Message(0));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->tag, 0x5e41ceu);
}

TEST_F(KernelTest, CapabilityTransferRequiresGrantRight) {
  BootKernel(Sel4Profile());
  auto* service = kernel_->CreateProcess("service").value();
  auto* broker = kernel_->CreateProcess("broker").value();
  auto* client = kernel_->CreateProcess("client").value();
  auto* service_ep = kernel_->CreateEndpoint(service, EchoHandler(), {}).value();
  auto* broker_ep = kernel_->CreateEndpoint(broker, EchoHandler(), {}).value();
  // Only call rights on the service: granting it onwards must fail.
  ASSERT_TRUE(kernel_->GrantEndpointCap(client, service_ep->id(), kRightCall).ok());
  const CapSlot to_broker =
      kernel_->GrantEndpointCap(client, broker_ep->id(), kRightCall).value();
  Thread* t = client->AddThread(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), client).ok());

  Message msg(1);
  msg.has_cap_grant = true;
  msg.grant_endpoint = service_ep->id();
  msg.grant_rights = kRightCall;
  EXPECT_EQ(kernel_->IpcCall(t, to_broker, msg).status().code(),
            sb::ErrorCode::kPermissionDenied);
}

TEST_F(KernelTest, CapabilityTransferForcesSlowpath) {
  // "No capabilities are transferred" is a fastpath precondition: a message
  // with a grant costs more than a plain one.
  BootKernel(Sel4Profile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  auto* extra_ep = kernel_->CreateEndpoint(f.server, EchoHandler(), {}).value();
  const CapSlot grantable =
      kernel_->GrantEndpointCap(f.client, extra_ep->id(), kRightCall | kRightGrant).value();
  (void)grantable;
  const uint64_t plain_rt = WarmRoundtrip(*kernel_, *machine_, f);

  hw::Core& core = machine_->core(0);
  Message msg(1);
  msg.has_cap_grant = true;
  msg.grant_endpoint = extra_ep->id();
  msg.grant_rights = kRightCall;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(kernel_->IpcCall(f.thread, f.slot, msg).ok());
  }
  const uint64_t start = core.cycles();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(kernel_->IpcCall(f.thread, f.slot, msg).ok());
  }
  const uint64_t grant_rt = (core.cycles() - start) / 50;
  EXPECT_GT(grant_rt, plain_rt + 500);
}

TEST_F(KernelTest, LongMessageDeliveredToRecvBuffer) {
  BootKernel(Sel4Profile());
  std::string seen;
  Handler handler = [&seen](CallEnv& env) {
    seen = env.request.ToString();
    return Message(1);
  };
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, handler);
  std::string big(4096, 'x');
  big[0] = 'H';
  auto reply = kernel_->IpcCall(f.thread, f.slot, Message::FromString(9, big));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(seen.size(), 4096u);
  EXPECT_EQ(seen[0], 'H');

  // The bytes physically landed in the server's receive buffer.
  hw::Core& core = machine_->core(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, f.server).ok());
  auto v = core.ReadVirtU64(kernel_->endpoint(0)->recv_buffer());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(static_cast<char>(*v & 0xff), 'H');
}

TEST_F(KernelTest, LongMessagesCostMore) {
  BootKernel(Sel4Profile());
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t small_rt = WarmRoundtrip(*kernel_, *machine_, f);
  hw::Core& core = machine_->core(0);
  const Message big(1, std::vector<uint8_t>(8192, 7));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(kernel_->IpcCall(f.thread, f.slot, big).ok());
  }
  const uint64_t start = core.cycles();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(kernel_->IpcCall(f.thread, f.slot, big).ok());
  }
  const uint64_t big_rt = (core.cycles() - start) / 20;
  EXPECT_GT(big_rt, small_rt + 500);
}

TEST_F(KernelTest, KptiMakesSyscallsSlower) {
  KernelProfile with_kpti = Sel4Profile();
  with_kpti.kpti = true;
  BootKernel(with_kpti);
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t kpti_rt = WarmRoundtrip(*kernel_, *machine_, f);

  BootKernel(Sel4Profile());
  IpcFixture f2 = MakeIpcPair(*kernel_, *machine_, {}, EchoHandler());
  const uint64_t plain_rt = WarmRoundtrip(*kernel_, *machine_, f2);
  // Two extra CR3 writes per one-way: >= ~700 cycles per roundtrip.
  EXPECT_GT(kpti_rt, plain_rt + 600);
}

TEST_F(KernelTest, NoOpSyscallMatchesTable2) {
  BootKernel(Sel4Profile());
  hw::Core& core = machine_->core(0);
  for (int i = 0; i < 10; ++i) {
    kernel_->NoOpSyscall(core);  // Warm up.
  }
  const uint64_t start = core.cycles();
  for (int i = 0; i < 100; ++i) {
    kernel_->NoOpSyscall(core);
  }
  const uint64_t cost = (core.cycles() - start) / 100;
  EXPECT_GE(cost, 181u);
  EXPECT_LE(cost, 181u + 40u);  // Plus warm entry-stub touches.
}

TEST_F(KernelTest, IdentityPageMisidentificationWithoutEptRemap) {
  // Without the Rootkernel there is one shared identity page: the kernel
  // cannot tell who is running from it (both processes read the same word).
  BootKernel(Sel4Profile(), /*rootkernel=*/false);
  auto p1 = kernel_->CreateProcess("p1");
  auto p2 = kernel_->CreateProcess("p2");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  hw::Core& core = machine_->core(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p1).ok());
  auto id1 = kernel_->CurrentIdentity(core);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p2).ok());
  auto id2 = kernel_->CurrentIdentity(core);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, *id2);  // Misidentification: both read the shared page.
}

TEST_F(KernelTest, IdentityPagePerProcessWithRootkernel) {
  BootKernel(Sel4Profile(), /*rootkernel=*/true);
  auto p1 = kernel_->CreateProcess("p1");
  auto p2 = kernel_->CreateProcess("p2");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  hw::Core& core = machine_->core(0);
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p1).ok());
  auto id1 = kernel_->CurrentIdentity(core);
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, (*p1)->pid());
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, *p2).ok());
  auto id2 = kernel_->CurrentIdentity(core);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, (*p2)->pid());
}

TEST_F(KernelTest, HandlerRunsInServerAddressSpace) {
  BootKernel(Sel4Profile());
  Handler handler = [](CallEnv& env) {
    // Write a marker into the *server's* heap through the charged path.
    SB_CHECK(env.core.WriteVirtU64(kHeapVa + 0x100, 0xfeedULL).ok());
    return Message(0);
  };
  IpcFixture f = MakeIpcPair(*kernel_, *machine_, {}, handler);
  ASSERT_TRUE(kernel_->IpcCall(f.thread, f.slot, Message(0)).ok());

  hw::Core& core = machine_->core(0);
  // Visible in the server's AS...
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, f.server).ok());
  EXPECT_EQ(*core.ReadVirtU64(kHeapVa + 0x100), 0xfeedULL);
  // ...but not in the client's.
  ASSERT_TRUE(kernel_->ContextSwitchTo(core, f.client).ok());
  EXPECT_EQ(*core.ReadVirtU64(kHeapVa + 0x100), 0u);
}

TEST_F(KernelTest, CrossCoreFifoSerializesConcurrentClients) {
  BootKernel(Sel4Profile());
  auto server = kernel_->CreateProcess("server");
  ASSERT_TRUE(server.ok());
  auto ep = kernel_->CreateEndpoint(
      *server, [](CallEnv& env) { env.core.AdvanceCycles(10000); return Message(0); }, {3});
  ASSERT_TRUE(ep.ok());

  auto c1 = kernel_->CreateProcess("c1");
  auto c2 = kernel_->CreateProcess("c2");
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto s1 = kernel_->GrantEndpointCap(*c1, (*ep)->id(), kRightCall);
  auto s2 = kernel_->GrantEndpointCap(*c2, (*ep)->id(), kRightCall);
  Thread* t1 = (*c1)->AddThread(0);
  Thread* t2 = (*c2)->AddThread(1);
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(0), *c1).ok());
  ASSERT_TRUE(kernel_->ContextSwitchTo(machine_->core(1), *c2).ok());

  ASSERT_TRUE(kernel_->IpcCall(t1, *s1, Message(0)).ok());
  ASSERT_TRUE(kernel_->IpcCall(t2, *s2, Message(0)).ok());
  // Both were served on core 3, in FIFO order.
  EXPECT_EQ((*ep)->service().acquisitions(), 2u);
}

}  // namespace
}  // namespace mk
