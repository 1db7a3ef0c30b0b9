// Quickstart: the SkyBridge programming model end to end.
//
//   1. Boot the machine and the Subkernel; the Subkernel boots the
//      Rootkernel (self-virtualization) and every core drops to non-root.
//   2. A server process registers a handler (register_server).
//   3. A client process registers to the server (register_client).
//   4. The client calls the server with direct_server_call: two VMFUNCs, no
//      kernel — and we print the cycle count next to classic kernel IPC.
//
// Exits non-zero if the steady-state calls took any VM exit.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/mk/kernel.h"
#include "src/skybridge/skybridge.h"

int main() {
  // ---- 1. Hardware + Subkernel + Rootkernel ----
  hw::MachineConfig mc;
  mc.num_cores = 4;
  mc.ram_bytes = 2ULL << 30;
  hw::Machine machine(mc);

  mk::Kernel kernel(machine, mk::Sel4Profile());  // seL4-flavoured Subkernel.
  if (!kernel.Boot().ok()) {
    std::fprintf(stderr, "kernel boot failed\n");
    return 1;
  }
  std::printf("machine up: %d cores, Rootkernel resident, all cores in non-root mode\n",
              machine.num_cores());

  skybridge::SkyBridge sky(kernel);

  // ---- 2. The server ----
  mk::Process* server = kernel.CreateProcess("calc-server").value();
  const skybridge::ServerId sid =
      sky.RegisterServer(server, /*max_connections=*/8,
                         [](mk::CallEnv& env) {
                           // Runs in the *server's* address space on the
                           // caller's core: double the request tag.
                           return mk::Message(env.request.tag * 2);
                         })
          .value();
  std::printf("server registered: id=%llu\n", static_cast<unsigned long long>(sid));

  // ---- 3. The client ----
  mk::Process* client = kernel.CreateProcess("client").value();
  if (!sky.RegisterClient(client, sid).ok()) {
    std::fprintf(stderr, "client registration failed\n");
    return 1;
  }
  mk::Thread* thread = client->AddThread(0);
  (void)kernel.ContextSwitchTo(machine.core(0), client);

  // ---- 4. The call ----
  auto reply = sky.DirectServerCall(thread, sid, mk::Message(21));
  std::printf("direct_server_call(21) -> %llu\n",
              static_cast<unsigned long long>(reply->tag));

  // Measure it warm, next to kernel IPC between the same two processes.
  auto* ep = kernel
                 .CreateEndpoint(
                     server, [](mk::CallEnv& env) { return mk::Message(env.request.tag * 2); },
                     {})
                 .value();
  const mk::CapSlot slot = kernel.GrantEndpointCap(client, ep->id(), mk::kRightCall).value();
  hw::Core& core = machine.core(0);
  // Count only steady-state exits.
  const uint64_t exits_before = machine.telemetry().Value("hw.vmexit.total");
  for (int i = 0; i < 100; ++i) {
    (void)sky.DirectServerCall(thread, sid, mk::Message(1));
    (void)kernel.IpcCall(thread, slot, mk::Message(1));
  }
  uint64_t t0 = core.cycles();
  for (int i = 0; i < 1000; ++i) {
    (void)sky.DirectServerCall(thread, sid, mk::Message(1));
  }
  const uint64_t sky_rt = (core.cycles() - t0) / 1000;
  t0 = core.cycles();
  for (int i = 0; i < 1000; ++i) {
    (void)kernel.IpcCall(thread, slot, mk::Message(1));
  }
  const uint64_t ipc_rt = (core.cycles() - t0) / 1000;
  const uint64_t exits = machine.telemetry().Value("hw.vmexit.total") - exits_before;

  std::printf("\nwarm roundtrip: SkyBridge %llu cycles vs kernel IPC %llu cycles (%.2fx)\n",
              static_cast<unsigned long long>(sky_rt),
              static_cast<unsigned long long>(ipc_rt),
              static_cast<double>(ipc_rt) / static_cast<double>(sky_rt));
  std::printf("VM exits during the calls: %llu (the Rootkernel never woke up)\n",
              static_cast<unsigned long long>(exits));
  return exits == 0 ? 0 : 1;
}
