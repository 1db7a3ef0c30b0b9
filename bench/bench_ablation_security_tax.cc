// Ablation: what SkyBridge's security machinery costs on the hot path
// (calling-key check) and at registration (binary rewriting).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/table.h"
#include "src/x86/assembler.h"

namespace {

uint64_t MeasureRoundtrip(bool calling_keys) {
  skybridge::SkyBridgeConfig config;
  config.calling_keys = calling_keys;
  bench::World world = bench::MakeWorld(mk::Sel4Profile(), true, false);
  skybridge::SkyBridge sky(*world.kernel, config);
  auto* client = world.kernel->CreateProcess("client").value();
  auto* server = world.kernel->CreateProcess("server").value();
  const skybridge::ServerId sid =
      sky.RegisterServer(server, 8, [](mk::CallEnv& env) { return env.request; }).value();
  SB_CHECK(sky.RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(world.kernel->ContextSwitchTo(world.machine->core(0), client).ok());

  for (int i = 0; i < 200; ++i) {
    SB_CHECK(sky.DirectServerCall(thread, sid, mk::Message(0)).ok());
  }
  hw::Core& core = world.machine->core(0);
  const uint64_t start = core.cycles();
  const int kIters = 10000;
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(sky.DirectServerCall(thread, sid, mk::Message(0)).ok());
  }
  return (core.cycles() - start) / kIters;
}

struct RegistrationCost {
  uint64_t cycles = 0;      // Simulated registration syscall cost.
  uint64_t scan_pages = 0;  // Rewrite work: code-page chunks scanned.
};

RegistrationCost MeasureRegistration(bool rewrite, size_t image_bytes) {
  skybridge::SkyBridgeConfig config;
  config.rewrite_binaries = rewrite;
  bench::World world = bench::MakeWorld(mk::Sel4Profile(), true, false);
  skybridge::SkyBridge sky(*world.kernel, config);

  // A process with a sizeable image carrying one embedded pattern.
  x86::Assembler a;
  while (a.size() + 32 < image_bytes) {
    a.MovRI64(x86::Reg::kRax, 0x1234);
    a.AddRR(x86::Reg::kRbx, x86::Reg::kRax);
  }
  a.AddRI(x86::Reg::kRcx, 0x00d4010f);
  a.Ret();
  auto* server = world.kernel->CreateProcess("server").value();
  auto* client = world.kernel->CreateProcessWithImage("client", a.Take()).value();
  const skybridge::ServerId sid =
      sky.RegisterServer(server, 8, [](mk::CallEnv& env) { return env.request; }).value();

  // Deterministic costs only — host wall-clock would vary run to run. Both
  // are deltas across the client's registration (the server's own
  // registration scanned pages too): the simulated cycles of the
  // kernel-mediated registration path, and scan_pages, the rewrite work
  // (zero with rewriting disabled).
  hw::Core& core = world.machine->core(0);
  const sb::telemetry::Registry& reg = world.machine->telemetry();
  const uint64_t start = core.cycles();
  const uint64_t scanned_before = reg.Value("skybridge.rewrite.scan_pages");
  SB_CHECK(sky.RegisterClient(client, sid).ok());
  RegistrationCost cost;
  cost.cycles = core.cycles() - start;
  cost.scan_pages = reg.Value("skybridge.rewrite.scan_pages") - scanned_before;
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_ablation_security_tax", argc, argv);
  std::printf("== Ablation: the cost of SkyBridge's security machinery ==\n\n");

  const uint64_t with_keys = MeasureRoundtrip(true);
  const uint64_t without_keys = MeasureRoundtrip(false);
  sb::Table hot({"Hot path", "Roundtrip (cycles)"});
  hot.AddRow({"calling-key check on (default)", sb::Table::Int(with_keys)});
  hot.AddRow({"calling-key check off", sb::Table::Int(without_keys)});
  hot.AddRow({"security tax", sb::Table::Int(with_keys - without_keys)});
  hot.Print();

  std::printf("\n");
  const RegistrationCost with_rewrite = MeasureRegistration(true, 48 * 1024);
  const RegistrationCost without_rewrite = MeasureRegistration(false, 48 * 1024);
  reporter.Add("roundtrip_with_keys.cycles", with_keys);
  reporter.Add("roundtrip_without_keys.cycles", without_keys);
  reporter.Add("registration_with_rewrite.cycles", with_rewrite.cycles);
  reporter.Add("registration_with_rewrite.scan_pages", with_rewrite.scan_pages);
  reporter.Add("registration_without_rewrite.cycles", without_rewrite.cycles);
  reporter.Add("registration_without_rewrite.scan_pages", without_rewrite.scan_pages);
  sb::Table reg({"Registration (48 KB image)", "Cycles", "Scan pages"});
  reg.AddRow({"with binary rewriting (default)", sb::Table::Int(with_rewrite.cycles),
              sb::Table::Int(with_rewrite.scan_pages)});
  reg.AddRow({"without rewriting (insecure)", sb::Table::Int(without_rewrite.cycles),
              sb::Table::Int(without_rewrite.scan_pages)});
  reg.Print();
  std::printf("\nThe key check costs a few dozen cycles per roundtrip; rewriting is a\n");
  std::printf("one-time registration cost (load-time scan, Section 5).\n");
  return 0;
}
