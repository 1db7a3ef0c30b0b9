// Ablation: long IPC (Sections 4.4 and 6.3). Messages beyond the register
// capacity travel through per-connection shared-buffer slices. The main sweep
// compares the three copy disciplines at each message size:
//
//   two-copy   legacy: client copies into the buffer, server consumes an
//              owned copy, the reply is copied in and read back out.
//   one-copy   default: the request is copied in once; the server consumes a
//              borrowed view and the client receives a borrowed reply view.
//   zero-copy  in-place API: the client constructs the request directly in
//              its slice (AcquireSendBuffer) and the server replies in place.
//
// A second table keeps the classic SkyBridge-vs-seL4 comparison.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/table.h"

namespace {

constexpr int kIters = 2000;

struct ModeResult {
  uint64_t cycles_per_op = 0;
  uint64_t copy_cycles_per_op = 0;
};

enum class CopyMode { kTwoCopy, kOneCopy, kZeroCopy };

const char* ModeKey(CopyMode mode) {
  switch (mode) {
    case CopyMode::kTwoCopy:
      return "two_copy";
    case CopyMode::kOneCopy:
      return "one_copy";
    case CopyMode::kZeroCopy:
      return "zero_copy";
  }
  return "?";
}

bench::World MakeModeWorld(CopyMode mode) {
  bench::World world = bench::MakeWorld(mk::Sel4Profile(), true, false);
  skybridge::SkyBridgeConfig config;
  config.legacy_two_copy = mode == CopyMode::kTwoCopy;
  world.sky = std::make_unique<skybridge::SkyBridge>(*world.kernel, config);
  return world;
}

ModeResult MeasureMode(bench::World& world, CopyMode mode, size_t bytes) {
  static int next_pair = 0;
  auto* client = world.kernel->CreateProcess("mc" + std::to_string(next_pair)).value();
  auto* server = world.kernel->CreateProcess("ms" + std::to_string(next_pair)).value();
  ++next_pair;
  // Zero-copy echoes the borrowed slice view (reply already in place); the
  // copied modes return an owned reply so the reply write is actually paid.
  mk::Handler handler = mode == CopyMode::kZeroCopy
                            ? mk::Handler([](mk::CallEnv& env) { return env.request; })
                            : mk::Handler([](mk::CallEnv& env) { return env.request.ToOwned(); });
  const skybridge::ServerId sid = world.sky->RegisterServer(server, 8, std::move(handler)).value();
  SB_CHECK(world.sky->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(world.kernel->ContextSwitchTo(world.machine->core(0), client).ok());

  const mk::Message msg(1, std::vector<uint8_t>(bytes, 0x5a));
  if (mode == CopyMode::kZeroCopy) {
    auto buf = world.sky->AcquireSendBuffer(thread, sid);
    SB_CHECK(buf.ok() && buf->size() >= bytes);
    std::fill_n(buf->data(), bytes, 0x5a);
  }
  auto call_once = [&] {
    if (mode == CopyMode::kZeroCopy) {
      SB_CHECK(world.sky->DirectServerCallInPlace(thread, sid, 1, bytes).ok());
    } else {
      SB_CHECK(world.sky->DirectServerCall(thread, sid, msg).ok());
    }
  };
  for (int i = 0; i < 100; ++i) {
    call_once();
  }
  hw::Core& core = world.machine->core(0);
  const uint64_t copy_before = core.ledger()[hw::Bucket::kCopy];
  const uint64_t start = core.cycles();
  for (int i = 0; i < kIters; ++i) {
    call_once();
  }
  ModeResult result;
  result.cycles_per_op = (core.cycles() - start) / kIters;
  result.copy_cycles_per_op = (core.ledger()[hw::Bucket::kCopy] - copy_before) / kIters;
  return result;
}

uint64_t MeasureSky(bench::World& world, size_t bytes) {
  static int next_pair = 0;
  auto* client = world.kernel->CreateProcess("c" + std::to_string(next_pair)).value();
  auto* server = world.kernel->CreateProcess("s" + std::to_string(next_pair)).value();
  ++next_pair;
  const skybridge::ServerId sid =
      world.sky->RegisterServer(server, 8, [](mk::CallEnv& env) { return env.request; })
          .value();
  SB_CHECK(world.sky->RegisterClient(client, sid).ok());
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(world.kernel->ContextSwitchTo(world.machine->core(0), client).ok());
  const mk::Message msg(1, std::vector<uint8_t>(bytes, 0x5a));
  for (int i = 0; i < 100; ++i) {
    SB_CHECK(world.sky->DirectServerCall(thread, sid, msg).ok());
  }
  hw::Core& core = world.machine->core(0);
  const uint64_t start = core.cycles();
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(world.sky->DirectServerCall(thread, sid, msg).ok());
  }
  return (core.cycles() - start) / kIters;
}

uint64_t MeasureIpc(bench::World& world, size_t bytes) {
  static int next_pair = 0;
  auto* client = world.kernel->CreateProcess("ic" + std::to_string(next_pair)).value();
  auto* server = world.kernel->CreateProcess("is" + std::to_string(next_pair)).value();
  ++next_pair;
  auto* ep =
      world.kernel->CreateEndpoint(server, [](mk::CallEnv& env) { return env.request; }, {})
          .value();
  const mk::CapSlot slot =
      world.kernel->GrantEndpointCap(client, ep->id(), mk::kRightCall).value();
  mk::Thread* thread = client->AddThread(0);
  SB_CHECK(world.kernel->ContextSwitchTo(world.machine->core(0), client).ok());
  const mk::Message msg(1, std::vector<uint8_t>(bytes, 0x5a));
  for (int i = 0; i < 100; ++i) {
    SB_CHECK(world.kernel->IpcCall(thread, slot, msg).ok());
  }
  hw::Core& core = world.machine->core(0);
  const uint64_t start = core.cycles();
  for (int i = 0; i < kIters; ++i) {
    SB_CHECK(world.kernel->IpcCall(thread, slot, msg).ok());
  }
  return (core.cycles() - start) / kIters;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter("bench_ablation_long_ipc", argc, argv);
  std::printf("== Ablation: long IPC — copy disciplines x message size ==\n");
  std::printf("Register capacity is 64 B; larger transfers move data.\n\n");

  constexpr CopyMode kModes[] = {CopyMode::kTwoCopy, CopyMode::kOneCopy, CopyMode::kZeroCopy};
  constexpr size_t kSizes[] = {64, 256, 1024, 4096, 16384, 65536};

  bench::World worlds[] = {MakeModeWorld(CopyMode::kTwoCopy), MakeModeWorld(CopyMode::kOneCopy),
                           MakeModeWorld(CopyMode::kZeroCopy)};

  uint64_t copy_cycles[3][6] = {};
  sb::Table table({"Message size", "two-copy (cyc)", "copy", "one-copy (cyc)", "copy",
                   "zero-copy (cyc)", "copy"});
  for (size_t s = 0; s < std::size(kSizes); ++s) {
    const size_t bytes = kSizes[s];
    std::vector<std::string> row = {std::to_string(bytes) + " B"};
    for (size_t m = 0; m < std::size(kModes); ++m) {
      const ModeResult r = MeasureMode(worlds[m], kModes[m], bytes);
      copy_cycles[m][s] = r.copy_cycles_per_op;
      const std::string prefix =
          std::string(ModeKey(kModes[m])) + "." + std::to_string(bytes) + "B.";
      reporter.Add(prefix + "cycles_per_op", r.cycles_per_op);
      reporter.Add(prefix + "copy_cycles", r.copy_cycles_per_op);
      row.push_back(sb::Table::Int(r.cycles_per_op));
      row.push_back(sb::Table::Int(r.copy_cycles_per_op));
    }
    table.AddRow(row);
  }
  table.Print();

  // Acceptance: the copy phase must shrink monotonically with the discipline
  // at every size that actually uses the shared buffer, and the in-place path
  // must eliminate >= 90% of the legacy copy-phase cycles at 64 KiB.
  for (size_t s = 0; s < std::size(kSizes); ++s) {
    if (kSizes[s] < 4096) {
      continue;
    }
    SB_CHECK(copy_cycles[2][s] <= copy_cycles[1][s]);
    SB_CHECK(copy_cycles[1][s] <= copy_cycles[0][s]);
  }
  SB_CHECK(copy_cycles[2][5] * 10 <= copy_cycles[0][5]);

  // Per-mode skybridge.phase.copy histograms tell the same story: the
  // in-place world never records a copied cycle, and the one-copy world's
  // worst call copies less than the legacy world's.
  for (size_t m = 0; m < std::size(kModes); ++m) {
    auto& hist = worlds[m].machine->telemetry().GetHistogram("skybridge.phase.copy");
    const std::string prefix = std::string(ModeKey(kModes[m])) + ".phase_copy.";
    reporter.Add(prefix + "mean", hist.Mean());
    reporter.Add(prefix + "max", hist.Max());
  }
  auto& two_hist = worlds[0].machine->telemetry().GetHistogram("skybridge.phase.copy");
  auto& one_hist = worlds[1].machine->telemetry().GetHistogram("skybridge.phase.copy");
  auto& zero_hist = worlds[2].machine->telemetry().GetHistogram("skybridge.phase.copy");
  SB_CHECK(zero_hist.Max() == 0);
  SB_CHECK(one_hist.Max() <= two_hist.Max());

  std::printf("\n== SkyBridge vs seL4 kernel IPC ==\n\n");
  bench::World sky_world = bench::MakeWorld(mk::Sel4Profile(), true, true);
  bench::World ipc_world = bench::MakeWorld(mk::Sel4Profile(), false, false);
  sb::Table cmp({"Message size", "SkyBridge (cycles)", "seL4 IPC (cycles)", "ratio"});
  for (const size_t bytes : {size_t{0}, size_t{64}, size_t{256}, size_t{1024}, size_t{4096},
                             size_t{16384}}) {
    const uint64_t sky = MeasureSky(sky_world, bytes);
    const uint64_t ipc = MeasureIpc(ipc_world, bytes);
    reporter.Add("skybridge." + std::to_string(bytes) + "B.cycles_per_op", sky);
    reporter.Add("sel4_ipc." + std::to_string(bytes) + "B.cycles_per_op", ipc);
    cmp.AddRow({std::to_string(bytes) + " B", sb::Table::Int(sky), sb::Table::Int(ipc),
                sb::Table::Fixed(static_cast<double>(ipc) / static_cast<double>(sky), 2)});
  }
  cmp.Print();
  reporter.AddRegistry(sky_world.machine->telemetry());
  std::printf("\nControl transfer dominates small messages; the in-place path removes\n");
  std::printf("the remaining data movement for large ones (paper Section 6.3).\n");
  return 0;
}
