// Shared machinery of the repository benchmark: the report every workload
// fills, the span recorder of the traced run, registry deltas, and the
// closed-loop and open-loop load loops built on sim::Executor and
// sim::LoadGenerator.
//
// The benchmark measures each layer from outside: it times the calls it
// makes into a module's public functions and reads deltas of the registry
// counters and public stats accessors. Two clocks appear, and every metric
// names its clock: simulated cycles (deterministic at a seed) and host time
// (what the simulator costs on the machine running it).

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/telemetry/metrics.h"
#include "src/hw/machine.h"
#include "src/skybridge/skybridge.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;  // Where the traced run writes its spans.
};

// ---- Host clock ----
int64_t HostNowNs();
double HostNowS();

// ---- Host-speed probe ----
// A shared machine runs the simulator at different speeds from one run to
// the next: with neighbours loading the memory system it runs up to ~1.6x
// slower, often for whole runs. Host rates and set-up times are therefore
// scaled by a fixed probe timed next to them: 100,000 lookups in a
// 65,536-entry std::unordered_map, close to the simulator's own hot path
// (hash lookups of frames, routes and cache lines). A host time t measured
// while the probe took p ns is reported as t * kProbeNominalNs / p, the time
// on a machine where the probe takes its nominal 2.5 ms.
inline constexpr double kProbeNominalNs = 2.5e6;
double ProbeNs();

// Host seconds since construction, scaled by the probe timed at both ends.
class CalibratedTimer {
 public:
  CalibratedTimer() : probe_ns_(ProbeNs()), start_s_(HostNowS()) {}
  double Seconds() const {
    const double elapsed = HostNowS() - start_s_;
    return elapsed * 2 * kProbeNominalNs / (probe_ns_ + ProbeNs());
  }

 private:
  double probe_ns_;
  double start_s_;
};

// ---- Report ----
struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Fail(const std::string& why);
  bool correct() const { return first_error_.empty(); }
  const std::string& first_error() const { return first_error_; }

  // Counts one application operation the benchmark ran.
  void CountOp(const sb::Status& status);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // End-to-end and per-layer metrics. `simulated` ones are folded into the
  // determinism digest; host-time ones are not.
  void EndToEnd(const std::string& name, double value, const std::string& unit, bool simulated);
  void Layer(const std::string& name, double value, const std::string& unit, bool simulated);
  // Folds a deterministic value (fingerprint, counter delta) into the digest.
  void Digest(std::string_view text);
  void Digest(uint64_t value);

  const std::map<std::string, Metric>& end_to_end() const { return end_to_end_; }
  const std::map<std::string, Metric>& per_layer() const { return per_layer_; }
  uint64_t digest() const { return digest_; }

 private:
  std::string first_error_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
};

// ---- Spans (traced run) ----
// One span per call the benchmark makes into a module's public function:
// name, parent span, op id, host ns and simulated cycles at start and end.
// Spans stay in memory and are written when the run ends. Off by default;
// a disabled Scope costs one branch.
class Tracer {
 public:
  // Spans beyond this are counted, not kept (bounded memory on long runs).
  static constexpr size_t kMaxSpans = 200000;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  size_t recorded() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  // Tab-separated: id, parent, name, op, host start/end ns, cycles start/end.
  sb::Status Write(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t op, const hw::Core* core);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // Null when tracing was off at entry.
    const hw::Core* core_ = nullptr;
    int64_t index_ = -1;  // -1: over the cap, not recorded.
  };

 private:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t op;
    int64_t host_start_ns;
    int64_t host_end_ns;
    uint64_t cycles_start;
    uint64_t cycles_end;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // Stack of open span indices (parents).
  uint64_t dropped_ = 0;
};

Tracer& GlobalTracer();

// ---- Registry deltas ----
using Snapshot = std::map<std::string, sb::telemetry::MetricValue, std::less<>>;
Snapshot TakeSnapshot(const hw::Machine& machine);
// Counter/gauge value (histogram: sample count) after minus before; 0 when
// the metric was never registered.
uint64_t Delta(const Snapshot& before, const Snapshot& after, std::string_view name);
// Histogram p50 over the world's life (the registry keeps no per-phase
// buckets); 0 when empty.
uint64_t HistogramP50(const Snapshot& snap, std::string_view name);

// count / ops, 0 when ops is 0; also every hit ratio.
double PerOp(uint64_t count, uint64_t ops);
// Exact nearest-rank percentile of `values` (sorted in place).
uint64_t Percentile(std::vector<uint64_t>& values, double p);
uint64_t Median(std::vector<uint64_t> values);
double Median(std::vector<double> values);
double OpsPerSimSecond(uint64_t ops, uint64_t cycles);
// Peak resident set of this process, MiB.
double PeakRssMb();

// Records the per-layer counters every workload reports (hw, mk, skybridge
// call path, slots, batch ring, failures) over a measured phase of `ops`
// application operations, and folds them into the digest.
void ReportCommonLayers(Report& report, const Snapshot& before, const Snapshot& after,
                        uint64_t ops);

// What one world set-up cost. Registration is bracketed by its own
// registry snapshots so the vmm/x86 counters cover registration only.
struct SetupCost {
  Snapshot reg_before;
  Snapshot reg_after;
  uint64_t servers = 0;
  uint64_t bindings = 0;
  uint64_t processes = 0;
  uint64_t register_server_cycles = 0;  // Simulated, summed over servers.
  uint64_t register_client_cycles = 0;  // Simulated, summed over bindings.
  double register_s = 0;                // Host, around Register* calls.
  double create_process_s = 0;          // Host, around CreateProcess* calls.
  double preload_s = 0;                 // Host, application preload.
};

// Registers one echo server and `clients` clients of it on an application
// world after its set-up, bracketing each registration call: the
// registration cost of workloads whose application registers internally.
sb::Status ProbeRegistration(mk::Kernel& kernel, skybridge::SkyBridge& sky, int clients,
                             SetupCost& cost);

// setup_s (median of `setup_times`), reg_cycles_per_binding and the vmm,
// x86, registration and preload layer metrics. `world` is the registry at
// the end of set-up.
void ReportSetup(Report& report, const SetupCost& cost, const std::vector<double>& setup_times,
                 const Snapshot& world);

// Pins the crossing backend and registration mode (the defaults otherwise
// come from SB_CROSSING_BACKEND / SB_REGISTRATION_MODE), and fails the run
// if a world was built with anything else.
void PinConfig(skybridge::SkyBridgeConfig& config);
void CheckPinned(Report& report, const skybridge::SkyBridge& sky);

// The correctness checks shared by every workload: structural invariants
// and no call left in flight.
void CheckQuiesced(Report& report, skybridge::SkyBridge& sky);
// No VM exit over the measured phase; with `allow_hypercalls`, none other
// than VMCALLs (the EPTP slot installs of an oversubscribed mesh).
void CheckVmExits(Report& report, const Snapshot& before, const Snapshot& after,
                  bool allow_hypercalls);

// ---- Closed loop (sim::Executor) ----
struct ClosedLoopResult {
  std::vector<uint64_t> latencies;  // Simulated cycles per successful op.
  uint64_t ops = 0;
  uint64_t elapsed_cycles = 0;
};
// Runs `total_ops` ops split evenly over one executor thread per core in
// `cores`; each thread starts its next op as soon as the previous returns.
// `op(thread, seq)` performs and verifies one op.
ClosedLoopResult RunClosedLoop(hw::Machine& machine, const std::vector<int>& cores,
                               uint64_t total_ops,
                               const std::function<sb::Status(uint32_t, uint64_t)>& op,
                               Report& report);

// ---- Open loop (sim::LoadGenerator) ----
// The operation a workload offers the generator. `call` performs and
// verifies one op on the key; the ring hooks are optional (all or none):
// without them the batched mix coalesces bursts of sync calls.
struct OpHooks {
  std::function<sb::Status(uint32_t client, uint64_t key)> call;
  std::function<sb::StatusOr<uint64_t>(uint32_t client, uint64_t key)> submit;
  std::function<sb::Status(uint32_t client)> flush;
  std::function<sb::Status(uint32_t client, uint64_t token)> poll;
};

struct LoadSpec {
  const double* ladder = nullptr;  // Ascending absolute rates, ops/kcycle.
  size_t rungs = 0;
  double reference = 0;            // One of the ladder's rates.
  uint64_t p99_limit_cycles = 0;
  uint32_t events = 0;             // Arrivals per rung.
  uint32_t batch_depth = 16;
  uint64_t num_keys = 1;
  double zipf_theta = 0.99;
  std::vector<int> cores;          // One generator client per core.
  uint64_t seed = 1;
};

struct OpenLoopResult {
  std::vector<uint64_t> latencies;  // From intended arrival, per OK op.
  std::vector<uint64_t> issue_lags; // Send cycle minus intended arrival.
  uint64_t ops = 0;
  uint64_t errors = 0;
  bool backlog_ok = true;           // Latency did not grow over the run.
  std::string fingerprint;          // LoadGenReport::Fingerprint().
  double host_s = 0;                // Host time of LoadGenerator::Run.
  double hook_host_s = 0;           // Host time inside the hooks (traced run).
};

OpenLoopResult RunOpenLoop(hw::Machine& machine, const LoadSpec& spec, const OpHooks& hooks,
                           double rate, bool batched, Report& report);

struct LadderResult {
  OpenLoopResult sync_ref;
  OpenLoopResult batched_ref;
  double max_rate = 0;          // ops per simulated second.
  double batched_max_rate = 0;
  uint64_t ops = 0;
  double host_ns_per_event = 0; // Generator loop minus hooks (traced run).
};

// Runs the sync and batched mixes at every rung; reports each rung's
// fingerprint into the digest.
LadderResult RunLadder(hw::Machine& machine, const LoadSpec& spec, const OpHooks& hooks,
                       Report& report);

// Reports the end-to-end and sim metrics derived from a ladder.
void ReportLadder(Report& report, const LadderResult& ladder, bool op_latency_from_ladder);

// Host-throughput rounds: repeats `round()` (which returns the ops it
// completed) until `deadline_s` on the host clock and reports
// host_ops_per_s, the median probe-scaled round rate, plus the median
// probe time (host.probe_ns). In the traced run, alternate rounds run with
// spans off and on, and telemetry.trace_overhead is the untraced / traced
// median rate.
void ReportHostRounds(Report& report, double deadline_s, const std::function<uint64_t()>& round);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
