// Open-loop load generator on the deterministic executor (DESIGN.md
// section 14).
//
// Arrivals are Poisson (exponential interarrivals, one seeded stream per
// client) with zipfian key popularity; the whole schedule is precomputed
// from (seed, config) before a single call is issued, so the same seed and
// offered load always produce the byte-identical schedule.
//
// Coordinated-omission rule: latency is measured from the *intended* arrival
// cycle, never the issue cycle. When the system falls behind, the next
// arrival is issued late but still charged from its scheduled time, so
// queueing delay lands in the histogram instead of silently stretching the
// schedule (closed-loop measurement hides exactly this).
//
// Client mixes: sync (one blocking call per arrival) or batched (arrivals
// queue into the target's submission ring and one flush drains the burst;
// the generator flushes when `batch_depth` ops are pending OR the client
// goes idle, so low offered loads don't trade unbounded queueing for batch
// efficiency). Targets without a ring (`submit` unset) degrade to
// burst-coalesced sync calls under the same flush policy.
//
// The target is a bundle of std::function hooks, not a SkyBridge type —
// sb_sim stays below the IPC layers; benches and tests bind the hooks to
// DirectServerCall / SubmitCall / KvPipeline::Query / sqlite as needed.

#ifndef SRC_SIM_LOADGEN_H_
#define SRC_SIM_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/telemetry/slo.h"
#include "src/hw/machine.h"

namespace sim {

struct LoadGenConfig {
  uint64_t seed = 1;
  // Aggregate offered load across all clients, in ops per 1000 cycles.
  double offered_per_kcycle = 0.05;
  uint32_t events = 4096;     // Total arrivals across all clients.
  uint32_t num_clients = 1;
  // Simulated core per client; clients beyond the list pin to
  // client % num_cores.
  std::vector<int> client_cores;
  uint64_t num_keys = 1024;
  double zipf_theta = 0.99;   // <= 0 selects uniform keys.
  bool batched = false;
  uint32_t batch_depth = 16;  // Flush threshold (batched mode).
  std::vector<sb::telemetry::SloSpec> slos;
};

struct Arrival {
  uint64_t cycles = 0;  // Intended arrival time.
  uint64_t key = 0;
  uint32_t client = 0;
};

// The system under load. `sync_call` is required; the batched hooks are
// optional as a set (all three or none).
struct LoadTarget {
  std::function<sb::Status(uint32_t client, uint64_t key)> sync_call;
  // Enqueue one request; returns its completion token.
  std::function<sb::StatusOr<uint64_t>(uint32_t client, uint64_t key)> submit;
  // Drain the client's pending submissions (one crossing).
  std::function<sb::Status(uint32_t client)> flush;
  // Reap one completion. Unavailable = still pending (flush again); any
  // other error is that op's outcome.
  std::function<sb::Status(uint32_t client, uint64_t token)> poll;
};

struct LoadGenReport {
  uint64_t generated = 0;   // Arrivals issued.
  uint64_t completed = 0;   // Ops that finished OK (latency recorded).
  uint64_t errors = 0;      // Ops that finished with an error.
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t p9999 = 0;
  uint64_t max = 0;
  uint64_t overflow = 0;        // Latencies beyond the histogram range.
  uint64_t slo_breaches = 0;    // Window evaluations that violated a spec.
  uint64_t in_slo = 0;          // Ops meeting every spec's bound.
  double goodput_fraction = 0.0;      // in_slo / (completed + errors).
  double goodput_per_kcycle = 0.0;    // In-SLO ops per 1000 elapsed cycles.
  uint64_t elapsed_cycles = 0;
  uint64_t schedule_hash = 0;   // FNV over the (client, cycles, key) stream.
  uint64_t histogram_digest = 0;  // LatencyHistogram::Digest().
  uint64_t batch_flushes = 0;   // Flush invocations (batched mode).

  // Deterministic one-line digest for replay tests: same seed + load =>
  // identical string.
  std::string Fingerprint() const;
};

class LoadGenerator {
 public:
  // Precomputes the arrival schedule; Run() executes it on `machine`.
  LoadGenerator(hw::Machine& machine, LoadGenConfig config, LoadTarget target);

  // All arrivals in global time order (ties broken by client id).
  const std::vector<Arrival>& schedule() const { return schedule_; }

  // Executes the schedule to completion on a fresh Executor. Reusable: each
  // Run replays the same schedule with fresh latency/SLO state.
  sb::StatusOr<LoadGenReport> Run();

 private:
  struct ClientState;
  void BuildSchedule();

  hw::Machine* machine_;
  LoadGenConfig config_;
  LoadTarget target_;
  std::vector<std::vector<Arrival>> per_client_;
  std::vector<Arrival> schedule_;
};

}  // namespace sim

#endif  // SRC_SIM_LOADGEN_H_
