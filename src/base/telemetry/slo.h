// Declarative latency SLOs over sliding windows (DESIGN.md section 14).
//
// A spec is a percentile bound — "p99<5000" reads "the 99th percentile of
// call latency must stay under 5000 cycles" — evaluated every `window`
// observations over the most recent `window` samples. Violations bump a
// breach counter and, once bound to a trace, emit a kSloBreach event; every
// observation also feeds the goodput tally (an op is "good" when its own
// latency meets every spec's bound), surfaced as a gauge once bound.
//
// Grammar:   p<percentile> '<' <bound cycles> [ '@window=' <samples> ]
// Examples:  p99<5000      p99.9<20000@window=512      p50<800
//
// The monitor is owned by one measurement loop (the open-loop generator, a
// bench) and is not thread-safe: observations come from the loop that also
// reads the verdicts.

#ifndef SRC_BASE_TELEMETRY_SLO_H_
#define SRC_BASE_TELEMETRY_SLO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/telemetry/metrics.h"
#include "src/base/telemetry/trace.h"

namespace sb::telemetry {

struct SloSpec {
  double percentile = 99.0;     // In (0, 100].
  uint64_t bound_cycles = 0;    // Exclusive upper bound for the percentile.
  uint64_t window = 1024;       // Samples per evaluation window.

  // Parses the grammar above; InvalidArgument with the offending token
  // otherwise.
  static sb::StatusOr<SloSpec> Parse(std::string_view text);
  std::string ToString() const;
};

class SloMonitor {
 public:
  explicit SloMonitor(std::vector<SloSpec> specs);

  // Surfaces live verdicts on `registry` as `<prefix>.breaches` (counter),
  // `<prefix>.goodput_ops` and `<prefix>.observed_ops` (gauges), and breaches
  // as kSloBreach events on `trace`. Optional; call once before observing.
  void Bind(Registry& registry, Trace& trace, const std::string& prefix);

  // Feeds one completed op. `now_cycles` timestamps any breach event this
  // observation triggers (window boundaries).
  void Observe(uint64_t latency_cycles, uint64_t now_cycles, uint32_t core = 0);

  uint64_t observed() const { return observed_; }
  // Ops whose latency met every spec's bound.
  uint64_t in_slo() const { return in_slo_; }
  // Window evaluations that violated any spec (total across specs).
  uint64_t breaches() const { return breaches_; }
  uint64_t breaches_for(size_t spec_index) const;
  const std::vector<SloSpec>& specs() const { return specs_; }

  // in_slo / observed; 1.0 before any observation (vacuously good).
  double GoodputFraction() const;
  // In-SLO ops per 1000 cycles of `elapsed_cycles` (the caller's clock).
  double GoodputPerKcycle(uint64_t elapsed_cycles) const;

 private:
  struct SpecState {
    std::vector<uint64_t> window;  // Ring of the most recent samples.
    uint64_t seen = 0;
    uint64_t breaches = 0;
  };
  void Evaluate(size_t i, uint64_t now_cycles, uint32_t core);

  std::vector<SloSpec> specs_;
  std::vector<SpecState> states_;
  uint64_t observed_ = 0;
  uint64_t in_slo_ = 0;
  uint64_t breaches_ = 0;
  Counter* breach_counter_ = nullptr;
  Gauge* goodput_gauge_ = nullptr;
  Gauge* observed_gauge_ = nullptr;
  Trace* trace_ = nullptr;
};

}  // namespace sb::telemetry

#endif  // SRC_BASE_TELEMETRY_SLO_H_
