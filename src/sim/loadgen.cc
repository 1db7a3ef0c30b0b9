#include "src/sim/loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/telemetry/metrics.h"
#include "src/base/telemetry/span.h"
#include "src/base/telemetry/trace.h"
#include "src/sim/executor.h"

namespace sim {
namespace {

// Zipfian generator (Gray et al., "Quickly generating billion-record
// synthetic databases") — same construction apps/ycsb.h uses, reimplemented
// here because sb_sim sits below the app layer.
class ZipfDist {
 public:
  ZipfDist(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(sb::Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    const auto k =
        static_cast<uint64_t>(static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(k, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::string LoadGenReport::Fingerprint() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sched=%016llx hist=%016llx completed=%llu errors=%llu breaches=%llu",
                static_cast<unsigned long long>(schedule_hash),
                static_cast<unsigned long long>(histogram_digest),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(slo_breaches));
  return buf;
}

struct LoadGenerator::ClientState {
  uint32_t index = 0;
  int core_id = 0;
  size_t next = 0;  // Next arrival to issue.
  struct Pending {
    uint64_t token = 0;
    uint64_t arrival = 0;
  };
  std::deque<Pending> pending;    // Submitted, not yet reaped (ring mode).
  std::deque<Arrival> deferred;   // Coalesced burst (no-ring fallback).
  uint32_t stall = 0;             // Tail-drain rounds without progress.
};

LoadGenerator::LoadGenerator(hw::Machine& machine, LoadGenConfig config, LoadTarget target)
    : machine_(&machine), config_(std::move(config)), target_(std::move(target)) {
  SB_CHECK(config_.num_clients > 0);
  SB_CHECK(config_.offered_per_kcycle > 0.0);
  SB_CHECK(config_.num_keys > 0);
  BuildSchedule();
}

void LoadGenerator::BuildSchedule() {
  const ZipfDist zipf(config_.num_keys, config_.zipf_theta > 0 ? config_.zipf_theta : 0.99);
  // Each client is an independent Poisson stream at rate lambda/num_clients;
  // the superposition offers the configured aggregate rate.
  const double mean_interarrival =
      1000.0 * static_cast<double>(config_.num_clients) / config_.offered_per_kcycle;
  per_client_.assign(config_.num_clients, {});
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    const uint32_t count =
        config_.events / config_.num_clients + (c < config_.events % config_.num_clients ? 1 : 0);
    // Two decoupled streams per client: arrival times and key choices, so a
    // config change to one never perturbs the other.
    sb::Rng arrivals(config_.seed ^ (0x9e3779b97f4a7c15ULL * (2 * c + 1)));
    sb::Rng keys(config_.seed ^ (0x9e3779b97f4a7c15ULL * (2 * c + 2)));
    uint64_t t = 0;
    per_client_[c].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      // Exponential interarrival, floored at 1 cycle.
      const double u = arrivals.NextDouble();
      const double gap = -std::log(1.0 - u) * mean_interarrival;
      t += std::max<uint64_t>(1, static_cast<uint64_t>(gap));
      Arrival a;
      a.cycles = t;
      a.client = c;
      a.key = config_.zipf_theta > 0 ? zipf.Next(keys) : keys.Below(config_.num_keys);
      per_client_[c].push_back(a);
    }
  }
  schedule_.clear();
  schedule_.reserve(config_.events);
  for (const auto& list : per_client_) {
    schedule_.insert(schedule_.end(), list.begin(), list.end());
  }
  std::sort(schedule_.begin(), schedule_.end(), [](const Arrival& a, const Arrival& b) {
    if (a.cycles != b.cycles) {
      return a.cycles < b.cycles;
    }
    return a.client < b.client;
  });
}

sb::StatusOr<LoadGenReport> LoadGenerator::Run() {
  if (!target_.sync_call) {
    return sb::InvalidArgument("LoadTarget.sync_call is required");
  }
  const bool have_ring = static_cast<bool>(target_.submit);
  if (have_ring && (!target_.flush || !target_.poll)) {
    return sb::InvalidArgument("LoadTarget batched hooks must be set together");
  }

  sb::telemetry::LatencyHistogram latency("loadgen.latency");
  sb::telemetry::SloMonitor monitor(config_.slos);
  monitor.BindRegistry(machine_->telemetry(), "loadgen.slo");
  LoadGenReport report;

  // The schedule is relative; anchor it at the machine's current clock so a
  // warmed-up world (or a second Run on the same machine) doesn't charge the
  // pre-existing clock epoch to the first arrivals as latency.
  uint64_t base = 0;
  for (int c = 0; c < machine_->num_cores(); ++c) {
    base = std::max(base, machine_->core(c).cycles());
  }

  std::vector<ClientState> clients(config_.num_clients);
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients[c].index = c;
    clients[c].core_id = c < config_.client_cores.size()
                             ? config_.client_cores[c]
                             : static_cast<int>(c) % machine_->num_cores();
  }

  // One completed op (either outcome): record from the INTENDED arrival.
  const auto finish = [&](const sb::Status& status, uint64_t arrival_cycles, hw::Core& core) {
    const uint64_t done = core.cycles();
    const uint64_t intended = base + arrival_cycles;
    if (status.ok()) {
      const uint64_t lat = done >= intended ? done - intended : 0;
      latency.Record(lat);
      monitor.Observe(lat, done, static_cast<uint32_t>(core.id()));
      ++report.completed;
    } else {
      ++report.errors;
    }
  };

  // Drain one client's batch: flush the ring, then reap in submission order
  // until an entry is still pending (crashed crossing: the next flush gets
  // it).
  const auto flush_and_poll = [&](ClientState& st, hw::Core& core) {
    if (st.pending.empty()) {
      return;
    }
    const sb::Status flushed = target_.flush(st.index);
    ++report.batch_flushes;
    // Aborted = handler crash mid-drain; completions already posted still
    // reap below. Any other flush error surfaces per entry via poll.
    (void)flushed;
    while (!st.pending.empty()) {
      const ClientState::Pending front = st.pending.front();
      const sb::Status polled = target_.poll(st.index, front.token);
      if (polled.code() == sb::ErrorCode::kUnavailable) {
        break;  // Untouched by the (crashed) crossing; flush again later.
      }
      st.pending.pop_front();
      finish(polled, front.arrival, core);
    }
  };

  // Burst fallback: serve the coalesced arrivals back-to-back with sync
  // calls. Latency still runs from each op's own intended arrival, so the
  // queueing the coalescing added is visible, not hidden.
  const auto serve_burst = [&](ClientState& st, hw::Core& core) {
    while (!st.deferred.empty()) {
      const Arrival a = st.deferred.front();
      st.deferred.pop_front();
      finish(target_.sync_call(st.index, a.key), a.cycles, core);
    }
  };

  // While tracing is on, each op's span starts at its intended arrival: the
  // call id parked here is adopted by the target's next submission.
  const auto emit_arrival = [&](const Arrival& a, hw::Core& core) {
    if (!sb::telemetry::TraceEnabled()) {
      return;
    }
    const uint64_t id = sb::telemetry::AllocCallId();
    sb::telemetry::TraceEmit(sb::telemetry::TraceEventType::kSpanArrival, base + a.cycles,
                             static_cast<uint32_t>(core.id()), id, a.key);
    sb::telemetry::SetPendingCallId(id);
  };

  Executor exec(*machine_);
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    ClientState& st = clients[c];
    const std::vector<Arrival>& arrivals = per_client_[c];
    exec.AddThread("loadgen-" + std::to_string(c), st.core_id,
                   [&, &st = st, &arrivals = arrivals](SimThread& t) -> bool {
                     hw::Core& core = t.core();
                     if (st.next >= arrivals.size()) {
                       // Tail drain: keep flushing until every op resolved.
                       if (!st.pending.empty()) {
                         const uint64_t before = report.completed + report.errors;
                         flush_and_poll(st, core);
                         if (report.completed + report.errors == before) {
                           // A pathological fault schedule can crash every
                           // crossing; after enough fruitless rounds the
                           // stragglers count as errors instead of hanging
                           // the run.
                           if (++st.stall > 1024) {
                             report.errors += st.pending.size();
                             st.pending.clear();
                           }
                         } else {
                           st.stall = 0;
                         }
                         return !st.pending.empty();
                       }
                       if (!st.deferred.empty()) {
                         serve_burst(st, core);
                       }
                       return false;
                     }
                     const Arrival& a = arrivals[st.next];
                     const uint64_t due = base + a.cycles;
                     if (t.now() < due) {
                       // Idle until the next arrival: flush any pending batch
                       // first (idle cycles are free; holding a short batch
                       // for its fill would just buy queueing delay)...
                       if (!st.pending.empty()) {
                         flush_and_poll(st, core);
                         return true;
                       }
                       if (!st.deferred.empty()) {
                         serve_burst(st, core);
                         return true;
                       }
                       // ...then sleep to the arrival.
                       t.set_now(due);
                       return true;
                     }
                     ++st.next;
                     ++report.generated;
                     emit_arrival(a, core);
                     if (!config_.batched) {
                       finish(target_.sync_call(st.index, a.key), a.cycles, core);
                       return true;
                     }
                     if (!have_ring) {
                       st.deferred.push_back(a);
                       if (st.deferred.size() >= config_.batch_depth) {
                         serve_burst(st, core);
                       }
                       return true;
                     }
                     auto token = target_.submit(st.index, a.key);
                     if (!token.ok() &&
                         token.status().code() == sb::ErrorCode::kResourceExhausted) {
                       // Ring full: drain and retry once.
                       flush_and_poll(st, core);
                       token = target_.submit(st.index, a.key);
                     }
                     if (!token.ok()) {
                       ++report.errors;
                       return true;
                     }
                     st.pending.push_back({*token, a.cycles});
                     if (st.pending.size() >= config_.batch_depth) {
                       flush_and_poll(st, core);
                     }
                     return true;
                   });
  }
  exec.RunToCompletion();

  report.mean = latency.Mean();
  report.p50 = latency.Percentile(50);
  report.p90 = latency.Percentile(90);
  report.p99 = latency.Percentile(99);
  report.p999 = latency.Percentile(99.9);
  report.p9999 = latency.Percentile(99.99);
  report.max = latency.Max();
  report.overflow = latency.OverflowCount();
  report.slo_breaches = monitor.breaches();
  report.in_slo = monitor.in_slo();
  const uint64_t finished = report.completed + report.errors;
  report.goodput_fraction =
      finished > 0 ? static_cast<double>(report.in_slo) / static_cast<double>(finished) : 1.0;
  const uint64_t end = exec.max_time();
  report.elapsed_cycles = end > base ? end - base : 0;
  report.goodput_per_kcycle = monitor.GoodputPerKcycle(report.elapsed_cycles);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Arrival& a : schedule_) {
    h = Fnv1a(h, a.cycles);
    h = Fnv1a(h, a.key);
    h = Fnv1a(h, a.client);
  }
  report.schedule_hash = h;
  report.histogram_digest = latency.Digest();
  return report;
}

}  // namespace sim
