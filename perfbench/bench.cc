#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "src/hw/cost_model.h"
#include "src/sim/executor.h"
#include "src/sim/loadgen.h"

namespace perfbench {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double HostNowS() { return static_cast<double>(HostNowNs()) * 1e-9; }

// ---- Report ----

void Report::Fail(const std::string& why) {
  if (first_error_.empty()) {
    first_error_ = why;
  }
}

void Report::CountOp(const sb::Status& status) {
  ++attempted_;
  if (!status.ok()) {
    ++failed_;
  }
}

void Report::EndToEnd(const std::string& name, double value, const std::string& unit,
                      bool simulated) {
  end_to_end_[name] = {value, unit};
  if (simulated) {
    Digest(name);
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Digest(bits);
  }
}

void Report::Layer(const std::string& name, double value, const std::string& unit,
                   bool simulated) {
  per_layer_[name] = {value, unit};
  if (simulated) {
    Digest(name);
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Digest(bits);
  }
}

void Report::Digest(std::string_view text) {
  for (const char c : text) {
    digest_ = (digest_ ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
}

void Report::Digest(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest_ = (digest_ ^ ((value >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
}

// ---- Tracer ----

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t op, const hw::Core* core) {
  if (!tracer.enabled_) {
    return;
  }
  tracer_ = &tracer;
  core_ = core;
  if (tracer.spans_.size() >= kMaxSpans) {
    ++tracer.dropped_;
  } else {
    index_ = static_cast<int64_t>(tracer.spans_.size());
    const int64_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
    const uint64_t cycles = core != nullptr ? core->cycles() : 0;
    tracer.spans_.push_back({name, parent, op, HostNowNs(), 0, cycles, 0});
  }
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  if (index_ >= 0) {
    Span& span = tracer_->spans_[static_cast<size_t>(index_)];
    span.host_end_ns = HostNowNs();
    span.cycles_end = core_ != nullptr ? core_->cycles() : 0;
  }
  tracer_->open_.pop_back();
}

sb::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return sb::Internal("cannot open span file " + path);
  }
  out << "# id\tparent\tname\top\thost_start_ns\thost_end_ns\tcycles_start\tcycles_end\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.name << '\t' << s.op << '\t' << s.host_start_ns
        << '\t' << s.host_end_ns << '\t' << s.cycles_start << '\t' << s.cycles_end << '\n';
  }
  out << "# dropped\t" << dropped_ << '\n';
  return out ? sb::OkStatus() : sb::Internal("short write to " + path);
}

// ---- Registry deltas ----

Snapshot TakeSnapshot(const hw::Machine& machine) {
  Snapshot snap;
  for (sb::telemetry::MetricValue& v : machine.telemetry().Snapshot()) {
    std::string name = v.name;
    snap.emplace(std::move(name), std::move(v));
  }
  return snap;
}

namespace {

uint64_t ValueOf(const Snapshot& snap, std::string_view name) {
  const auto it = snap.find(name);
  if (it == snap.end()) {
    return 0;
  }
  return it->second.kind == sb::telemetry::MetricValue::Kind::kHistogram ? it->second.count
                                                                          : it->second.value;
}

}  // namespace

uint64_t Delta(const Snapshot& before, const Snapshot& after, std::string_view name) {
  const uint64_t a = ValueOf(after, name);
  const uint64_t b = ValueOf(before, name);
  return a >= b ? a - b : 0;
}

uint64_t HistogramP50(const Snapshot& snap, std::string_view name) {
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second.p50;
}

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

uint64_t Percentile(std::vector<uint64_t>& values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

uint64_t Median(std::vector<uint64_t> values) { return Percentile(values, 50); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double OpsPerSimSecond(uint64_t ops, uint64_t cycles) {
  if (cycles == 0) {
    return 0;
  }
  return static_cast<double>(ops) * hw::DefaultCosts().cycles_per_second /
         static_cast<double>(cycles);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

void ReportCommonLayers(Report& report, const Snapshot& before, const Snapshot& after,
                        uint64_t ops) {
  const auto d = [&](std::string_view name) { return Delta(before, after, name); };
  report.Layer("hw.l1d_misses_per_op", PerOp(d("hw.cache.l1d_misses"), ops), "count/op", true);
  report.Layer("hw.llc_misses_per_op", PerOp(d("hw.cache.l3_misses"), ops), "count/op", true);
  report.Layer("hw.dtlb_misses_per_op", PerOp(d("hw.tlb.dtlb_misses"), ops), "count/op", true);
  report.Layer("hw.vmfuncs_per_op", PerOp(d("hw.core.vmfuncs"), ops), "count/op", true);
  report.Layer("hw.vmexits", static_cast<double>(d("hw.vmexit.total")), "count", true);
  report.Layer("mk.context_switches_per_op", PerOp(d("mk.sched.context_switches"), ops),
               "count/op", true);
  report.Layer("mk.syscalls_per_op", PerOp(d("mk.syscall.entries"), ops), "count/op", true);

  const uint64_t direct = d("skybridge.ipc.direct_calls");
  const uint64_t flushes = d("skybridge.ipc.batch_flushes");
  report.Layer("skybridge.crossings_per_op", PerOp(direct + flushes, ops), "count/op", true);
  for (const char* phase : {"vmfunc", "trampoline", "copy", "total", "slot_fault", "drain"}) {
    report.Layer(std::string("skybridge.phase_") + phase + "_p50_cycles",
                 static_cast<double>(HistogramP50(after, std::string("skybridge.phase.") + phase)),
                 "cycles", true);
  }
  const uint64_t hits = d("skybridge.lookup.hits");
  report.Layer("skybridge.lookup_hit_ratio", PerOp(hits, hits + d("skybridge.lookup.misses")),
               "ratio", true);
  report.Layer("skybridge.slot_faults_per_call", PerOp(d("skybridge.eptp.slot_faults"), direct),
               "count/call", true);
  report.Layer("skybridge.slot_evictions", static_cast<double>(d("skybridge.eptp.slot_evictions")),
               "count", true);
  report.Layer("skybridge.calls_per_flush", PerOp(d("skybridge.ipc.batched_calls"), flushes),
               "count/flush", true);
  report.Layer("skybridge.drain_rounds_per_flush", PerOp(d("skybridge.ipc.drain_rounds"), flushes),
               "count/flush", true);
  report.Layer("skybridge.rejected_calls", static_cast<double>(d("skybridge.ipc.rejected_calls")),
               "count", true);
  report.Layer("skybridge.gate_rejections",
               static_cast<double>(d("skybridge.ipc.gate_rejections")), "count", true);
  report.Layer("skybridge.aborted_calls", static_cast<double>(d("skybridge.ipc.aborted_calls")),
               "count", true);
  report.Layer("skybridge.stale_slot_retries",
               static_cast<double>(d("skybridge.ipc.stale_slot_retries")), "count", true);
}

sb::Status ProbeRegistration(mk::Kernel& kernel, skybridge::SkyBridge& sky, int clients,
                             SetupCost& cost) {
  hw::Core& core0 = kernel.machine().core(0);
  const int64_t t0 = HostNowNs();
  SB_ASSIGN_OR_RETURN(mk::Process * server, kernel.CreateProcess("perfbench-probe-server"));
  std::vector<mk::Process*> probe_clients;
  for (int i = 0; i < clients; ++i) {
    SB_ASSIGN_OR_RETURN(mk::Process * client,
                        kernel.CreateProcess("perfbench-probe-client" + std::to_string(i)));
    probe_clients.push_back(client);
  }
  cost.create_process_s += static_cast<double>(HostNowNs() - t0) * 1e-9;
  cost.processes += static_cast<uint64_t>(clients) + 1;

  cost.reg_before = TakeSnapshot(kernel.machine());
  const int64_t t1 = HostNowNs();
  uint64_t c0 = core0.cycles();
  SB_ASSIGN_OR_RETURN(skybridge::ServerId sid,
                      sky.RegisterServer(server, clients,
                                         [](mk::CallEnv& env) { return env.request; }));
  cost.register_server_cycles += core0.cycles() - c0;
  ++cost.servers;
  for (mk::Process* client : probe_clients) {
    c0 = core0.cycles();
    SB_RETURN_IF_ERROR(sky.RegisterClient(client, sid));
    cost.register_client_cycles += core0.cycles() - c0;
    ++cost.bindings;
  }
  cost.register_s += static_cast<double>(HostNowNs() - t1) * 1e-9;
  cost.reg_after = TakeSnapshot(kernel.machine());
  return sb::OkStatus();
}

void ReportSetup(Report& report, const SetupCost& cost, const std::vector<double>& setup_times,
                 const Snapshot& world) {
  const auto d = [&](std::string_view name) {
    return Delta(cost.reg_before, cost.reg_after, name);
  };
  report.EndToEnd("setup_s", Median(setup_times), "s", false);
  report.EndToEnd("reg_cycles_per_binding",
                  PerOp(cost.register_server_cycles + cost.register_client_cycles, cost.bindings),
                  "cycles", true);
  report.Layer("vmm.epts_created", static_cast<double>(d("vmm.ept.created")), "count", true);
  report.Layer("vmm.ept_pages", static_cast<double>(Delta({}, world, "vmm.ept.pages")), "count",
               true);
  report.Layer("vmm.vmcalls_per_binding", PerOp(d("vmm.exits.vmcall"), cost.bindings),
               "count/binding", true);
  report.Layer("mk.create_process_s",
               cost.processes == 0 ? 0.0 : cost.create_process_s / static_cast<double>(cost.processes),
               "s", false);
  report.Layer("x86.pages_scanned",
               static_cast<double>(d("skybridge.registration.pages_rescanned")), "count", true);
  const uint64_t hits = d("skybridge.registration.cache_hits");
  report.Layer("x86.rewrite_cache_hit_ratio",
               PerOp(hits, hits + d("skybridge.registration.cache_misses")), "ratio", true);
  report.Layer("skybridge.register_s", cost.register_s, "s", false);
  report.Layer("skybridge.register_server_cycles",
               PerOp(cost.register_server_cycles, cost.servers), "cycles", true);
  report.Layer("skybridge.register_client_cycles",
               PerOp(cost.register_client_cycles, cost.bindings), "cycles", true);
  report.Layer("apps.preload_s", cost.preload_s, "s", false);
}

void PinConfig(skybridge::SkyBridgeConfig& config) {
  config.crossing_backend = skybridge::CrossingBackendKind::kEptp;
  config.registration_mode = skybridge::RegistrationMode::kEager;
}

void CheckPinned(Report& report, const skybridge::SkyBridge& sky) {
  const skybridge::SkyBridgeConfig& config = sky.config();
  std::printf("config: crossing_backend=%s registration_mode=%s\n",
              skybridge::CrossingBackendName(config.crossing_backend),
              skybridge::RegistrationModeName(config.registration_mode));
  if (config.crossing_backend != skybridge::CrossingBackendKind::kEptp ||
      config.registration_mode != skybridge::RegistrationMode::kEager) {
    report.Fail("world not pinned to crossing_backend=eptp, registration_mode=eager");
  }
}

void CheckQuiesced(Report& report, skybridge::SkyBridge& sky) {
  const sb::Status invariants = sky.CheckInvariants();
  if (!invariants.ok()) {
    report.Fail("CheckInvariants: " + invariants.ToString());
  }
  if (sky.InFlightCalls() != 0) {
    report.Fail("calls left in flight: " + std::to_string(sky.InFlightCalls()));
  }
}

void CheckVmExits(Report& report, const Snapshot& before, const Snapshot& after,
                  bool allow_hypercalls) {
  const uint64_t exits = Delta(before, after, "hw.vmexit.total");
  const uint64_t hypercalls = Delta(before, after, "vmm.exits.vmcall");
  const uint64_t allowed = allow_hypercalls ? hypercalls : 0;
  if (exits != allowed) {
    report.Fail("VM exits in the measured phase: " + std::to_string(exits) + " (" +
                std::to_string(hypercalls) + " hypercalls, allowed " + std::to_string(allowed) +
                ")");
  }
}

// ---- Closed loop ----

namespace {

uint64_t AlignClocks(hw::Machine& machine) {
  uint64_t base = 0;
  for (int c = 0; c < machine.num_cores(); ++c) {
    base = std::max(base, machine.core(c).cycles());
  }
  for (int c = 0; c < machine.num_cores(); ++c) {
    machine.core(c).SyncClockTo(base);
  }
  return base;
}

}  // namespace

ClosedLoopResult RunClosedLoop(hw::Machine& machine, const std::vector<int>& cores,
                               uint64_t total_ops,
                               const std::function<sb::Status(uint32_t, uint64_t)>& op,
                               Report& report) {
  ClosedLoopResult result;
  result.latencies.reserve(total_ops);
  const uint64_t base = AlignClocks(machine);
  sim::Executor exec(machine);
  const uint64_t threads = cores.size();
  for (uint32_t d = 0; d < threads; ++d) {
    const uint64_t share = total_ops / threads + (d < total_ops % threads ? 1 : 0);
    if (share == 0) {
      continue;
    }
    sim::SimThread* thread = exec.AddThread(
        "perfbench-" + std::to_string(d), cores[d],
        [&, d, share](sim::SimThread& t) -> bool {
          hw::Core& core = t.core();
          const uint64_t start = core.cycles();
          const sb::Status status = op(d, t.iterations());
          report.CountOp(status);
          ++result.ops;
          if (status.ok()) {
            result.latencies.push_back(core.cycles() - start);
          }
          return t.iterations() + 1 < share;
        });
    thread->set_now(base);
  }
  exec.RunToCompletion();
  result.elapsed_cycles = exec.max_time() - base;
  return result;
}

// ---- Open loop ----

OpenLoopResult RunOpenLoop(hw::Machine& machine, const LoadSpec& spec, const OpHooks& hooks,
                           double rate, bool batched, Report& report) {
  sim::LoadGenConfig config;
  config.seed = spec.seed;
  config.offered_per_kcycle = rate;
  config.events = spec.events;
  config.num_clients = static_cast<uint32_t>(spec.cores.size());
  config.client_cores = spec.cores;
  config.num_keys = spec.num_keys;
  config.zipf_theta = spec.zipf_theta;
  config.batched = batched;
  config.batch_depth = spec.batch_depth;

  OpenLoopResult result;
  result.latencies.reserve(spec.events);
  result.issue_lags.reserve(spec.events);
  const bool timed = GlobalTracer().enabled();

  // Intended arrivals per client in the order the generator sends them. The generator anchors the
  // schedule at the highest core clock when Run() starts; nothing runs
  // between here and there, so the same anchor is computed here.
  std::vector<std::vector<uint64_t>> arrivals(spec.cores.size());
  std::vector<size_t> next(spec.cores.size(), 0);
  std::vector<std::unordered_map<uint64_t, uint64_t>> pending(spec.cores.size());
  uint64_t base = 0;

  sim::LoadTarget target;
  const auto send = [&](uint32_t client) -> std::pair<hw::Core*, uint64_t> {
    hw::Core& core = machine.core(spec.cores[client]);
    const uint64_t intended = base + arrivals[client][next[client]];
    result.issue_lags.push_back(core.cycles() > intended ? core.cycles() - intended : 0);
    return {&core, intended};
  };
  const auto finish = [&](const sb::Status& status, hw::Core& core, uint64_t intended) {
    report.CountOp(status);
    ++result.ops;
    if (status.ok()) {
      result.latencies.push_back(core.cycles() > intended ? core.cycles() - intended : 0);
    } else {
      ++result.errors;
    }
  };
  target.sync_call = [&](uint32_t client, uint64_t key) {
    const auto [core, intended] = send(client);
    ++next[client];
    const int64_t t0 = timed ? HostNowNs() : 0;
    const sb::Status status = hooks.call(client, key);
    if (timed) {
      result.hook_host_s += static_cast<double>(HostNowNs() - t0) * 1e-9;
    }
    finish(status, *core, intended);
    return status;
  };
  if (hooks.submit) {
    target.submit = [&](uint32_t client, uint64_t key) -> sb::StatusOr<uint64_t> {
      const auto [core, intended] = send(client);
      const int64_t t0 = timed ? HostNowNs() : 0;
      sb::StatusOr<uint64_t> token = hooks.submit(client, key);
      if (timed) {
        result.hook_host_s += static_cast<double>(HostNowNs() - t0) * 1e-9;
      }
      if (!token.ok() && token.status().code() == sb::ErrorCode::kResourceExhausted) {
        result.issue_lags.pop_back();  // The generator flushes and resubmits this arrival.
        return token;
      }
      ++next[client];
      if (token.ok()) {
        pending[client][*token] = intended;
      } else {
        finish(token.status(), *core, intended);
      }
      return token;
    };
    target.flush = [&](uint32_t client) {
      const int64_t t0 = timed ? HostNowNs() : 0;
      const sb::Status status = hooks.flush(client);
      if (timed) {
        result.hook_host_s += static_cast<double>(HostNowNs() - t0) * 1e-9;
      }
      return status;
    };
    target.poll = [&](uint32_t client, uint64_t token) {
      const int64_t t0 = timed ? HostNowNs() : 0;
      const sb::Status status = hooks.poll(client, token);
      if (timed) {
        result.hook_host_s += static_cast<double>(HostNowNs() - t0) * 1e-9;
      }
      if (status.code() != sb::ErrorCode::kUnavailable) {
        const auto it = pending[client].find(token);
        if (it == pending[client].end()) {
          report.Fail("completion for an unknown token");
        } else {
          finish(status, machine.core(spec.cores[client]), it->second);
          pending[client].erase(it);
        }
      }
      return status;
    };
  }

  sim::LoadGenerator gen(machine, config, target);
  for (const sim::Arrival& a : gen.schedule()) {
    arrivals[a.client].push_back(a.cycles);
  }
  for (int c = 0; c < machine.num_cores(); ++c) {
    base = std::max(base, machine.core(c).cycles());
  }
  const double start = HostNowS();
  const sb::StatusOr<sim::LoadGenReport> run = [&] {
    Tracer::Scope span(GlobalTracer(), "sim.LoadGenerator::Run", 0, nullptr);
    return gen.Run();
  }();
  result.host_s = HostNowS() - start;
  if (!run.ok()) {
    report.Fail("LoadGenerator::Run: " + run.status().ToString());
    return result;
  }
  if (run->completed + run->errors != result.ops) {
    report.Fail("load generator and benchmark disagree on finished ops");
  }
  result.fingerprint = run->Fingerprint();
  // A growing backlog shows as latency that climbs through the run: the
  // last quarter's median more than twice the first quarter's.
  const size_t quarter = result.latencies.size() / 4;
  if (quarter > 0) {
    std::vector<uint64_t> head(result.latencies.begin(), result.latencies.begin() + quarter);
    std::vector<uint64_t> tail(result.latencies.end() - quarter, result.latencies.end());
    result.backlog_ok = Median(tail) <= 2 * Median(head);
  }
  return result;
}

namespace {

struct Rung {
  double rate = 0;
  uint64_t p99 = 0;
  bool pass = false;
  bool p99_only_failure = false;
};

// Highest rate whose sync p99 meets the limit with no failures and no
// growing backlog, in ops per simulated second. Between the last passing
// rung and the first failing one the crossing is interpolated on p99, so
// the figure moves continuously with the tail instead of jumping a rung.
double MaxRateUnderSlo(const std::vector<Rung>& rungs, uint64_t limit) {
  const double per_kcycle = hw::DefaultCosts().cycles_per_second / 1000.0;
  size_t f = 0;
  while (f < rungs.size() && rungs[f].pass) {
    ++f;
  }
  if (f == rungs.size()) {
    return rungs.back().rate * per_kcycle;
  }
  if (f == 0) {
    // Fails at the lowest rung: scale it by how far its tail overshoots.
    const double p99 = static_cast<double>(std::max<uint64_t>(rungs[0].p99, 1));
    return rungs[0].rate * std::min(1.0, static_cast<double>(limit) / p99) * per_kcycle;
  }
  const Rung& lo = rungs[f - 1];
  const Rung& hi = rungs[f];
  if (!hi.p99_only_failure || hi.p99 <= lo.p99) {
    return lo.rate * per_kcycle;
  }
  const double t = (static_cast<double>(limit) - static_cast<double>(lo.p99)) /
                   (static_cast<double>(hi.p99) - static_cast<double>(lo.p99));
  return (lo.rate + std::clamp(t, 0.0, 1.0) * (hi.rate - lo.rate)) * per_kcycle;
}

}  // namespace

LadderResult RunLadder(hw::Machine& machine, const LoadSpec& spec, const OpHooks& hooks,
                       Report& report) {
  LadderResult ladder;
  double loop_s = 0;
  double hook_s = 0;
  uint64_t events = 0;
  for (const bool batched : {false, true}) {
    std::vector<Rung> rungs;
    for (size_t i = 0; i < spec.rungs; ++i) {
      const double rate = spec.ladder[i];
      OpenLoopResult r = RunOpenLoop(machine, spec, hooks, rate, batched, report);
      ladder.ops += r.ops;
      loop_s += r.host_s;
      hook_s += r.hook_host_s;
      events += spec.events;
      report.Digest(r.fingerprint);
      Rung rung;
      rung.rate = rate;
      std::vector<uint64_t> lat = r.latencies;
      rung.p99 = Percentile(lat, 99);
      const bool p99_ok = rung.p99 <= spec.p99_limit_cycles;
      rung.pass = p99_ok && r.errors == 0 && r.backlog_ok;
      rung.p99_only_failure = !p99_ok && r.errors == 0;
      std::printf("  %-7s rate %.4f/kcycle: ops %llu p99 %llu%s%s\n",
                  batched ? "batched" : "sync", rate,
                  static_cast<unsigned long long>(r.ops),
                  static_cast<unsigned long long>(rung.p99), rung.pass ? "" : "  (misses SLO)",
                  r.backlog_ok ? "" : "  (backlog)");
      rungs.push_back(rung);
      if (rate == spec.reference) {
        (batched ? ladder.batched_ref : ladder.sync_ref) = std::move(r);
      }
    }
    (batched ? ladder.batched_max_rate : ladder.max_rate) =
        MaxRateUnderSlo(rungs, spec.p99_limit_cycles);
  }
  if (events > 0) {
    ladder.host_ns_per_event = (loop_s - hook_s) * 1e9 / static_cast<double>(events);
  }
  return ladder;
}

void ReportLadder(Report& report, const LadderResult& ladder, bool op_latency_from_ladder) {
  std::vector<uint64_t> sync_lat = ladder.sync_ref.latencies;
  std::vector<uint64_t> batched_lat = ladder.batched_ref.latencies;
  std::printf("batched_p99_cycles over %zu samples\n", batched_lat.size());
  if (op_latency_from_ladder) {
    std::printf("op_p50/p99_cycles over %zu samples\n", sync_lat.size());
    report.EndToEnd("op_p50_cycles", static_cast<double>(Percentile(sync_lat, 50)), "cycles",
                    true);
    report.EndToEnd("op_p99_cycles", static_cast<double>(Percentile(sync_lat, 99)), "cycles",
                    true);
  }
  report.EndToEnd("batched_p99_cycles", static_cast<double>(Percentile(batched_lat, 99)),
                  "cycles", true);
  report.EndToEnd("max_rate_under_slo", ladder.max_rate, "ops/sim_s", true);
  report.EndToEnd("batched_max_rate_under_slo", ladder.batched_max_rate, "ops/sim_s", true);
  std::vector<uint64_t> lags = ladder.sync_ref.issue_lags;
  report.Layer("sim.issue_lag_p99_cycles", static_cast<double>(Percentile(lags, 99)), "cycles",
               true);
  report.Layer("sim.host_ns_per_event", ladder.host_ns_per_event, "ns", false);
}

double ProbeNs() {
  constexpr uint64_t kKeys = 1 << 16;
  constexpr uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  static const std::unordered_map<uint64_t, uint64_t> table = [] {
    std::unordered_map<uint64_t, uint64_t> t;
    for (uint64_t i = 0; i < kKeys; ++i) {
      t[i * kMix] = i;
    }
    return t;
  }();
  uint64_t x = kMix;
  uint64_t sum = 0;
  const int64_t start = HostNowNs();
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table.find((x & (kKeys - 1)) * kMix)->second;
  }
  const int64_t elapsed = HostNowNs() - start;
  // Keeps the loop observable; the sum of 100,000 keys below 2^16 never
  // reaches 2^63.
  if (sum >> 63 != 0) {
    std::fprintf(stderr, "probe overflow\n");
  }
  return static_cast<double>(std::max<int64_t>(elapsed, 1));
}

void ReportHostRounds(Report& report, double deadline_s, const std::function<uint64_t()>& round) {
  Tracer& tracer = GlobalTracer();
  const bool traced = tracer.enabled();
  std::vector<double> plain;
  std::vector<double> with_spans;
  std::vector<double> probes;
  bool spans_on = false;
  double probe_before = ProbeNs();
  do {
    tracer.set_enabled(traced && spans_on);
    const double start = HostNowS();
    const uint64_t ops = round();
    const double elapsed = HostNowS() - start;
    tracer.set_enabled(false);
    const double probe_after = ProbeNs();
    // Scaled by the probe on both sides of the round.
    const double probe = 0.5 * (probe_before + probe_after);
    probe_before = probe_after;
    if (elapsed > 0) {
      probes.push_back(probe);
      (spans_on ? with_spans : plain)
          .push_back(static_cast<double>(ops) / elapsed * probe / kProbeNominalNs);
    }
    spans_on = traced && !spans_on;
  } while (HostNowS() < deadline_s || plain.empty() || (traced && with_spans.empty()));
  tracer.set_enabled(traced);
  const double untraced = Median(plain);
  const double traced_rate = Median(with_spans);
  report.EndToEnd("host_ops_per_s", untraced, "ops/s", false);
  report.Layer("telemetry.trace_overhead", traced && traced_rate > 0 ? untraced / traced_rate : 1.0,
               "ratio", false);
  report.Layer("host.probe_ns", Median(probes), "ns", false);
}

}  // namespace perfbench
