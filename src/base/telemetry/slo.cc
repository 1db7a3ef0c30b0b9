#include "src/base/telemetry/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sb::telemetry {
namespace {

// Nearest-rank percentile over the exact samples of one window — the window
// is small and bounded, so no bucketing error on the verdict itself.
uint64_t ExactPercentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(clamped / 100.0 * static_cast<double>(samples.size()))));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

}  // namespace

sb::StatusOr<SloSpec> SloSpec::Parse(std::string_view text) {
  SloSpec spec;
  if (text.empty() || text[0] != 'p') {
    return sb::InvalidArgument("SLO spec must start with 'p': " + std::string(text));
  }
  const size_t lt = text.find('<');
  if (lt == std::string_view::npos || lt < 2) {
    return sb::InvalidArgument("SLO spec needs 'p<percentile> < <bound>': " + std::string(text));
  }
  const std::string pct(text.substr(1, lt - 1));
  char* pct_end = nullptr;
  spec.percentile = std::strtod(pct.c_str(), &pct_end);
  if (pct_end == pct.c_str() || *pct_end != '\0' || spec.percentile <= 0.0 ||
      spec.percentile > 100.0) {
    return sb::InvalidArgument("bad SLO percentile: " + pct);
  }
  std::string_view rest = text.substr(lt + 1);
  const size_t at = rest.find("@window=");
  std::string_view bound_text = at == std::string_view::npos ? rest : rest.substr(0, at);
  uint64_t bound = 0;
  bool any = false;
  for (const char c : bound_text) {
    if (c < '0' || c > '9') {
      return sb::InvalidArgument("bad SLO bound: " + std::string(bound_text));
    }
    bound = bound * 10 + static_cast<uint64_t>(c - '0');
    any = true;
  }
  if (!any || bound == 0) {
    return sb::InvalidArgument("SLO bound must be a positive cycle count: " + std::string(text));
  }
  spec.bound_cycles = bound;
  if (at != std::string_view::npos) {
    uint64_t window = 0;
    bool wany = false;
    for (const char c : rest.substr(at + 8)) {
      if (c < '0' || c > '9') {
        return sb::InvalidArgument("bad SLO window: " + std::string(rest.substr(at + 8)));
      }
      window = window * 10 + static_cast<uint64_t>(c - '0');
      wany = true;
    }
    if (!wany || window == 0) {
      return sb::InvalidArgument("SLO window must be positive: " + std::string(text));
    }
    spec.window = window;
  }
  return spec;
}

std::string SloSpec::ToString() const {
  char buf[96];
  // Trim "p99.000000" down to "p99" / "p99.9".
  double ip = 0;
  if (std::modf(percentile, &ip) == 0.0) {
    std::snprintf(buf, sizeof(buf), "p%.0f<%llu@window=%llu", percentile,
                  static_cast<unsigned long long>(bound_cycles),
                  static_cast<unsigned long long>(window));
  } else {
    std::snprintf(buf, sizeof(buf), "p%.4g<%llu@window=%llu", percentile,
                  static_cast<unsigned long long>(bound_cycles),
                  static_cast<unsigned long long>(window));
  }
  return buf;
}

SloMonitor::SloMonitor(std::vector<SloSpec> specs) : specs_(std::move(specs)) {
  states_.resize(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    states_[i].window.reserve(specs_[i].window);
  }
}

void SloMonitor::Bind(Registry& registry, Trace& trace, const std::string& prefix) {
  breach_counter_ = &registry.GetCounter(prefix + ".breaches");
  goodput_gauge_ = &registry.GetGauge(prefix + ".goodput_ops");
  observed_gauge_ = &registry.GetGauge(prefix + ".observed_ops");
  trace_ = &trace;
}

void SloMonitor::Observe(uint64_t latency_cycles, uint64_t now_cycles, uint32_t core) {
  ++observed_;
  bool good = true;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SpecState& state = states_[i];
    if (latency_cycles >= spec.bound_cycles) {
      good = false;
    }
    if (state.window.size() < spec.window) {
      state.window.push_back(latency_cycles);
    } else {
      state.window[state.seen % spec.window] = latency_cycles;
    }
    ++state.seen;
    if (state.seen % spec.window == 0) {
      Evaluate(i, now_cycles, core);
    }
  }
  if (good) {
    ++in_slo_;
  }
  if (goodput_gauge_ != nullptr) {
    goodput_gauge_->Set(in_slo_);
    observed_gauge_->Set(observed_);
  }
}

void SloMonitor::Evaluate(size_t i, uint64_t now_cycles, uint32_t core) {
  const SloSpec& spec = specs_[i];
  SpecState& state = states_[i];
  const uint64_t observed = ExactPercentile(state.window, spec.percentile);
  if (observed < spec.bound_cycles) {
    return;
  }
  ++state.breaches;
  ++breaches_;
  if (breach_counter_ != nullptr) {
    breach_counter_->Add();
    trace_->Emit(TraceEventType::kSloBreach, now_cycles, core, i, observed);
  }
}

uint64_t SloMonitor::breaches_for(size_t spec_index) const {
  return spec_index < states_.size() ? states_[spec_index].breaches : 0;
}

double SloMonitor::GoodputFraction() const {
  if (observed_ == 0) {
    return 1.0;
  }
  return static_cast<double>(in_slo_) / static_cast<double>(observed_);
}

double SloMonitor::GoodputPerKcycle(uint64_t elapsed_cycles) const {
  if (elapsed_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(in_slo_) * 1000.0 / static_cast<double>(elapsed_cycles);
}

}  // namespace sb::telemetry
