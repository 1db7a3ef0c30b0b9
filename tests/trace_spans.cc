#include "tests/trace_spans.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

namespace sb::telemetry {
namespace {

// Phase a call-id-carrying record contributes to its span, or nullopt for
// record types that carry no call id (and for kBatchFlushEnd, which only
// closes the correlation window).
std::optional<SpanPhase> PhaseOf(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSpanArrival:
      return SpanPhase::kArrival;
    case TraceEventType::kBatchEnqueue:
      return SpanPhase::kEnqueue;
    case TraceEventType::kBatchFlushStart:
      return SpanPhase::kFlush;
    case TraceEventType::kSpanVmfunc:
      return SpanPhase::kVmfunc;
    case TraceEventType::kBatchDrain:
      return SpanPhase::kDrain;
    case TraceEventType::kSpanReturn:
      return SpanPhase::kReturn;
    case TraceEventType::kBatchPoll:
      return SpanPhase::kPoll;
    default:
      return std::nullopt;
  }
}

std::optional<uint64_t> FindU64(std::string_view line, std::string_view key) {
  const size_t pos = line.find(key);
  if (pos == std::string_view::npos) {
    return std::nullopt;
  }
  size_t i = pos + key.size();
  uint64_t v = 0;
  bool any = false;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(line[i] - '0');
    ++i;
    any = true;
  }
  if (!any) {
    return std::nullopt;
  }
  return v;
}

std::optional<TraceEventType> TypeFromName(std::string_view name) {
  static const auto* by_name = [] {
    auto* m = new std::unordered_map<std::string, TraceEventType>();
    for (int i = 0; i < 256; ++i) {
      const auto t = static_cast<TraceEventType>(i);
      const std::string n = TraceEventName(t);
      if (n == "unknown") {
        break;
      }
      m->emplace(n, t);
    }
    return m;
  }();
  auto it = by_name->find(std::string(name));
  if (it == by_name->end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace

std::string_view SpanPhaseName(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kArrival:
      return "arrival";
    case SpanPhase::kEnqueue:
      return "enqueue";
    case SpanPhase::kFlush:
      return "flush";
    case SpanPhase::kVmfunc:
      return "vmfunc";
    case SpanPhase::kDrain:
      return "drain";
    case SpanPhase::kReturn:
      return "return";
    case SpanPhase::kPoll:
      return "poll";
  }
  return "unknown";
}

const SpanEvent* CallSpan::Find(SpanPhase phase) const {
  for (const SpanEvent& e : events) {
    if (e.phase == phase) {
      return &e;
    }
  }
  return nullptr;
}

uint64_t CallSpan::TotalCycles() const {
  if (events.empty()) {
    return 0;
  }
  uint64_t lo = events[0].cycles;
  uint64_t hi = events[0].cycles;
  for (const SpanEvent& e : events) {
    lo = std::min(lo, e.cycles);
    hi = std::max(hi, e.cycles);
  }
  return hi - lo;
}

std::vector<CallSpan> BuildSpans(const std::vector<TraceRecord>& records) {
  std::vector<TraceRecord> ordered = records;
  std::sort(ordered.begin(), ordered.end(),
            [](const TraceRecord& a, const TraceRecord& b) { return a.seq < b.seq; });

  std::map<uint64_t, CallSpan> spans;
  // The crossing currently draining on each core: kBatchFlushStart opens the
  // window, kBatchFlushEnd closes it; kBatchDrain records inside the window
  // belong to that crossing.
  std::unordered_map<uint32_t, uint64_t> open_crossing;
  for (const TraceRecord& rec : ordered) {
    if (rec.type == TraceEventType::kBatchFlushStart) {
      open_crossing[rec.core] = rec.arg0;
    } else if (rec.type == TraceEventType::kBatchFlushEnd) {
      open_crossing[rec.core] = 0;
    }
    const std::optional<SpanPhase> phase = PhaseOf(rec.type);
    if (!phase.has_value() || rec.arg0 == 0) {
      continue;
    }
    CallSpan& span = spans[rec.arg0];
    span.call_id = rec.arg0;
    if (rec.type == TraceEventType::kBatchDrain) {
      const auto it = open_crossing.find(rec.core);
      if (it != open_crossing.end() && it->second != 0 && it->second != rec.arg0) {
        span.crossing_id = it->second;
      }
    }
    span.events.push_back(SpanEvent{*phase, rec.cycles, rec.seq, rec.core, rec.arg1, false});
  }

  // Mirror each crossing's own legs into the entry spans it drained, so one
  // batched call's tree (arrival..poll) is complete without consulting the
  // crossing span.
  for (auto& [id, span] : spans) {
    if (span.crossing_id == 0) {
      continue;
    }
    const auto cross = spans.find(span.crossing_id);
    if (cross == spans.end()) {
      continue;
    }
    for (const SpanEvent& e : cross->second.events) {
      if (e.phase == SpanPhase::kFlush || e.phase == SpanPhase::kVmfunc ||
          e.phase == SpanPhase::kReturn) {
        SpanEvent copy = e;
        copy.inherited = true;
        span.events.push_back(copy);
      }
    }
    std::sort(span.events.begin(), span.events.end(),
              [](const SpanEvent& a, const SpanEvent& b) { return a.seq < b.seq; });
  }

  std::vector<CallSpan> out;
  out.reserve(spans.size());
  for (auto& [id, span] : spans) {
    out.push_back(std::move(span));
  }
  return out;
}

std::vector<TraceRecord> ParseChromeTrace(std::string_view json) {
  std::vector<TraceRecord> out;
  if (json.empty() || json[0] != '[') {
    return out;
  }
  // The exporter writes one event object per line (records joined by ",\n");
  // walk the lines and pull each field with a flat scan — no general JSON
  // machinery for a format we emit ourselves.
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string_view::npos) {
      end = json.size();
    }
    std::string_view line = json.substr(start, end - start);
    start = end + 1;
    const size_t name_pos = line.find("\"event\":\"");
    if (name_pos == std::string_view::npos) {
      continue;
    }
    const size_t name_begin = name_pos + 9;
    const size_t name_end = line.find('"', name_begin);
    if (name_end == std::string_view::npos) {
      continue;
    }
    const std::optional<TraceEventType> type =
        TypeFromName(line.substr(name_begin, name_end - name_begin));
    const std::optional<uint64_t> ts = FindU64(line, "\"ts\":");
    const std::optional<uint64_t> tid = FindU64(line, "\"tid\":");
    const std::optional<uint64_t> seq = FindU64(line, "\"seq\":");
    const std::optional<uint64_t> arg0 = FindU64(line, "\"arg0\":");
    const std::optional<uint64_t> arg1 = FindU64(line, "\"arg1\":");
    if (!type.has_value() || !ts.has_value() || !seq.has_value()) {
      continue;
    }
    TraceRecord rec;
    rec.type = *type;
    rec.cycles = *ts;
    rec.core = static_cast<uint32_t>(tid.value_or(0));
    rec.seq = *seq;
    rec.arg0 = arg0.value_or(0);
    rec.arg1 = arg1.value_or(0);
    out.push_back(rec);
  }
  return out;
}

}  // namespace sb::telemetry
