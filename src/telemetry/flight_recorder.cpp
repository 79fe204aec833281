#include "telemetry/flight_recorder.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace clflow::telemetry {

std::string SequencedDumpPath(const std::string& path, std::uint64_t seq) {
  if (seq == 0) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const std::string suffix = std::string(".").append(std::to_string(seq));
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;  // no extension: append
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(FlightEvent event) {
  std::lock_guard lock(mu_);
  event.seq = next_seq_++;
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

void FlightRecorder::Note(std::string kind, std::string label,
                          const TraceContext& ctx, std::string detail) {
  FlightEvent ev;
  ev.kind = std::move(kind);
  ev.label = std::move(label);
  ev.trace_id = ctx.trace_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.detail = std::move(detail);
  Record(std::move(ev));
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard lock(mu_);
  return next_seq_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::string FlightRecorder::ToJson() const {
  using obs::JsonEscape;
  using obs::JsonNum;
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\"capacity\":" << capacity_ << ",\"total_recorded\":" << next_seq_
     << ",\"dropped\":" << dropped_ << ",\"events\":[";
  bool first = true;
  for (const FlightEvent& ev : ring_) {
    if (!first) os << ",";
    first = false;
    os << "{\"seq\":" << ev.seq << ",\"kind\":\"" << JsonEscape(ev.kind)
       << "\",\"label\":\"" << JsonEscape(ev.label)
       << "\",\"trace_id\":" << ev.trace_id << ",\"span_id\":" << ev.span_id
       << ",\"parent_span_id\":" << ev.parent_span_id
       << ",\"t_us\":" << JsonNum(ev.t_us)
       << ",\"dur_us\":" << JsonNum(ev.dur_us) << ",\"queue\":" << ev.queue
       << ",\"detail\":\"" << JsonEscape(ev.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << ToJson() << "\n";
  return static_cast<bool>(out);
}

void FlightRecorder::Clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  next_seq_ = 0;
  dropped_ = 0;
}

}  // namespace clflow::telemetry
