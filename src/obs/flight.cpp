#include "obs/flight.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace p4ce::obs {

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::enable(std::size_t max_captures, std::size_t frame_window,
                            Duration min_gap) {
  max_captures_ = std::max<std::size_t>(max_captures, 1);
  frame_window_ = std::max<std::size_t>(frame_window, 1);
  min_gap_ = min_gap;
  g_enabled_ = true;
}

void FlightRecorder::reset() {
  dropped_ = 0;
  last_by_kind_.clear();
  captures_.clear();
}

bool FlightRecorder::trigger(const char* kind, SimTime at, const char* detail_name, u64 detail) {
  if (!g_enabled_) return false;
  const auto last = last_by_kind_.find(kind);
  // `at < last` means a fresh cluster restarted the simulated clock; treat
  // that as a new timeline rather than suppressing its first fault.
  if (last != last_by_kind_.end() && at >= last->second && at - last->second < min_gap_) {
    ++dropped_;
    return false;
  }
  last_by_kind_[kind] = at;
  if (captures_.size() >= max_captures_) {
    ++dropped_;
    return false;
  }

  Capture capture;
  capture.kind = kind;
  capture.at = at;
  if (detail_name != nullptr) capture.detail_name = detail_name;
  capture.detail = detail;
  capture.series = Sampler::global().series_names();
  capture.frames = Sampler::global().last_frames(frame_window_);
  for (const auto& round : Tracer::global().active_rounds()) {
    capture.rounds.push_back(RoundInFlight{round.key, round.start});
  }
  captures_.push_back(std::move(capture));
  return true;
}

std::string FlightRecorder::to_json() const {
  std::string out = "{\n\"schema\": \"p4ce-flight-v1\",\n\"dropped\": ";
  append_json_number(out, static_cast<double>(dropped_));
  out += ",\n\"captures\": [";
  for (std::size_t c = 0; c < captures_.size(); ++c) {
    const Capture& capture = captures_[c];
    out += c == 0 ? "\n{\n  \"kind\": " : ",\n{\n  \"kind\": ";
    append_json_escaped(out, capture.kind);
    out += ",\n  \"at_ns\": ";
    append_json_number(out, static_cast<double>(capture.at));
    if (!capture.detail_name.empty()) {
      out += ",\n  ";
      append_json_escaped(out, capture.detail_name);
      out += ": ";
      append_json_number(out, static_cast<double>(capture.detail));
    }
    out += ",\n  \"rounds_in_flight\": [";
    for (std::size_t r = 0; r < capture.rounds.size(); ++r) {
      if (r != 0) out += ", ";
      out += "{\"domain\": ";
      append_json_number(out, trace_domain(capture.rounds[r].key));
      out += ", \"instance\": ";
      append_json_number(out, static_cast<double>(trace_op(capture.rounds[r].key)));
      out += ", \"start_ns\": ";
      append_json_number(out, static_cast<double>(capture.rounds[r].start));
      out += "}";
    }
    out += "],\n  ";
    Sampler::append_frames_json(out, capture.series, capture.frames);
    out += "\n}";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace p4ce::obs
