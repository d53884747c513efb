#include "obs/sampler.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace p4ce::obs {

Sampler& Sampler::global() {
  static Sampler sampler;
  return sampler;
}

void Sampler::enable(Duration period, std::size_t capacity) {
  period_ = std::max<Duration>(period, 1);
  capacity_ = std::max<std::size_t>(capacity, 1);
  ring_.clear();
  g_enabled_ = true;
}

void Sampler::reset() {
  ring_.clear();
  names_.clear();
  index_.clear();
  epoch_ = 0;
}

std::size_t Sampler::column_for(const std::string& name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const std::size_t column = names_.size();
  names_.push_back(name);
  index_.emplace(name, column);
  return column;
}

void Sampler::tick(SimTime now) {
  if (!g_enabled_) return;
  const MetricsRegistry::Snapshot snapshot = MetricsRegistry::global().snapshot();
  Frame frame;
  frame.at = now;
  frame.epoch = epoch_;
  // Columns are append-only across the run, so a frame is a prefix-aligned
  // row: any series that existed when it was taken lands at its column, and
  // columns born later are simply absent (padded with null on export).
  for (const auto& series : snapshot.series) {
    const std::size_t column = column_for(series.name);
    if (frame.values.size() <= column) frame.values.resize(column + 1, 0.0);
    switch (series.kind) {
      case MetricsRegistry::Series::Kind::kCounter:
        frame.values[column] = static_cast<double>(series.count);
        break;
      case MetricsRegistry::Series::Kind::kGauge:
        frame.values[column] = series.value;
        break;
      case MetricsRegistry::Series::Kind::kHistogram:
        frame.values[column] = static_cast<double>(series.count);
        break;
    }
  }
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(std::move(frame));
}

std::vector<Sampler::Frame> Sampler::frames() const {
  return std::vector<Frame>(ring_.begin(), ring_.end());
}

std::vector<Sampler::Frame> Sampler::last_frames(std::size_t n) const {
  const std::size_t take = std::min(n, ring_.size());
  return std::vector<Frame>(ring_.end() - static_cast<std::ptrdiff_t>(take), ring_.end());
}

void Sampler::append_frames_json(std::string& out, const std::vector<std::string>& names,
                                 const std::vector<Frame>& frames) {
  out += "\"series\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ", ";
    append_json_escaped(out, names[i]);
  }
  out += "],\n  \"frames\": [";
  for (std::size_t f = 0; f < frames.size(); ++f) {
    out += f == 0 ? "\n    [" : ",\n    [";
    append_json_number(out, static_cast<double>(frames[f].at));
    out += ", ";
    append_json_number(out, frames[f].epoch);
    for (std::size_t c = 0; c < names.size(); ++c) {
      out += ", ";
      if (c < frames[f].values.size()) {
        append_json_number(out, frames[f].values[c]);
      } else {
        out += "null";
      }
    }
    out += "]";
  }
  out += "\n  ]";
}

std::string Sampler::to_json() const {
  std::string out = "{\n  \"schema\": \"p4ce-series-v1\",\n  \"period_ns\": ";
  append_json_number(out, static_cast<double>(period_));
  out += ",\n  ";
  append_frames_json(out, series_names(), frames());
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// SamplerDriver
// ---------------------------------------------------------------------------

SamplerDriver::SamplerDriver(sim::Simulator& sim) : sim_(sim) {
  Sampler::global().begin_epoch();
  arm();
}

SamplerDriver::~SamplerDriver() { handle_.cancel(); }

void SamplerDriver::arm() {
  handle_ = sim_.schedule(Sampler::global().period(), [this] {
    if (!Sampler::is_enabled()) return;  // disabled mid-run: stop rearming
    Sampler::global().tick(sim_.now());
    arm();
  });
}

}  // namespace p4ce::obs
