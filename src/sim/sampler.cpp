#include "sim/sampler.h"

#include <algorithm>
#include <sstream>

namespace lsdf::sim {

Sampler::Sampler(Simulator& simulator, SimDuration period,
                 const obs::MetricsRegistry& registry)
    : simulator_(simulator),
      registry_(registry),
      task_(simulator, period, [this] { sample(); }) {}

void Sampler::watch(const std::string& prefix) {
  prefixes_.push_back(prefix);
}

void Sampler::start() {
  sample();
  task_.start_at(simulator_.now() + 1_ns);
}

void Sampler::stop() { task_.stop(); }

void Sampler::sample() {
  const SimTime now = simulator_.now();
  // A probe-only sampler never reads the registry, so it takes no registry
  // lock (the lock counters a bench reports stay as they were).
  if (!prefixes_.empty()) {
    for (const obs::InstrumentSnapshot& snap : registry_.snapshot()) {
      if (snap.kind == obs::InstrumentKind::kHdrHistogram) continue;
      const bool watched = std::any_of(
          prefixes_.begin(), prefixes_.end(),
          [&snap](const std::string& prefix) {
            return snap.name.starts_with(prefix);
          });
      if (watched) {
        series_[snap.name + obs::format_labels(snap.labels)].record(
            now, snap.value);
      }
    }
  }
  for (InlineCallback& probe : probes_) probe();
}

const TimeSeries& Sampler::series(const std::string& key) const {
  const auto it = series_.find(key);
  LSDF_REQUIRE(it != series_.end(), "no sampled series " + key);
  return it->second;
}

std::string Sampler::to_csv() const {
  std::ostringstream out;
  out << "time_s,metric,value\n";
  for (const auto& [key, series] : series_) {
    // Label sets carry quotes and commas: quote the field (RFC 4180).
    std::string metric = key;
    if (key.find_first_of(",\"") != std::string::npos) {
      metric = "\"";
      for (const char c : key) {
        metric += c;
        if (c == '"') metric += '"';
      }
      metric += '"';
    }
    for (const auto& point : series.points()) {
      out << point.time.seconds() << "," << metric << "," << point.value
          << "\n";
    }
  }
  return out.str();
}

}  // namespace lsdf::sim
