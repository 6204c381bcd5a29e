//! Sampler: periodic sim-time sampling into TimeSeries — the one monitoring
//! mechanism behind the operations view ("infrastructure and storage
//! services up and running", slide 15) and the benches' link-utilisation
//! series. It answers "what did this gauge read at sim time t".
//!
//! Two sources feed it:
//!  * watch(prefix): every registry counter and gauge whose name starts with
//!    `prefix`, one series per (name, labels), keyed `name{k="v",...}` as in
//!    a Prometheus scrape. Label sets registered after start() show up from
//!    the next sample on.
//!  * watch(name, probe): a value the registry does not hold (e.g. a link's
//!    allocated bandwidth), read by calling `probe()`.
#pragma once

#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/require.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::sim {

class Sampler {
 public:
  Sampler(Simulator& simulator, SimDuration period,
          const obs::MetricsRegistry& registry =
              obs::MetricsRegistry::global());

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Sample every registry counter and gauge named `prefix...`.
  void watch(const std::string& prefix);

  // Sample `probe()` (any callable returning double) into series `name`.
  // Probe names share the key space with registry series: pick one that no
  // watched prefix covers.
  template <typename Probe>
    requires std::is_invocable_r_v<double, Probe&>
  void watch(const std::string& name, Probe probe) {
    const auto [it, added] = series_.try_emplace(name);
    LSDF_REQUIRE(added, "sampler series " + name + " already exists");
    probes_.emplace_back(
        [this, series = &it->second, probe = std::move(probe)]() mutable {
          series->record(simulator_.now(), probe());
        });
  }

  // One sample now, then one every period from now + 1 ns. E2's and E11's
  // event counts and fingerprints depend on this exact schedule.
  void start();
  void stop();
  // Take one sample immediately (also usable without start()).
  void sample();

  // The series under `key` (a probe name, or `name{labels}` of a registry
  // instrument). A key never sampled is a contract violation.
  [[nodiscard]] const TimeSeries& series(const std::string& key) const;

  // Every series as CSV (time_s, metric, value) for offline plotting.
  [[nodiscard]] std::string to_csv() const;

 private:
  Simulator& simulator_;
  const obs::MetricsRegistry& registry_;
  PeriodicTask task_;
  std::vector<std::string> prefixes_;
  // One recorder per probe, bound to its series (std::map nodes are stable).
  std::vector<InlineCallback> probes_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace lsdf::sim
