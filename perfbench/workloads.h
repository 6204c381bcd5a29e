// The benchmark's workloads. Each call runs one repetition: it generates
// its inputs from the seed, builds a fresh world through the public API
// (timed as set-up), runs the fixed sim-time scenario (timed as sim), checks
// the outcome and reports per-layer figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct WorkloadOptions {
  std::uint64_t seed = 1;
  // Small sizes for the benchmark's own tests; never used for measurement.
  bool smoke = false;
  // Record spans and time the real job's functors (traced repetitions).
  bool traced = false;
};

struct RepResult {
  double setup_s = 0.0;  // host seconds to build the world
  // Host seconds of the simulated scenario, run slice by run slice. Every
  // repetition of a run replays the same simulation, so slice i is the same
  // work in each.
  std::vector<double> sim_slices_s;
  // Host latency of each user-facing call, in call order, microseconds.
  Samples op_us;
  // Megabytes of workload data handled by the throughput phase, and that
  // phase's host seconds slice by slice (empty: the simulated scenario).
  double throughput_mb = 0.0;
  std::vector<double> throughput_slices_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // failed correctness checks
  std::uint64_t digest = 0;
  Report layers;                      // per-layer figures (see main.cpp)

  [[nodiscard]] double sim_s() const;
  // Closes the slice that began at `start`.
  void end_slice(Clock::time_point start);
};

using WorkloadFn = RepResult (*)(const WorkloadOptions&, SpanRecorder&);

RepResult run_ingest_archive(const WorkloadOptions& options,
                             SpanRecorder& spans);
RepResult run_federation_day(const WorkloadOptions& options,
                             SpanRecorder& spans);
RepResult run_analysis_cluster(const WorkloadOptions& options,
                               SpanRecorder& spans);

}  // namespace perfbench
