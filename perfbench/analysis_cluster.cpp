// analysis_cluster: the slide-13 analysis cluster. Set-up stages the
// inputs into HDFS through ADAL; the timed phase runs a closed-loop stream
// of simulated JobTracker jobs on a cluster with stragglers (so speculation
// fires), then cold and warm DfsCluster::read_block passes through the
// sized block cache, then a real LocalRunner 15-mer count on an
// exec::ThreadPool. The sequencing reads are sampled from a seeded synthetic
// reference, so k-mers are shared and memory stays bounded.
//
// Why: the only workload for mapreduce, dfs and exec, covering both the
// O(M^2) speculation scan of a 15,625-map job and the sort-based shuffle of
// the real engine; the other two workloads are its "no change" side.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/facility.h"
#include "exec/thread_pool.h"
#include "mapreduce/local_runner.h"
#include "outcome.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::int64_t kGB = 1'000'000'000;

struct Input {
  const char* path;  // DFS path (ADAL lsdf://hdfs/<path>)
  std::int64_t bytes;
};

struct JobInput {
  std::size_t input = 0;  // index into Scale::inputs
  double map_mb_per_s = 8.0;
  double output_ratio = 0.02;
  int reduce_tasks = 12;
};

struct Scale {
  // The analysts' inputs, and two slice stacks an interactive viewer pages
  // through (never read by a job, so a first pass over each is cold).
  std::vector<Input> inputs = {{"biomed/volume-stack", 1000 * kGB},
                               {"genomics/run-17", 250 * kGB},
                               {"viewer/stack-a", 64 * kGB},
                               {"viewer/stack-b", 64 * kGB}};
  // The viewer's passes: stack a cold, stack b cold, stack b warm. Cold
  // reads are the median call, so op_p50_us sits inside one population.
  std::vector<std::size_t> viewer_passes = {2, 3, 3};
  int jobs = 2;
  std::int64_t block_cache_bytes = 64 * kGB;
  std::size_t sequencing_reads = 100'000;
};

constexpr std::size_t kReadLength = 150;
constexpr std::size_t kK = 15;
constexpr std::size_t kReferenceBases = 1 << 16;

using Kmer = std::uint64_t;
using Count = std::uint32_t;
using Runner = lsdf::mapreduce::LocalRunner<std::string, Kmer, Count>;
using KmerTable = std::vector<std::pair<Kmer, Count>>;

struct Inputs {
  std::vector<JobInput> jobs;
  std::vector<std::string> reads;
};

Inputs generate(std::uint64_t seed, const Scale& scale) {
  Inputs inputs;
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + 0xa11);
  // The stream is the 1 TB render (15,625 maps), then jobs over the 250 GB
  // run, so every seed sizes the same work; the seed shapes the jobs within
  // narrow ranges.
  for (int j = 0; j < scale.jobs; ++j) {
    JobInput job;
    job.input = j == 0 ? 0 : 1;
    job.map_mb_per_s = 7.0 + 2.0 * rng.unit();
    job.output_ratio = 0.02 + 0.02 * rng.unit();
    job.reduce_tasks = 10 + static_cast<int>(rng.below(5));
    inputs.jobs.push_back(job);
  }
  static constexpr char kBases[] = {'A', 'C', 'G', 'T'};
  std::string reference(kReferenceBases, 'A');
  for (char& base : reference) base = kBases[rng.below(4)];
  inputs.reads.reserve(scale.sequencing_reads);
  for (std::size_t r = 0; r < scale.sequencing_reads; ++r) {
    const std::size_t at = rng.below(kReferenceBases - kReadLength);
    std::string read = reference.substr(at, kReadLength);
    for (char& base : read) {
      if (rng.unit() < 0.001) base = kBases[rng.below(4)];  // read error
    }
    inputs.reads.push_back(std::move(read));
  }
  return inputs;
}

// 2-bit-packed 15-mers of one read, in order.
template <typename Emit>
void for_each_kmer(const std::string& read, Emit&& emit) {
  constexpr Kmer mask = (Kmer{1} << (2 * kK)) - 1;
  Kmer packed = 0;
  for (std::size_t i = 0; i < read.size(); ++i) {
    packed = ((packed << 2) | static_cast<Kmer>((read[i] >> 1) & 3)) & mask;
    if (i + 1 >= kK) emit(packed);
  }
}

// The single-thread reference the real engine's table must equal.
KmerTable reference_count(const std::vector<std::string>& reads) {
  std::unordered_map<Kmer, Count> counts;
  for (const std::string& read : reads) {
    for_each_kmer(read, [&counts](Kmer kmer) { ++counts[kmer]; });
  }
  KmerTable table(counts.begin(), counts.end());
  std::sort(table.begin(), table.end());
  return table;
}

// Host nanoseconds spent inside the benchmark's functors, summed over the
// pool threads (traced repetitions only).
struct FunctorTime {
  std::atomic<std::int64_t> map_ns{0};
  std::atomic<std::int64_t> reduce_ns{0};
};

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

Count sum_counts(std::span<const Count> values) {
  Count total = 0;
  for (const Count v : values) total += v;
  return total;
}

}  // namespace

RepResult run_analysis_cluster(const WorkloadOptions& options,
                               SpanRecorder& spans) {
  Scale scale;
  if (options.smoke) {
    scale.inputs = {{"biomed/volume-stack", 40 * kGB},
                    {"genomics/run-17", 10 * kGB},
                    {"viewer/stack-a", 4 * kGB},
                    {"viewer/stack-b", 4 * kGB}};
    scale.jobs = 2;
    scale.block_cache_bytes = 8 * kGB;
    scale.sequencing_reads = 5'000;
  }
  RepResult result;
  AnalysisOutcome outcome;
  SpanRecorder::Scope workload_span(spans, Layer::kBench, "analysis_cluster");

  // --- Set-up: inputs, the facility, HDFS staging, the thread pool. --------
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<lsdf::core::Facility> facility;
  std::unique_ptr<lsdf::exec::ThreadPool> pool;
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "setup");
    inputs = std::make_unique<Inputs>(generate(options.seed, scale));
    lsdf::core::FacilityConfig config;  // the paper's 60-node cluster
    config.dfs.datanode_capacity = lsdf::Bytes(2000 * kGB);
    config.dfs.block_cache.capacity = lsdf::Bytes(scale.block_cache_bytes);
    config.tracker.straggler_fraction = 0.1;
    facility = std::make_unique<lsdf::core::Facility>(config);
    for (const Input& input : scale.inputs) {
      std::optional<lsdf::storage::IoResult> staged;
      SpanRecorder::Scope span(spans, Layer::kAdal, "adal.write");
      facility->adal().write(
          facility->service_credentials(),
          std::string("lsdf://hdfs/") + input.path, lsdf::Bytes(input.bytes),
          [&staged](const lsdf::storage::IoResult& r) { staged = r; });
      facility->simulator().run_while_pending(
          [&staged] { return staged.has_value(); });
      if (!staged->status.is_ok()) {
        result.failures.push_back("setup: staging " + std::string(input.path) +
                                  ": " + staged->status.to_string());
        return result;
      }
    }
    pool = std::make_unique<lsdf::exec::ThreadPool>(
        std::min(4U, lsdf::exec::ThreadPool::default_thread_count()));
  }
  result.setup_s = seconds_since(setup_start);

  lsdf::sim::Simulator& sim = facility->simulator();
  lsdf::dfs::DfsCluster& dfs = facility->dfs();
  const CounterSnapshot before = CounterSnapshot::take();
  const std::uint64_t events_before = sim.executed_events();
  double active_flows_peak = 0.0;
  Samples job_host_s;
  Samples block_us;

  // --- Timed phase 1 (sim): the job stream, then the viewer's passes. -------
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "sim");
    for (std::size_t j = 0; j < inputs->jobs.size(); ++j) {
      const JobInput& job = inputs->jobs[j];
      const Input& input = scale.inputs[job.input];
      lsdf::mapreduce::JobSpec spec;
      spec.name = "job-" + std::to_string(j);
      spec.input_path = input.path;
      spec.map_rate = lsdf::Rate::megabytes_per_second(job.map_mb_per_s);
      spec.map_output_ratio = job.output_ratio;
      spec.reduce_tasks = job.reduce_tasks;
      const auto blocks = dfs.stat(input.path);
      std::optional<lsdf::mapreduce::JobResult> done;
      SpanRecorder::Scope span(spans, Layer::kMapreduce, "mapreduce.job");
      const Clock::time_point start = Clock::now();
      facility->jobs().submit(spec, [&done](const lsdf::mapreduce::JobResult& r) {
        done = r;
      });
      result.end_slice(start);
      // Ten-sim-second slices; the active-flow gauge is sampled between.
      while (!done) {
        SpanRecorder::Scope run_span(spans, Layer::kSim, "sim.run_until");
        const Clock::time_point slice_start = Clock::now();
        sim.run_until(sim.now() + lsdf::SimDuration::from_seconds(10.0));
        result.end_slice(slice_start);
        active_flows_peak = std::max(active_flows_peak, active_flows_now());
      }
      job_host_s.add(seconds_since(start));
      ++outcome.jobs;
      outcome.jobs_ok += done->status.is_ok() ? 1 : 0;
      if (!blocks.is_ok() ||
          static_cast<std::size_t>(done->map_tasks) !=
              blocks.value().blocks.size()) {
        ++outcome.map_task_mismatches;
      }
      outcome.map_tasks += done->map_tasks;
      outcome.speculative_launched += done->speculative_launched;
      outcome.job_duration_sum_ns += done->duration().nanos();
    }

    for (const std::size_t pass : scale.viewer_passes) {
      const auto viewer = dfs.stat(scale.inputs[pass].path);
      for (const lsdf::dfs::BlockId block :
           viewer.is_ok() ? viewer.value().blocks
                          : std::vector<lsdf::dfs::BlockId>{}) {
        std::optional<lsdf::dfs::DfsIoResult> read;
        SpanRecorder::Scope span(spans, Layer::kDfs, "dfs.read_block");
        const Clock::time_point start = Clock::now();
        dfs.read_block(block, facility->headnode(),
                       [&read](const lsdf::dfs::DfsIoResult& r) { read = r; });
        sim.run_while_pending([&read] { return read.has_value(); });
        block_us.add(seconds_since(start) * 1e6);
        result.end_slice(start);
        ++outcome.block_reads;
        if (read->status.is_ok()) {
          ++outcome.block_reads_ok;
          outcome.block_read_sum_ns += read->duration().nanos();
        }
      }
    }
  }
  // Kernel work, reported as sim.events only: it is not an outcome.
  const auto events =
      static_cast<std::int64_t>(sim.executed_events() - events_before);

  // --- Timed phase 2 (real): the k-mer count on the thread pool. ------------
  FunctorTime functors;
  const bool timed = options.traced;
  Runner::ReduceFn reduce = [&functors, timed](const Kmer&,
                                               std::span<const Count> values) {
    if (!timed) return sum_counts(values);
    const Clock::time_point start = Clock::now();
    const Count total = sum_counts(values);
    functors.reduce_ns.fetch_add(ns_since(start), std::memory_order_relaxed);
    return total;
  };
  Runner::MapFn map = [&functors, timed](const std::string& read,
                                         Runner::Emitter& emitter) {
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    for_each_kmer(read, [&emitter](Kmer kmer) { emitter.emit(kmer, 1); });
    if (timed) {
      functors.map_ns.fetch_add(ns_since(start), std::memory_order_relaxed);
    }
  };
  Runner::Options runner_options;
  runner_options.reduce_buckets = pool->thread_count() * 2;
  runner_options.map_chunk = 4096;
  runner_options.combiner = reduce;
  Runner runner(*pool, runner_options);
  KmerTable table;
  double runner_seconds = 0.0;
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "real");
    SpanRecorder::Scope span(spans, Layer::kLocal, "local.run");
    const Clock::time_point start = Clock::now();
    table = runner.run(inputs->reads, map, reduce);
    runner_seconds = seconds_since(start);
    result.throughput_slices_s.push_back(runner_seconds);
  }
  const CounterSnapshot delta = CounterSnapshot::take().minus(before);

  // --- Outcome and checks (untimed). -------------------------------------------
  outcome.reads = static_cast<std::int64_t>(inputs->reads.size());
  outcome.read_length = static_cast<std::int64_t>(kReadLength);
  outcome.k = static_cast<std::int64_t>(kK);
  for (const auto& [kmer, count] : table) outcome.kmer_total += count;
  outcome.distinct_kmers = static_cast<std::int64_t>(table.size());
  // Every repetition of a run counts the same reads; count them once.
  static std::map<std::pair<std::uint64_t, bool>, KmerTable> references;
  const auto key = std::make_pair(options.seed, options.smoke);
  if (!references.contains(key)) {
    references[key] = reference_count(inputs->reads);
  }
  outcome.matches_reference = table == references[key];
  result.failures = check(outcome);
  result.digest = digest(outcome);
  result.attempted = outcome.jobs + outcome.block_reads + 1;
  result.failed = (outcome.jobs - outcome.jobs_ok) +
                  (outcome.block_reads - outcome.block_reads_ok) +
                  (outcome.matches_reference ? 0 : 1);

  result.op_us = block_us;
  result.throughput_mb =
      static_cast<double>(inputs->reads.size() * kReadLength) / 1e6;

  Report& layers = result.layers;
  add_sim_layers(layers, events, result.sim_s());
  layers.add("net.active_flows_peak", active_flows_peak, "count");
  layers.add_quantiles("dfs.read_block_us", block_us, "us");
  layers.add("mapreduce.job_host_s",
             job_host_s.sum() / static_cast<double>(job_host_s.size()), "s");
  const double map_s = static_cast<double>(functors.map_ns.load()) * 1e-9;
  const double reduce_s =
      static_cast<double>(functors.reduce_ns.load()) * 1e-9;
  layers.add("local.map_s", map_s, "s");
  layers.add("local.reduce_s", reduce_s, "s");
  layers.add("local.runner_s",
             timed ? runner_seconds - (map_s + reduce_s) / pool->thread_count()
                   : 0.0,
             "s");
  add_counter_layers(layers, delta);
  return result;
}

}  // namespace perfbench
