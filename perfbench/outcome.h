// Simulated outcomes of one repetition of each workload, the correctness
// checks over them, and their digests.
//
// A failed check fails the run; it is never recorded as a slow run. The
// digest folds only simulated outcomes: counts, sim-time sums and maxima,
// and end times. It leaves out the kernel's executed-event count, so a
// change that only makes the library faster (for example by scheduling
// fewer events for the same model) keeps it, and a change that alters the
// simulated model does not. On the default seed at full
// size the digest is pinned here as well.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct IngestOutcome {
  std::int64_t items_submitted = 0;
  std::int64_t items_ok = 0;
  // Distinct dataset ids among the successful ingest reports.
  std::int64_t datasets_unique = 0;
  // Datasets in the catalogue after the run.
  std::int64_t catalogue_datasets = 0;
  std::int64_t reads_issued = 0;
  std::int64_t reads_completed = 0;
  std::int64_t reads_ok = 0;
  std::int64_t migrations_requested = 0;
  std::int64_t migrations_ok = 0;
  std::int64_t climate_items = 0;
  // Climate datasets whose logical path resolves to the archive backend.
  std::int64_t climate_on_archive = 0;
  std::int64_t tape_stages = 0;
  std::int64_t ingest_latency_sum_ns = 0;
  std::int64_t read_latency_sum_ns = 0;
  std::int64_t read_latency_max_ns = 0;
  std::int64_t end_ns = 0;
};

struct FederationOutcome {
  std::int64_t datasets = 0;
  // Placements the resolver scheduled, and those that completed.
  std::int64_t scheduled = 0;
  std::int64_t replicated = 0;
  // Replica entries dropped by site faults. The library counts queued and
  // in-flight entries here as well as complete replicas, so under a backlog
  // `replicated` < 3 x datasets + lost while `scheduled` still equals it.
  std::int64_t lost = 0;
  // Complete replicas held after the drain, over all datasets.
  std::int64_t complete_replicas = 0;
  std::int64_t failed = 0;  // transfers that ran out of retries
  std::int64_t retries = 0;
  // (dataset, rule) pairs not satisfied after the drain.
  std::int64_t unsatisfied = 0;
  std::int64_t queries = 0;
  std::int64_t query_results = 0;
  std::int64_t drain_end_ns = 0;
};

struct AnalysisOutcome {
  std::int64_t jobs = 0;
  std::int64_t jobs_ok = 0;
  // Jobs whose map task count differs from their input block count.
  std::int64_t map_task_mismatches = 0;
  std::int64_t map_tasks = 0;
  std::int64_t speculative_launched = 0;
  std::int64_t job_duration_sum_ns = 0;
  std::int64_t block_reads = 0;
  std::int64_t block_reads_ok = 0;
  std::int64_t block_read_sum_ns = 0;
  std::int64_t reads = 0;       // sequencing reads counted by the real job
  std::int64_t read_length = 0;
  std::int64_t k = 0;
  std::int64_t kmer_total = 0;  // sum of all counts
  std::int64_t distinct_kmers = 0;
  // Whether the k-mer table equals the single-thread reference count.
  bool matches_reference = false;
};

// Failed checks, each as "<check>: <detail>"; empty when all pass.
[[nodiscard]] std::vector<std::string> check(const IngestOutcome& outcome);
[[nodiscard]] std::vector<std::string> check(const FederationOutcome& outcome);
[[nodiscard]] std::vector<std::string> check(const AnalysisOutcome& outcome);

[[nodiscard]] std::uint64_t digest(const IngestOutcome& outcome);
[[nodiscard]] std::uint64_t digest(const FederationOutcome& outcome);
[[nodiscard]] std::uint64_t digest(const AnalysisOutcome& outcome);

// The pinned digest of `workload` on kDefaultSeed at full size, if any.
[[nodiscard]] std::optional<std::uint64_t> pinned_digest(
    std::string_view workload);

// Checks of the checks: valid outcomes pass, each doctored one trips its
// check. Returns the failures (empty = every check works).
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace perfbench
