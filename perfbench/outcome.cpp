#include "outcome.h"

#include <functional>

#include "harness.h"

namespace perfbench {

namespace {

void expect(std::vector<std::string>& failures, bool ok, const char* check,
            const std::string& detail) {
  if (!ok) failures.push_back(std::string(check) + ": " + detail);
}

std::string pair_text(std::int64_t a, std::int64_t b) {
  return std::to_string(a) + " vs " + std::to_string(b);
}

}  // namespace

std::vector<std::string> check(const IngestOutcome& o) {
  std::vector<std::string> failures;
  expect(failures,
         o.items_submitted > 0 && o.items_ok == o.items_submitted &&
             o.datasets_unique == o.items_ok &&
             o.catalogue_datasets == o.items_ok,
         "registered_once",
         "submitted/ok/unique/catalogue " + std::to_string(o.items_submitted) +
             "/" + std::to_string(o.items_ok) + "/" +
             std::to_string(o.datasets_unique) + "/" +
             std::to_string(o.catalogue_datasets));
  expect(failures,
         o.reads_issued > 0 && o.reads_completed == o.reads_issued &&
             o.reads_ok == o.reads_issued,
         "reads_complete",
         "issued/completed/ok " + std::to_string(o.reads_issued) + "/" +
             std::to_string(o.reads_completed) + "/" +
             std::to_string(o.reads_ok));
  expect(failures,
         o.climate_items > 0 && o.climate_on_archive == o.climate_items &&
             o.migrations_ok == o.migrations_requested &&
             o.migrations_requested == o.climate_items,
         "climate_archived",
         "climate/on-archive/migrations requested/ok " +
             std::to_string(o.climate_items) + "/" +
             std::to_string(o.climate_on_archive) + "/" +
             std::to_string(o.migrations_requested) + "/" +
             std::to_string(o.migrations_ok));
  return failures;
}

std::vector<std::string> check(const FederationOutcome& o) {
  std::vector<std::string> failures;
  expect(failures,
         o.datasets > 0 && o.scheduled == 3 * o.datasets + o.lost &&
             o.complete_replicas == 3 * o.datasets,
         "replicas_placed",
         "placed vs 3 x datasets + lost: " +
             pair_text(o.scheduled, 3 * o.datasets + o.lost) +
             "; complete replicas vs 3 x datasets: " +
             pair_text(o.complete_replicas, 3 * o.datasets));
  expect(failures, o.failed == 0, "no_retry_exhausted",
         std::to_string(o.failed) + " transfers ran out of retries");
  expect(failures, o.unsatisfied == 0, "rules_satisfied",
         std::to_string(o.unsatisfied) +
             " (dataset, rule) pairs unsatisfied after drain");
  expect(failures, o.queries > 0, "queries_answered", "no query ran");
  return failures;
}

std::vector<std::string> check(const AnalysisOutcome& o) {
  std::vector<std::string> failures;
  expect(failures,
         o.jobs > 0 && o.jobs_ok == o.jobs && o.map_task_mismatches == 0,
         "jobs_complete",
         "jobs/ok/map-task mismatches " + std::to_string(o.jobs) + "/" +
             std::to_string(o.jobs_ok) + "/" +
             std::to_string(o.map_task_mismatches));
  expect(failures, o.block_reads > 0 && o.block_reads_ok == o.block_reads,
         "block_reads_ok", pair_text(o.block_reads_ok, o.block_reads));
  const std::int64_t expected_kmers = o.reads * (o.read_length - o.k + 1);
  expect(failures, o.reads > 0 && o.kmer_total == expected_kmers,
         "kmer_total",
         "counted vs reads x (L - k + 1): " +
             pair_text(o.kmer_total, expected_kmers));
  expect(failures, o.matches_reference, "kmer_reference",
         "k-mer table differs from the single-thread reference count");
  return failures;
}

std::uint64_t digest(const IngestOutcome& o) {
  Digest d;
  for (const std::int64_t v :
       {o.items_submitted, o.items_ok, o.datasets_unique, o.catalogue_datasets,
        o.reads_issued, o.reads_completed, o.reads_ok, o.migrations_requested,
        o.migrations_ok, o.climate_items, o.climate_on_archive, o.tape_stages,
        o.ingest_latency_sum_ns, o.read_latency_sum_ns,
        o.read_latency_max_ns, o.end_ns}) {
    d.add(v);
  }
  return d.value();
}

std::uint64_t digest(const FederationOutcome& o) {
  Digest d;
  for (const std::int64_t v :
       {o.datasets, o.scheduled, o.replicated, o.lost, o.complete_replicas,
        o.failed, o.retries,
        o.unsatisfied, o.queries, o.query_results, o.drain_end_ns}) {
    d.add(v);
  }
  return d.value();
}

std::uint64_t digest(const AnalysisOutcome& o) {
  Digest d;
  for (const std::int64_t v :
       {o.jobs, o.jobs_ok, o.map_task_mismatches, o.map_tasks,
        o.speculative_launched, o.job_duration_sum_ns, o.block_reads,
        o.block_reads_ok, o.block_read_sum_ns, o.reads, o.read_length, o.k,
        o.kmer_total, o.distinct_kmers,
        static_cast<std::int64_t>(o.matches_reference)}) {
    d.add(v);
  }
  return d.value();
}

std::optional<std::uint64_t> pinned_digest(std::string_view workload) {
  // Regenerate with `run.py --workload <name> --seed 1` after a change
  // that is meant to alter the simulated model; the run prints the digest
  // ("# outcome digest").
  if (workload == "ingest_archive") return 0x18acfd32edf2ca76ULL;
  if (workload == "federation_day") return 0xab43c70c4fb4a215ULL;
  if (workload == "analysis_cluster") return 0xf00e33191cd76e46ULL;
  return std::nullopt;
}

// ---------------------------------------------------------------------------

namespace {

template <typename Outcome>
void expect_trips(std::vector<std::string>& failures, const Outcome& valid,
                  const char* check_name,
                  const std::function<void(Outcome&)>& doctor) {
  Outcome doctored = valid;
  doctor(doctored);
  for (const std::string& failure : check(doctored)) {
    if (failure.rfind(std::string(check_name) + ":", 0) == 0) return;
  }
  failures.push_back(std::string("doctored outcome did not trip ") +
                     check_name);
}

template <typename Outcome>
void expect_passes(std::vector<std::string>& failures, const Outcome& valid,
                   const char* what) {
  for (const std::string& failure : check(valid)) {
    failures.push_back(std::string(what) + " valid outcome failed " +
                       failure);
  }
}

}  // namespace

std::vector<std::string> self_test() {
  std::vector<std::string> failures;

  IngestOutcome ingest;
  ingest.items_submitted = ingest.items_ok = ingest.datasets_unique =
      ingest.catalogue_datasets = 100;
  ingest.reads_issued = ingest.reads_completed = ingest.reads_ok = 50;
  ingest.climate_items = ingest.climate_on_archive =
      ingest.migrations_requested = ingest.migrations_ok = 10;
  expect_passes(failures, ingest, "ingest_archive");
  using I = IngestOutcome;
  expect_trips<I>(failures, ingest, "registered_once",
                  [](I& o) { o.datasets_unique -= 1; });
  expect_trips<I>(failures, ingest, "registered_once",
                  [](I& o) { o.catalogue_datasets += 1; });
  expect_trips<I>(failures, ingest, "registered_once",
                  [](I& o) { o.items_ok -= 1; });
  expect_trips<I>(failures, ingest, "reads_complete",
                  [](I& o) { o.reads_completed -= 1; });
  expect_trips<I>(failures, ingest, "reads_complete",
                  [](I& o) { o.reads_ok -= 1; });
  expect_trips<I>(failures, ingest, "climate_archived",
                  [](I& o) { o.climate_on_archive -= 1; });
  expect_trips<I>(failures, ingest, "climate_archived",
                  [](I& o) { o.migrations_ok -= 1; });

  FederationOutcome fed;
  fed.datasets = 100;
  fed.lost = 7;
  fed.scheduled = 307;
  fed.replicated = 305;
  fed.complete_replicas = 300;
  fed.queries = 5;
  expect_passes(failures, fed, "federation_day");
  using F = FederationOutcome;
  expect_trips<F>(failures, fed, "replicas_placed",
                  [](F& o) { o.scheduled -= 1; });
  expect_trips<F>(failures, fed, "replicas_placed",
                  [](F& o) { o.complete_replicas -= 1; });
  expect_trips<F>(failures, fed, "replicas_placed",
                  [](F& o) { o.lost += 1; });
  expect_trips<F>(failures, fed, "no_retry_exhausted",
                  [](F& o) { o.failed = 1; });
  expect_trips<F>(failures, fed, "rules_satisfied",
                  [](F& o) { o.unsatisfied = 1; });

  AnalysisOutcome analysis;
  analysis.jobs = analysis.jobs_ok = 2;
  analysis.block_reads = analysis.block_reads_ok = 20;
  analysis.reads = 1000;
  analysis.read_length = 150;
  analysis.k = 15;
  analysis.kmer_total = 136000;
  analysis.matches_reference = true;
  expect_passes(failures, analysis, "analysis_cluster");
  using A = AnalysisOutcome;
  expect_trips<A>(failures, analysis, "jobs_complete",
                  [](A& o) { o.jobs_ok -= 1; });
  expect_trips<A>(failures, analysis, "jobs_complete",
                  [](A& o) { o.map_task_mismatches = 1; });
  expect_trips<A>(failures, analysis, "block_reads_ok",
                  [](A& o) { o.block_reads_ok -= 1; });
  expect_trips<A>(failures, analysis, "kmer_total",
                  [](A& o) { o.kmer_total -= 1; });
  expect_trips<A>(failures, analysis, "kmer_reference",
                  [](A& o) { o.matches_reference = false; });

  // The digest must see every field it is meant to pin.
  IngestOutcome moved = ingest;
  moved.read_latency_sum_ns += 1;
  if (digest(moved) == digest(ingest)) {
    failures.push_back("ingest digest ignores a sim-time statistic");
  }
  FederationOutcome moved_fed = fed;
  moved_fed.drain_end_ns += 1;
  if (digest(moved_fed) == digest(fed)) {
    failures.push_back("federation digest ignores the drain time");
  }
  AnalysisOutcome moved_analysis = analysis;
  moved_analysis.job_duration_sum_ns += 1;
  if (digest(moved_analysis) == digest(analysis)) {
    failures.push_back("analysis digest ignores job durations");
  }
  return failures;
}

}  // namespace perfbench
