// ingest_archive: the slide-7 facility at paper scale. The E2 community mix
// (HTM, KATRIN, climate, ANKA) ingests for months with items six times finer
// than E2's hourly bundles; the climate-archival rule migrates every climate
// dataset through Adal::migrate to the HSM/tape tier while a reader
// population issues Adal::read calls for earlier datasets (pool hits, tape
// recalls, hsm-read cache hits and misses).
//
// Why: the only workload that loads ingest, adal, storage (pool, HSM, tape)
// and the HSM cache, with reads beside writes on one storage tier. It is
// many cheap sim events with few concurrent backbone flows: the sim-kernel
// workload, and the "no change" side for net and fed.
#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/facility.h"
#include "outcome.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Scale {
  double days = 270.0;
  double drain_days = 3.0;
  // Assumed: neither the paper nor a recorded trace gives the facility's
  // read traffic. 500 reads a day make the reads a visible share of the
  // run's host time next to the ingest events.
  double reads_per_day = 500.0;
};

// Assumed reader population (unverified, like the read rate): a fifth of
// the reads go to climate data, which sits on tape after migration, so the
// HSM recall path and the hsm-read cache are loaded; the rest read pool
// datasets.
constexpr double kClimateReadShare = 0.2;

struct Community {
  const char* project;
  const char* prefix;
  const char* instrument;
  double items_per_day;
  double mean_bytes;
};

// E2's byte rates; HTM, KATRIN and ANKA items are six times finer than its
// hourly bundles, climate keeps its hourly 20 GB model-output bundles.
constexpr Community kCommunities[] = {
    {"zebrafish-htm", "bundle", "htm-microscope", 144.0, 2e12 / 144.0},
    {"katrin", "run", "katrin-spectrometer", 144.0, 3e9 / 6.0},
    {"climate", "bundle", "climate-model", 24.0, 20e9},
    {"anka", "scan", "anka-beamline", 144.0, 16e6 * 2000.0 / 144.0},
};
constexpr int kClimate = 2;

struct Arrival {
  std::int64_t at_ns = 0;
  int community = 0;
  std::int64_t bytes = 0;
};

struct Read {
  std::int64_t at_ns = 0;
  // Which population the reader draws from, and where in it.
  bool climate = false;
  double pick = 0.0;
};

struct Inputs {
  std::vector<Arrival> arrivals;  // time-ordered
  std::vector<Read> reads;        // time-ordered
};

constexpr double kNsPerDay = 86400e9;

Inputs generate(std::uint64_t seed, const Scale& scale) {
  Inputs inputs;
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1a);
  const double horizon_ns = scale.days * kNsPerDay;
  for (int c = 0; c < 4; ++c) {
    const Community& community = kCommunities[c];
    const double gap_ns = kNsPerDay / community.items_per_day;
    for (double t = rng.exponential(gap_ns); t < horizon_ns;
         t += rng.exponential(gap_ns)) {
      const double bytes = rng.normal(community.mean_bytes,
                                      community.mean_bytes * 0.1, 1e6);
      inputs.arrivals.push_back(Arrival{static_cast<std::int64_t>(t), c,
                                        static_cast<std::int64_t>(bytes)});
    }
  }
  std::stable_sort(inputs.arrivals.begin(), inputs.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at_ns < b.at_ns;
                   });
  const double read_gap_ns = kNsPerDay / scale.reads_per_day;
  for (double t = rng.exponential(read_gap_ns); t < horizon_ns;
       t += rng.exponential(read_gap_ns)) {
    Read read;
    read.at_ns = static_cast<std::int64_t>(t);
    read.climate = rng.unit() < kClimateReadShare;
    read.pick = rng.unit();
    inputs.reads.push_back(read);
  }
  return inputs;
}

// Index into a population of `n` items (assumed access pattern). Pool
// readers favour the newest datasets (a cubic skew). Climate readers split
// evenly between a popular set of the first 64 datasets, so repeat reads hit
// the hsm-read cache after a first tape recall, and the whole archive, so
// other reads miss it and stage from tape.
std::size_t pick_index(const Read& read, std::size_t n) {
  if (!read.climate) {
    const double skewed = read.pick * read.pick * read.pick;
    return n - 1 - std::min(n - 1, static_cast<std::size_t>(skewed * n));
  }
  constexpr std::size_t kPopular = 64;
  if (read.pick < 0.5) {
    return std::min(n - 1, static_cast<std::size_t>(read.pick * 2.0 *
                                                    std::min(n, kPopular)));
  }
  return std::min(n - 1, static_cast<std::size_t>((read.pick - 0.5) * 2.0 *
                                                  static_cast<double>(n)));
}

}  // namespace

RepResult run_ingest_archive(const WorkloadOptions& options,
                             SpanRecorder& spans) {
  Scale scale;
  if (options.smoke) {
    scale.days = 6.0;
    scale.drain_days = 2.0;
  }
  RepResult result;
  IngestOutcome outcome;
  SpanRecorder::Scope workload_span(spans, Layer::kBench, "ingest_archive");

  // --- Set-up: inputs, the facility, its communities and policy. ----------
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<lsdf::core::Facility> facility;
  const lsdf::adal::Credentials reader{"analyst-token"};
  Samples migrate_us;
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "setup");
    inputs = std::make_unique<Inputs>(generate(options.seed, scale));
    lsdf::core::FacilityConfig config;  // paper-scale storage and backbone
    config.cluster.racks = 2;  // the analysis cluster is idle here
    config.cluster.nodes_per_rack = 4;
    config.hsm.migrate_after = lsdf::SimDuration::from_seconds(12 * 3600.0);
    config.hsm.scan_period = lsdf::SimDuration::from_seconds(6 * 3600.0);
    config.hsm.read_cache.capacity = lsdf::Bytes(2'000'000'000'000);
    config.ingest.parallel_slots = 64;
    facility = std::make_unique<lsdf::core::Facility>(config);
    for (const Community& community : kCommunities) {
      if (!facility->metadata().create_project(community.project, {}).is_ok()) {
        result.failures.push_back("setup: cannot create project " +
                                  std::string(community.project));
        return result;
      }
    }
    facility->auth().add_token(reader.token, "analyst");
    facility->auth().grant("analyst", "*", lsdf::adal::Access::kRead);
    // Slide-14 policy through the rule engine: climate data is archival
    // quality and re-homes to the archive tier.
    lsdf::core::Facility* f = facility.get();
    facility->rules().add_rule(lsdf::meta::Rule{
        .name = "climate-archival",
        .on = lsdf::meta::EventKind::kRegistered,
        .where = {lsdf::meta::Predicate{"instrument",
                                        lsdf::meta::CompareOp::kEq,
                                        std::string("climate-model")}},
        .action = [f, &outcome, &spans, &migrate_us](
                      const lsdf::meta::DatasetRecord& record,
                      const lsdf::meta::MetaEvent&) {
          ++outcome.migrations_requested;
          SpanRecorder::Scope span(spans, Layer::kAdal, "adal.migrate");
          const Clock::time_point start = Clock::now();
          f->adal().migrate(f->service_credentials(),
                            record.project + "/" + record.name, "archive",
                            [&outcome](const lsdf::Status& status) {
                              if (status.is_ok()) ++outcome.migrations_ok;
                            });
          migrate_us.add(seconds_since(start) * 1e6);
        }});
  }
  result.setup_s = seconds_since(setup_start);

  // --- Timed phase: the months of operation. --------------------------------
  lsdf::sim::Simulator& sim = facility->simulator();
  lsdf::adal::Adal& adal = facility->adal();
  lsdf::ingest::IngestPipeline& ingest = facility->ingest();
  std::vector<std::string> pool_paths;     // completed, in completion order
  std::vector<std::string> climate_paths;  // completed climate datasets
  std::vector<lsdf::meta::DatasetId> dataset_ids;
  std::vector<int> next_index(4, 0);
  Samples read_us;
  Samples submit_us;
  std::size_t next_arrival = 0;
  std::size_t next_read = 0;

  // One pending submission event and one pending read event at a time; each
  // fires, acts and arms its successor from the pre-generated schedule.
  std::function<void()> submit_next;
  std::function<void()> read_next;
  submit_next = [&] {
    const Arrival& arrival = inputs->arrivals[next_arrival++];
    const Community& community = kCommunities[arrival.community];
    lsdf::ingest::IngestItem item;
    item.project = community.project;
    item.dataset_name = std::string(community.prefix) + "-" +
                        std::to_string(next_index[arrival.community]++);
    item.size = lsdf::Bytes(arrival.bytes);
    item.attributes["instrument"] = std::string(community.instrument);
    item.source = facility->daq_node();
    const bool climate = arrival.community == kClimate;
    outcome.climate_items += climate ? 1 : 0;
    ++outcome.items_submitted;
    const std::string path = item.project + "/" + item.dataset_name;
    {
      SpanRecorder::Scope span(spans, Layer::kIngest, "ingest.submit");
      const Clock::time_point start = Clock::now();
      ingest.submit(std::move(item), [&, path, climate](
                                         const lsdf::ingest::IngestReport& r) {
        if (!r.status.is_ok()) return;
        ++outcome.items_ok;
        outcome.ingest_latency_sum_ns += r.latency().nanos();
        dataset_ids.push_back(r.dataset);
        (climate ? climate_paths : pool_paths).push_back(path);
      });
      submit_us.add(seconds_since(start) * 1e6);
    }
    if (next_arrival < inputs->arrivals.size()) {
      sim.schedule_at(lsdf::SimTime::zero() + lsdf::SimDuration(
                          inputs->arrivals[next_arrival].at_ns),
                      [&] { submit_next(); });
    }
  };
  read_next = [&] {
    const Read& read = inputs->reads[next_read++];
    const std::vector<std::string>& population =
        read.climate ? climate_paths : pool_paths;
    if (!population.empty()) {
      const std::string uri =
          "lsdf://data/" + population[pick_index(read, population.size())];
      ++outcome.reads_issued;
      SpanRecorder::Scope span(spans, Layer::kAdal, "adal.read");
      const Clock::time_point start = Clock::now();
      adal.read(reader, uri, [&outcome](const lsdf::storage::IoResult& r) {
        ++outcome.reads_completed;
        if (!r.status.is_ok()) return;
        ++outcome.reads_ok;
        const std::int64_t ns = r.duration().nanos();
        outcome.read_latency_sum_ns += ns;
        outcome.read_latency_max_ns = std::max(outcome.read_latency_max_ns, ns);
      });
      read_us.add(seconds_since(start) * 1e6);
    }
    if (next_read < inputs->reads.size()) {
      sim.schedule_at(lsdf::SimTime::zero() +
                          lsdf::SimDuration(inputs->reads[next_read].at_ns),
                      [&] { read_next(); });
    }
  };

  const CounterSnapshot before = CounterSnapshot::take();
  const std::uint64_t events_before = sim.executed_events();
  double active_flows_peak = 0.0;
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "sim");
    if (!inputs->arrivals.empty()) {
      sim.schedule_at(lsdf::SimTime::zero() +
                          lsdf::SimDuration(inputs->arrivals.front().at_ns),
                      [&] { submit_next(); });
    }
    if (!inputs->reads.empty()) {
      sim.schedule_at(lsdf::SimTime::zero() +
                          lsdf::SimDuration(inputs->reads.front().at_ns),
                      [&] { read_next(); });
    }
    // Run in one-sim-hour slices; the active-flow gauge is sampled at
    // every slice boundary.
    const auto slices =
        static_cast<std::int64_t>((scale.days + scale.drain_days) * 24.0);
    for (std::int64_t hour = 1; hour <= slices; ++hour) {
      SpanRecorder::Scope span(spans, Layer::kSim, "sim.run_until");
      const Clock::time_point start = Clock::now();
      sim.run_until(lsdf::SimTime::zero() +
                    lsdf::SimDuration::from_seconds(hour * 3600.0));
      result.end_slice(start);
      active_flows_peak = std::max(active_flows_peak, active_flows_now());
    }
  }
  const CounterSnapshot delta = CounterSnapshot::take().minus(before);

  // --- Outcome and checks (untimed). -------------------------------------------
  // Kernel work, reported as sim.events only: it is not an outcome.
  const auto events =
      static_cast<std::int64_t>(sim.executed_events() - events_before);
  outcome.end_ns = sim.now().nanos();
  outcome.datasets_unique = static_cast<std::int64_t>(
      std::set<lsdf::meta::DatasetId>(dataset_ids.begin(), dataset_ids.end())
          .size());
  outcome.catalogue_datasets =
      static_cast<std::int64_t>(facility->metadata().dataset_count());
  for (const std::string& path : climate_paths) {
    const auto backend = adal.resolve(path);
    if (backend.is_ok() && backend.value() == "archive") {
      ++outcome.climate_on_archive;
    }
  }
  outcome.tape_stages = facility->hsm().stats().tape_stages;
  result.failures = check(outcome);
  result.digest = digest(outcome);
  result.attempted = outcome.items_submitted + outcome.reads_issued +
                     outcome.migrations_requested;
  result.failed = (outcome.items_submitted - outcome.items_ok) +
                  (outcome.reads_issued - outcome.reads_ok) +
                  (outcome.migrations_requested - outcome.migrations_ok);

  result.op_us = read_us;
  const double ingested_mb = delta.total("lsdf_ingest_bytes_total") / 1e6;
  result.throughput_mb = ingested_mb;

  Report& layers = result.layers;
  add_sim_layers(layers, events, result.sim_s());
  layers.add("net.active_flows_peak", active_flows_peak, "count");
  layers.add_quantiles("adal.read_us", read_us, "us");
  layers.add_quantiles("adal.migrate_us", migrate_us, "us");
  layers.add_quantiles("ingest.submit_us", submit_us, "us");
  add_counter_layers(layers, delta);
  return result;
}

}  // namespace perfbench
