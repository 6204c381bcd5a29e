// federation_day: E12 scaled to a catalogue of 2.5 x 10^4 datasets. Registrations
// arrive in acquisition bursts; fed::FederationService keeps the disk-pair +
// tape-archive rules over 4 WAN sites through the scripted flaps of
// configs/federation_scenario.conf, with 64 WAN transfers in flight. A
// single closed-loop catalogue client issues MetadataStore::query calls
// (equality, range and tag mix) at a fixed sim-time cadence while the day
// runs.
//
// Why: the workload for fed, meta (reads beside writes on a growing
// catalogue) and net water-filling under many concurrent flows, with
// fault/retry; it barely touches storage, dfs or mapreduce.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "fault/injector.h"
#include "fed/federation.h"
#include "meta/store.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "outcome.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

namespace {

// configs/federation_scenario.conf, embedded so the benchmark's inputs
// change only with the benchmark. One addition: the tape-archive rule
// stamps `archived` on a dataset once its tape copy exists, which the tag
// queries read.
constexpr const char* kScenario = R"(
fed.site.heidelberg  = gateway=hd-gw   class=disk component=wan-hd
fed.site.dkfz        = gateway=dkfz-gw class=disk component=wan-dkfz
fed.site.eml         = gateway=eml-gw  class=disk component=wan-eml
fed.site.gridka-tape = gateway=tape-gw class=tape component=wan-tape
fed.rule.disk-pair    = copies=2 class=disk priority=1
fed.rule.tape-archive = copies=1 class=tape done_tag=archived
fed.quota.zebrafish-htm = 100TB
fault.seed = 20110831
fault.horizon = 36h
fault.schedule.wan-hd   = 8h for 30min repeat 3 every 3h
fault.schedule.wan-dkfz = 20h for 1h
fault.schedule.wan-eml  = 23h for 90min
)";

constexpr const char* kProject = "zebrafish-htm";

struct Scale {
  int datasets = 25'000;
  int burst = 100;            // registrations per acquisition burst
  int window_min = 24 * 60;   // acquisition window
  int horizon_min = 36 * 60;  // then the remaining backlog drains
  double mean_bytes = 200e6;
  int query_every_min = 1;    // the catalogue client's cadence
  int max_concurrent = 64;
};

enum class QueryKind { kEq, kRange, kTag };

struct Dataset {
  std::int64_t bytes = 0;
  double exposure_ms = 0.0;
};

struct QueryInput {
  QueryKind kind = QueryKind::kEq;
  double pick = 0.0;  // plate choice or range start, in [0, 1)
};

struct Inputs {
  std::vector<Dataset> datasets;
  std::vector<std::int64_t> burst_at_ns;  // one per burst, ascending
  std::vector<QueryInput> queries;        // one per query slot
};

Inputs generate(std::uint64_t seed, const Scale& scale) {
  Inputs inputs;
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + 0xfed);
  inputs.datasets.reserve(static_cast<std::size_t>(scale.datasets));
  for (int i = 0; i < scale.datasets; ++i) {
    Dataset dataset;
    dataset.bytes = static_cast<std::int64_t>(
        rng.normal(scale.mean_bytes, scale.mean_bytes * 0.2, 1e6));
    dataset.exposure_ms = 1.0 + 99.0 * rng.unit();
    inputs.datasets.push_back(dataset);
  }
  // Bursts are spread over the window with a seeded offset inside their
  // slot, so consecutive bursts never share an instant.
  const int bursts = (scale.datasets + scale.burst - 1) / scale.burst;
  const double slot_ns = scale.window_min * 60e9 / bursts;
  for (int b = 0; b < bursts; ++b) {
    inputs.burst_at_ns.push_back(
        static_cast<std::int64_t>((b + 0.8 * rng.unit()) * slot_ns));
  }
  // Assumed client: no recorded catalogue log gives the query mix. A fixed
  // mix (6 equality, 3 tag, 1 range in every 10 queries) so every seed
  // measures the same kind of load, weighted to the indexed lookups with a
  // full-scan range query in every ten; the seed picks the parameters. One
  // query a sim minute gives 1,440 calls a day, enough for a p99.
  constexpr QueryKind kMix[] = {
      QueryKind::kEq,  QueryKind::kTag, QueryKind::kEq, QueryKind::kEq,
      QueryKind::kTag, QueryKind::kEq,  QueryKind::kRange, QueryKind::kEq,
      QueryKind::kTag, QueryKind::kEq};
  std::size_t slot = 0;
  for (int m = scale.query_every_min; m <= scale.window_min;
       m += scale.query_every_min) {
    inputs.queries.push_back(QueryInput{kMix[slot++ % 10], rng.unit()});
  }
  return inputs;
}

}  // namespace

RepResult run_federation_day(const WorkloadOptions& options,
                             SpanRecorder& spans) {
  Scale scale;
  if (options.smoke) {
    scale.datasets = 3'000;
    scale.burst = 30;
  }
  RepResult result;
  FederationOutcome outcome;
  SpanRecorder::Scope workload_span(spans, Layer::kBench, "federation_day");
  Samples resync_us;

  // --- Set-up: inputs, WAN fabric, fault plan, catalogue, federation. ------
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Inputs> inputs;
  lsdf::sim::Simulator sim;
  lsdf::net::Topology topo;
  std::unique_ptr<lsdf::net::TransferEngine> engine;
  std::unique_ptr<lsdf::fault::FaultInjector> injector;
  lsdf::meta::MetadataStore store;
  std::unique_ptr<lsdf::fed::FederationService> fed;
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "setup");
    inputs = std::make_unique<Inputs>(generate(options.seed, scale));
    const lsdf::Properties scenario =
        lsdf::Properties::parse(kScenario).value();
    const lsdf::net::NodeId origin = topo.add_node("lsdf-gateway");
    const lsdf::Rate wan = lsdf::Rate::gigabits_per_second(10.0);
    const lsdf::SimDuration latency = lsdf::SimDuration::from_seconds(5e-3);
    const char* sites[][2] = {{"hd-gw", "wan-hd"},
                              {"dkfz-gw", "wan-dkfz"},
                              {"eml-gw", "wan-eml"},
                              {"tape-gw", "wan-tape"}};
    std::vector<lsdf::net::LinkId> links;
    for (const auto& site : sites) {
      links.push_back(
          topo.add_duplex_link(origin, topo.add_node(site[0]), wan, latency));
    }
    engine = std::make_unique<lsdf::net::TransferEngine>(sim, topo);
    injector = std::make_unique<lsdf::fault::FaultInjector>(
        sim, static_cast<std::uint64_t>(
                 scenario.get_int_or("fault.seed", 20110831)));
    for (std::size_t i = 0; i < links.size(); ++i) {
      injector->register_link(sites[i][1], topo, links[i]);
    }
    lsdf::net::TransferEngine* net = engine.get();
    injector->on_topology_change([net, &spans, &resync_us] {
      SpanRecorder::Scope span(spans, Layer::kNet, "net.resync");
      const Clock::time_point start = Clock::now();
      net->resync();
      resync_us.add(seconds_since(start) * 1e6);
    });
    const lsdf::Status plan = injector->load_plan(scenario);
    if (!plan.is_ok() || !store.create_project(kProject, {}).is_ok()) {
      result.failures.push_back("setup: " + plan.to_string());
      return result;
    }
    lsdf::fed::FederationConfig config;
    config.origin_gateway = origin;
    config.max_concurrent = scale.max_concurrent;
    config.retry.max_attempts = 50;  // outages must not lose data
    config.retry.initial_backoff = lsdf::SimDuration::from_seconds(300.0);
    config.retry.max_backoff = lsdf::SimDuration::from_seconds(900.0);
    fed = std::make_unique<lsdf::fed::FederationService>(sim, *engine, store,
                                                         config);
    const lsdf::Status loaded = fed->load(scenario);
    if (!loaded.is_ok()) {
      result.failures.push_back("setup: " + loaded.to_string());
      return result;
    }
    fed->start();
    fed->attach_faults(*injector);
  }
  result.setup_s = seconds_since(setup_start);

  // --- Timed phase: the acquisition day and its drain. ----------------------
  Samples register_us;
  std::int64_t registered = 0;
  std::int64_t register_failed = 0;
  const auto register_burst = [&](int burst) {
    const int first = burst * scale.burst;
    const int last = std::min(scale.datasets, first + scale.burst);
    for (int i = first; i < last; ++i) {
      const Dataset& dataset = inputs->datasets[static_cast<std::size_t>(i)];
      lsdf::meta::MetadataStore::Registration registration;
      registration.project = kProject;
      registration.name = "bundle-" + std::to_string(i);
      registration.data_uri = "adal://" + registration.name;
      registration.size = lsdf::Bytes(dataset.bytes);
      registration.basic["plate"] = static_cast<std::int64_t>(burst);
      registration.basic["exposure_ms"] = dataset.exposure_ms;
      registration.basic["instrument"] = std::string("htm-microscope");
      registration.now = sim.now();
      // Includes the federation's synchronous observer (rule resolution).
      SpanRecorder::Scope span(spans, Layer::kMeta, "meta.register");
      const Clock::time_point start = Clock::now();
      const bool ok = store.register_dataset(std::move(registration)).is_ok();
      register_us.add(seconds_since(start) * 1e6);
      ++(ok ? registered : register_failed);
    }
  };
  for (std::size_t b = 0; b < inputs->burst_at_ns.size(); ++b) {
    sim.schedule_at(lsdf::SimTime(inputs->burst_at_ns[b]),
                    [&register_burst, b] {
                      register_burst(static_cast<int>(b));
                    });
  }

  Samples query_us;
  Samples eq_us;
  Samples range_us;
  Samples tag_us;
  const auto run_query = [&](const QueryInput& input) {
    lsdf::meta::Query query;
    Samples* kind_us = &eq_us;
    const char* name = "meta.query_eq";
    switch (input.kind) {
      case QueryKind::kEq: {
        // One plate (acquisition burst) registered so far.
        const auto plates = std::max<std::int64_t>(
            1, (registered + scale.burst - 1) / scale.burst);
        query.in_project(kProject).where(
            "plate", lsdf::meta::CompareOp::kEq,
            static_cast<std::int64_t>(input.pick *
                                      static_cast<double>(plates)));
        break;
      }
      case QueryKind::kRange: {
        const double low = 1.0 + 97.0 * input.pick;
        query.where("exposure_ms", lsdf::meta::CompareOp::kGe, low)
            .where("exposure_ms", lsdf::meta::CompareOp::kLt, low + 2.0);
        kind_us = &range_us;
        name = "meta.query_range";
        break;
      }
      case QueryKind::kTag:
        // One page of the datasets whose tape copy exists.
        query.with_tag("archived").limit(100);
        kind_us = &tag_us;
        name = "meta.query_tag";
        break;
    }
    SpanRecorder::Scope span(spans, Layer::kMeta, name);
    const Clock::time_point start = Clock::now();
    const std::vector<lsdf::meta::DatasetId> ids = store.query(query);
    const double us = seconds_since(start) * 1e6;
    query_us.add(us);
    kind_us->add(us);
    ++outcome.queries;
    outcome.query_results += static_cast<std::int64_t>(ids.size());
  };

  const CounterSnapshot before = CounterSnapshot::take();
  const std::uint64_t events_before = sim.executed_events();
  double active_flows_peak = 0.0;
  {
    SpanRecorder::Scope phase(spans, Layer::kBench, "sim");
    std::size_t next_query = 0;
    // One-sim-minute slices: the active-flow gauge is sampled at every
    // boundary and the catalogue client queries at its cadence.
    for (int minute = 1; minute <= scale.horizon_min; ++minute) {
      {
        SpanRecorder::Scope span(spans, Layer::kSim, "sim.run_until");
        const Clock::time_point start = Clock::now();
        sim.run_until(lsdf::SimTime::zero() +
                      lsdf::SimDuration::from_seconds(minute * 60.0));
        result.end_slice(start);
      }
      active_flows_peak = std::max(active_flows_peak, active_flows_now());
      if (minute % scale.query_every_min == 0 &&
          next_query < inputs->queries.size()) {
        run_query(inputs->queries[next_query++]);
      }
    }
    // Drain the remaining transfers and fault recoveries.
    SpanRecorder::Scope span(spans, Layer::kSim, "sim.run");
    const Clock::time_point start = Clock::now();
    sim.run();
    result.end_slice(start);
  }
  const CounterSnapshot delta = CounterSnapshot::take().minus(before);
  // Kernel work, reported as sim.events only: it is not an outcome.
  const auto events =
      static_cast<std::int64_t>(sim.executed_events() - events_before);
  outcome.drain_end_ns = sim.now().nanos();

  // --- Outcome and checks (untimed). -------------------------------------------
  for (const lsdf::meta::DatasetId id : store.dataset_ids()) {
    for (lsdf::fed::RuleId rule = 1; rule <= fed->rule_count(); ++rule) {
      if (!fed->satisfied(id, rule)) ++outcome.unsatisfied;
    }
    for (const lsdf::fed::Replica& replica : fed->replicas(id)) {
      if (replica.state == lsdf::fed::ReplicaState::kComplete) {
        ++outcome.complete_replicas;
      }
    }
  }
  double resolve_all_s = 0.0;
  {
    // One full-catalogue sweep over the settled federation.
    SpanRecorder::Scope span(spans, Layer::kFed, "fed.resolve_all");
    const Clock::time_point start = Clock::now();
    fed->resolve_all();
    resolve_all_s = seconds_since(start);
  }
  const lsdf::fed::FederationStats& stats = fed->stats();
  outcome.datasets = registered;
  outcome.scheduled = stats.scheduled;
  outcome.replicated = stats.replicated;
  outcome.lost = stats.lost;
  outcome.failed = stats.failed;
  outcome.retries = stats.retries;
  result.failures = check(outcome);
  if (register_failed > 0) {
    result.failures.push_back("registered_once: " +
                              std::to_string(register_failed) +
                              " registrations refused");
  }
  result.digest = digest(outcome);
  result.attempted = registered + register_failed + stats.scheduled +
                     outcome.queries;
  result.failed = register_failed + stats.failed;

  result.op_us = query_us;
  result.throughput_mb = stats.bytes_replicated.as_double() / 1e6;

  Report& layers = result.layers;
  add_sim_layers(layers, events, result.sim_s());
  layers.add("net.active_flows_peak", active_flows_peak, "count");
  layers.add("net.resync_us", resync_us.sum(), "us");
  layers.add_quantiles("meta.register_us", register_us, "us");
  layers.add_quantiles("meta.query_eq_us", eq_us, "us");
  layers.add_quantiles("meta.query_range_us", range_us, "us");
  layers.add_quantiles("meta.query_tag_us", tag_us, "us");
  layers.add("fed.resolve_all_s", resolve_all_s, "s");
  layers.add("fed.resolutions", static_cast<double>(stats.resolutions),
             "count");
  layers.add("fed.scheduled", static_cast<double>(stats.scheduled), "count");
  layers.add("fed.replicated", static_cast<double>(stats.replicated),
             "count");
  layers.add("fed.lost", static_cast<double>(stats.lost), "count");
  layers.add("fed.retries", static_cast<double>(stats.retries), "count");
  layers.add("fed.useful_ratio",
             stats.scheduled > 0 ? static_cast<double>(stats.replicated) /
                                       static_cast<double>(stats.scheduled)
                                 : 0.0,
             "ratio");
  add_counter_layers(layers, delta);
  return result;
}

}  // namespace perfbench
