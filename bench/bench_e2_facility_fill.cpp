// E2 — slide 7: the facility infrastructure — "currently 2 PB in 2 storage
// systems" (0.5 PB DDN + 1.4 PB IBM), dedicated 10 GE backbone, tape
// backend for archive and backup.
//
// Reproduction: run the full-size facility for simulated months under the
// mixed community workload (microscopy dominating, plus KATRIN, climate,
// ANKA) with community data batched into hourly containers; print the
// utilisation time series per storage system, the backbone throughput, and
// the archive tier's growth.
#include "bench_util.h"
#include "core/facility.h"
#include "ingest/sources.h"
#include "sim/sampler.h"

using namespace lsdf;

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, bench::obs_flags());
  const bench::ObsOptions obs_options = bench::obs_init(flags);
  bench::headline(
      "E2: facility storage fill & backbone load (slide 7)",
      "2 PB online in 2 systems (0.5 PB DDN + 1.4 PB IBM), 10 GE "
      "backbone, tape backend");

  core::FacilityConfig config;  // full paper-scale facility
  config.cluster.racks = 2;     // cluster size is irrelevant to E2; shrink
  config.cluster.nodes_per_rack = 4;
  config.hsm.migrate_after = 12_h;
  config.hsm.scan_period = 6_h;
  config.ingest.parallel_slots = 64;
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();
  const bench::ScopedSimTraceClock trace_clock(sim);

  for (const char* project :
       {"zebrafish-htm", "katrin", "climate", "anka"}) {
    if (!facility.metadata().create_project(project, {}).is_ok()) return 1;
  }

  // Facility policy (slide 14 roadmap, via the rule engine): climate data
  // is "archival quality" — it re-homes to the archive tier (HSM -> tape).
  facility.rules().add_rule(meta::Rule{
      .name = "climate-archival",
      .on = meta::EventKind::kRegistered,
      .where = {meta::Predicate{"instrument", meta::CompareOp::kEq,
                                std::string("climate-model")}},
      .action =
          [&facility](const meta::DatasetRecord& record,
                      const meta::MetaEvent&) {
            facility.adal().migrate(facility.service_credentials(),
                                    record.project + "/" + record.name,
                                    "archive", nullptr);
          }});

  // Communities, batched into hourly containers so months of operation
  // stay event-tractable (the byte rates are the paper's).
  std::vector<ingest::SourceConfig> sources;
  {
    // HTM at 2 TB/day -> 24 bundles of ~83 GB.
    ingest::SourceConfig htm = ingest::htm_microscope_source(
        facility.daq_node(), 2.5);
    htm.items_per_day = 24.0;
    htm.mean_item_size = Bytes(static_cast<std::int64_t>(2e12 / 24.0));
    htm.name_prefix = "hour-bundle";
    htm.poisson = false;
    sources.push_back(htm);

    ingest::SourceConfig katrin = ingest::katrin_source(facility.daq_node());
    katrin.items_per_day = 24.0;  // batched: 6 runs/bundle
    katrin.mean_item_size = 3_GB;
    sources.push_back(katrin);

    sources.push_back(ingest::climate_source(facility.daq_node()));

    ingest::SourceConfig anka = ingest::anka_source(facility.daq_node());
    anka.items_per_day = 24.0;
    anka.mean_item_size = Bytes(static_cast<std::int64_t>(16e6 * 2000 / 24));
    sources.push_back(anka);
  }

  // Measure, not compute, the backbone load: sample the DAQ uplink.
  sim::Sampler backbone(sim, 1_h);
  backbone.watch("daq_uplink_bps", [&facility] {
    return facility.network().link_load(facility.daq_link()).bps();
  });
  backbone.start();

  std::vector<std::unique_ptr<ingest::ExperimentSource>> running;
  const SimDuration horizon = 270_days;
  std::uint64_t seed = 100;
  for (const auto& source_config : sources) {
    running.push_back(std::make_unique<ingest::ExperimentSource>(
        sim, facility.ingest(), source_config, seed++));
    running.back()->start(SimTime::zero(), SimTime::zero() + horizon);
  }

  bench::section("storage utilisation over time (monthly samples)");
  bench::row("%-8s %12s %12s %12s %14s %12s", "day", "ddn", "ibm",
             "pool fill", "tape", "datasets");
  double final_pool_pb = 0.0;
  for (int day = 30; day <= 270; day += 30) {
    sim.run_until(SimTime::zero() + SimDuration::from_seconds(day * 86400.0));
    const double pool_fill =
        facility.pool().used().as_double() /
        facility.pool().capacity().as_double();
    bench::row("%-8d %12s %12s %11.1f%% %14s %12zu", day,
               format_bytes(facility.ddn().used()).c_str(),
               format_bytes(facility.ibm().used()).c_str(),
               pool_fill * 100.0,
               format_bytes(facility.tape().used()).c_str(),
               facility.metadata().dataset_count());
    final_pool_pb = facility.pool().used().as_double() / 1e15;
  }

  bench::section("steady-state rates");
  const ingest::IngestStats& stats = facility.ingest().stats();
  const double days = sim.now().seconds() / 86400.0;
  bench::row("ingested %s over %.0f days  (%.2f TB/day)",
             format_bytes(stats.bytes_ingested).c_str(), days,
             stats.bytes_ingested.as_double() / days / 1e12);
  bench::row("backbone transfer: one 10 GE link moves %.2f TB/day flat out",
             Rate::gigabits_per_second(10.0).bps() * 86400.0 / 1e12);
  backbone.stop();
  const TimeSeries& uplink = backbone.series("daq_uplink_bps");
  const double uplink_bps =
      facility.topology().link(facility.daq_link()).capacity.bps();
  bench::row("measured DAQ uplink utilisation: mean %.1f%%, peak %.0f%% "
             "(hourly samples) -> the dedicated 10 GE backbone is "
             "correctly sized",
             uplink.mean() / uplink_bps * 100.0,
             uplink.max() / uplink_bps * 100.0);
  bench::row("ingest latency mean %.2f s (hourly ~83 GB bundles)",
             stats.latency_seconds.mean());

  // Per-community tails: the ingest pipeline tags each item's request with
  // its project, so the facility's fairness across experiments falls out
  // of the per-tenant HdrHistograms (DESIGN.md §4g).
  bench::tenant_latency_table("lsdf_ingest_latency_seconds_by_tenant", 1.0,
                              "s");

  // Shape checks: ~2.1 TB/day fills toward the paper's 2 PB online scale
  // within the facility's first years. (MostFree placement fills the
  // larger IBM system first — DDN engages once free space equalises.)
  bench::compare("daily ingest volume", 2.1,
                 stats.bytes_ingested.as_double() / days / 1e12, "TB/day");
  bench::compare("online pool capacity", 1.9,
                 facility.pool().capacity().as_double() / 1e15, "PB");
  bench::compare("9-month fill (vs 0.55 PB expected at 2.1 TB/day)", 0.55,
                 final_pool_pb, "PB");

  // Same-seed replay evidence for the facility models themselves: a change
  // to disk, HSM, tape, ingest or net that moves any event shows here.
  bench::section("determinism");
  bench::row("facility fingerprint %016llx over %llu events",
             static_cast<unsigned long long>(sim.fingerprint()),
             static_cast<unsigned long long>(sim.executed_events()));

  bench::metrics_digest();
  return bench::obs_dump(obs_options) ? 0 : 1;
}
