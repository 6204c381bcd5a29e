// E11 — slide 6/7: the Heidelberg cooperation — "tight cooperation with
// BioQuant of Univ. Heidelberg", with a dedicated WAN link in the fabric
// ("Univ. of Heidelberg" box on the infrastructure diagram).
//
// Reproduction: a day of zebrafish acquisition where every 3rd dataset is
// shared with BioQuant through a one-rule fed::FederationService (trigger
// tag "share-with-heidelberg", one disk copy on the Heidelberg site,
// DESIGN.md §4i); measures mirror backlog and throughput on the shared
// 10 GE WAN, then repeats the day with a 2-hour WAN outage to show the
// retry/stall machinery holding the backlog instead of losing data.
#include <cstdlib>

#include "bench_util.h"
#include "core/facility.h"
#include "exec/thread_pool.h"
#include "fed/federation.h"
#include "ingest/sources.h"
#include "partitioned_site.h"
#include "sim/sampler.h"

using namespace lsdf;

namespace {

struct DayResult {
  std::int64_t shared = 0;
  std::int64_t mirrored = 0;
  std::int64_t retries = 0;
  std::int64_t failures = 0;
  double wan_mean_utilization = 0.0;
  double backlog_peak = 0.0;
};

// Runs the acquisition day with the mirror as the federation's single
// rule. The retry seed is the one the day has always used, so the backoff
// jitter — and with it the outage day — stays as published.
DayResult run_day(bool outage) {
  core::FacilityConfig config = core::small_facility_config();
  config.ingest.parallel_slots = 32;
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();
  if (!facility.metadata().create_project("zebrafish-htm", {}).is_ok()) {
    return {};
  }

  fed::FederationConfig fed_config;
  fed_config.origin_gateway = facility.ingest_node();
  fed_config.wan_efficiency = 0.62;
  fed_config.max_concurrent = 4;
  fed_config.retry.max_attempts = 50;  // outages must not lose data
  fed_config.retry.initial_backoff = 5_min;
  fed_config.retry.max_backoff = 15_min;
  fed_config.retry_seed = 0x6d6972726f72ULL;  // "mirror"
  fed::FederationService federation(sim, facility.network(),
                                    facility.metadata(), fed_config);
  federation.add_site({.name = "heidelberg",
                       .gateway = facility.heidelberg_node(),
                       .storage = fed::StorageClass::kDisk});
  federation.add_rule({.name = "heidelberg-mirror",
                       .project = "zebrafish-htm",
                       .trigger_tag = "share-with-heidelberg",
                       .done_tag = "mirrored",
                       .copies = 1,
                       .storage = fed::StorageClass::kDisk});
  federation.start();

  // Policy: every 3rd frame is shared with BioQuant.
  facility.rules().add_rule(meta::Rule{
      .name = "share-sample",
      .on = meta::EventKind::kRegistered,
      .action =
          [&facility](const meta::DatasetRecord& record,
                      const meta::MetaEvent&) {
            if (record.id % 3 == 0) {
              (void)facility.metadata().tag(record.id,
                                            "share-with-heidelberg");
            }
          }});

  sim::Sampler wan(sim, 1_min);
  wan.watch("wan_bps", [&facility] {
    return facility.network().link_load(facility.wan_link()).bps();
  });
  wan.start();

  // 20 GB microscopy bundles, ~300/day (6 TB/day with derived data).
  ingest::SourceConfig camera =
      ingest::htm_microscope_source(facility.daq_node());
  camera.items_per_day = 300.0;
  camera.mean_item_size = 20_GB;
  camera.name_prefix = "bundle";
  ingest::ExperimentSource source(sim, facility.ingest(), camera, 77);
  source.start(SimTime::zero(), SimTime::zero() + 24_h);

  if (outage) {
    sim.schedule_after(8_h, [&] { facility.set_wan_up(false); });
    sim.schedule_after(10_h, [&] { facility.set_wan_up(true); });
  }

  DayResult result;
  // Sample the mirror backlog (queued + in flight) every 5 minutes.
  sim::PeriodicTask backlog_probe(sim, 5_min, [&] {
    const std::size_t depth =
        federation.backlog() +
        static_cast<std::size_t>(federation.in_flight());
    result.backlog_peak =
        std::max(result.backlog_peak, static_cast<double>(depth));
  });
  backlog_probe.start_at(SimTime::zero() + 5_min);
  sim.run_until(SimTime::zero() + 30_h);  // drain past the day's end
  backlog_probe.stop();
  wan.stop();

  result.shared = federation.stats().scheduled;
  result.mirrored = federation.stats().replicated;
  result.retries = federation.stats().retries;
  result.failures = federation.stats().failed;
  result.wan_mean_utilization =
      wan.series("wan_bps").mean() /
      facility.topology().link(facility.wan_link()).capacity.bps();
  return result;
}

// KIT and BioQuant as two shards of the sharded kernel: each site a local
// 10 GE star, coupled by the dedicated WAN link whose latency becomes the
// pair lookahead (DESIGN.md §5c). Every 3rd local acquisition replicates
// across — the mirror policy as deterministic cross-site mail. Reported as
// perf_e11_sharded.
void run_partitioned_section(unsigned workers, bench::JsonReport& report) {
  bench::section("partitioned 2-site run (KIT + Heidelberg, sharded kernel)");
  bench::PartitionedSpec spec;
  spec.sites = 2;
  spec.wan_latency = 2_ms;  // the dedicated KIT–Heidelberg fibre
  spec.readout_events = 1'200'000;
  spec.replicate_every = 3;  // E11's every-3rd-frame sharing policy
  spec.replica_size = 20_GB;
  const unsigned hw = exec::ThreadPool::default_thread_count();
  const bench::PartitionedPair pair = bench::run_partitioned_pair(
      spec, workers == 0 ? std::min<unsigned>(2, hw) : workers);
  bench::row("WAN lookahead %.1f ms; %llu mirror mails delivered, %llu "
             "windows (%llu skipped idle)",
             pair.serial.pair_lookahead.seconds() * 1e3,
             (unsigned long long)pair.parallel.mail_delivered,
             (unsigned long long)pair.parallel.windows_run,
             (unsigned long long)pair.parallel.idle_windows_skipped);
  bench::report_partitioned_pair(pair, 2, "", "perf_e11_sharded", report);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(
      argc, argv,
      {{"--workers", true}, {"--partitioned-only"}, {"--json", true}});
  // 0 = min(2, hw threads)
  const auto workers =
      static_cast<unsigned>(std::atoi(flags.value("--workers").c_str()));
  const bool partitioned_only = flags.has("--partitioned-only");
  bench::JsonReport report(flags);
  bench::headline("E11: cross-site mirroring to Heidelberg (slides 6/7)",
                  "tight cooperation with BioQuant over the dedicated WAN "
                  "link");
  if (partitioned_only) {
    run_partitioned_section(workers, report);
    report.write();
    return 0;
  }

  bench::section("normal day: every 3rd acquisition bundle shared");
  const DayResult normal = run_day(false);
  bench::row("%-34s %lld", "bundles shared",
             (long long)normal.shared);
  bench::row("%-34s %lld", "mirrored to Heidelberg",
             (long long)normal.mirrored);
  bench::row("%-34s %.1f%%", "WAN mean utilisation",
             normal.wan_mean_utilization * 100.0);
  bench::row("%-34s %.0f", "peak mirror backlog",
             normal.backlog_peak);
  bench::compare("all shared data mirrored",
                 static_cast<double>(normal.shared),
                 static_cast<double>(normal.mirrored), "datasets");

  bench::section("same day with a 2-hour WAN outage (08:00-10:00)");
  const DayResult outage = run_day(true);
  bench::row("%-34s %lld (retries: %lld)", "mirrored despite the outage",
             (long long)outage.mirrored, (long long)outage.retries);
  bench::row("%-34s %.0f (vs %.0f on the clean day)",
             "peak backlog during outage", outage.backlog_peak,
             normal.backlog_peak);
  bench::compare("no data lost across the outage",
                 static_cast<double>(outage.shared),
                 static_cast<double>(outage.mirrored), "datasets");
  bench::compare("outage grows the backlog, not the failure count", 0.0,
                 static_cast<double>(outage.failures), "failures");

  run_partitioned_section(workers, report);
  report.write();
  return 0;
}
