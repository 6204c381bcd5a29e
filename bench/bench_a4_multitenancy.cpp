// A4 — ablation: multi-tenant cluster scheduling. The facility serves many
// communities at once ("data is used by large virtual communities"); this
// bench quantifies FIFO vs fair-share slot allocation when an interactive
// community job lands behind a long batch job.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adal/adal.h"
#include "adal/backends.h"
#include "bench_util.h"
#include "dfs/cluster_builder.h"
#include "mapreduce/job_tracker.h"
#include "storage/storage_pool.h"

using namespace lsdf;

namespace {

struct TenancyResult {
  double batch_duration_s = 0.0;
  double interactive_duration_s = 0.0;
  double makespan_s = 0.0;
};

TenancyResult run_mix(mapreduce::JobOrder order, Bytes batch_size,
                      Bytes interactive_size) {
  sim::Simulator sim;
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = 2;
  layout_config.nodes_per_rack = 8;
  dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine net(sim, layout.topology);
  dfs::DfsConfig dfs_config;
  dfs_config.datanode_capacity = 4_TB;
  dfs::DfsCluster dfs(sim, layout.topology, net, dfs_config);
  dfs::register_datanodes(dfs, layout);
  mapreduce::TrackerConfig tracker_config;
  tracker_config.job_order = order;
  mapreduce::JobTracker tracker(sim, dfs, net, tracker_config);

  dfs.write_file("/batch", batch_size, layout.headnode, nullptr);
  dfs.write_file("/interactive", interactive_size, layout.headnode,
                 nullptr);
  sim.run();

  auto make_spec = [](const char* name, const char* input) {
    mapreduce::JobSpec spec;
    spec.name = name;
    spec.input_path = input;
    spec.map_rate = Rate::megabytes_per_second(64.0);
    spec.reduce_tasks = 0;
    return spec;
  };
  TenancyResult result;
  std::optional<mapreduce::JobResult> batch;
  std::optional<mapreduce::JobResult> interactive;
  tracker.submit(make_spec("batch", "/batch"),
                 [&](const mapreduce::JobResult& r) { batch = r; });
  sim.schedule_after(5_s, [&] {
    tracker.submit(make_spec("interactive", "/interactive"),
                   [&](const mapreduce::JobResult& r) { interactive = r; });
  });
  const SimTime start = sim.now();
  sim.run();
  result.batch_duration_s = batch->duration().seconds();
  result.interactive_duration_s = interactive->duration().seconds();
  result.makespan_s = (std::max(batch->finished, interactive->finished) -
                       start)
                          .seconds();
  return result;
}

// Drive one shared ADAL/disk-pool stack with several communities issuing
// different request mixes and report each tenant's latency distribution
// from the per-(tenant, op) HdrHistograms ADAL records (DESIGN.md §4g).
void run_tenant_latency() {
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);
  adal::AuthService auth;
  adal::Adal adal(sim, auth);

  storage::DiskArrayConfig disk_config;
  disk_config.capacity = 200_TB;
  storage::DiskArray disks(sim, disk_config);
  storage::StoragePool pool(storage::PlacementPolicy::kMostFree);
  pool.add_array(disks);
  if (!adal.register_backend(
               std::make_unique<adal::PoolBackend>("pool", sim, pool))
           .is_ok() ||
      !adal.set_default_backend("pool").is_ok()) {
    bench::row("(pool backend setup failed; skipping)");
    return;
  }

  // Three communities: a heavy archive writer, a bursty interactive
  // analyst, and a light monitoring client. The shared 20 Gb/s array is
  // what couples their tails.
  struct Tenant {
    const char* name;
    Bytes object_size;
    int requests;
  };
  const std::vector<Tenant> tenants = {
      {"archive", 4_GB, 24}, {"analysis", 256_MB, 96}, {"monitor", 8_MB, 48}};
  for (const Tenant& tenant : tenants) {
    const std::string token = std::string(tenant.name) + "-token";
    auth.add_token(token, tenant.name);
    auth.grant(tenant.name, "*", adal::Access::kRead);
    auth.grant(tenant.name, "*", adal::Access::kWrite);
  }
  for (const Tenant& tenant : tenants) {
    const adal::Credentials who{std::string(tenant.name) + "-token"};
    for (int i = 0; i < tenant.requests; ++i) {
      const std::string uri = std::string("lsdf://data/") + tenant.name +
                              "/obj" + std::to_string(i);
      // Stagger submissions so the workloads overlap rather than queueing
      // in tenant-sized phases.
      sim.schedule_after(SimDuration::from_seconds(0.25 * i), [&adal, who,
                                                              uri, tenant] {
        adal.write(who, uri, tenant.object_size,
                   [&adal, who, uri](const storage::IoResult& written) {
                     if (written.status.is_ok()) {
                       adal.read(who, uri, nullptr);
                     }
                   });
      });
    }
  }
  sim.run();
  bench::tenant_latency_table("lsdf_adal_request_seconds");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, bench::obs_flags());
  const bench::ObsOptions obs = bench::obs_init(flags);
  bench::headline("A4: multi-tenant slot scheduling (ablation)",
                  "large virtual communities share one cluster; a batch "
                  "job must not starve interactive analysis");

  bench::section("interactive 256 MB job arriving 5 s behind a batch job");
  bench::row("%-12s | %12s %14s %12s | %12s %14s %12s", "batch size",
             "fifo batch", "fifo inter.", "makespan", "fair batch",
             "fair inter.", "makespan");
  double fifo_4g = 0.0;
  double fair_4g = 0.0;
  for (const Bytes batch : {2_GB, 4_GB, 8_GB}) {
    const TenancyResult fifo =
        run_mix(mapreduce::JobOrder::kFifo, batch, 256_MB);
    const TenancyResult fair =
        run_mix(mapreduce::JobOrder::kFairShare, batch, 256_MB);
    bench::row("%-12s | %10.1f s %12.1f s %10.1f s | %10.1f s %12.1f s "
               "%10.1f s",
               format_bytes(batch).c_str(), fifo.batch_duration_s,
               fifo.interactive_duration_s, fifo.makespan_s,
               fair.batch_duration_s, fair.interactive_duration_s,
               fair.makespan_s);
    if (batch == 8_GB) {
      fifo_4g = fifo.interactive_duration_s;
      fair_4g = fair.interactive_duration_s;
    }
  }
  // Small batches drain within one task wave, so FIFO is harmless there;
  // the starvation effect appears once the batch queues multiple waves.
  bench::compare("interactive latency improvement (8 GB batch)", 2.0,
                 fifo_4g / fair_4g, "x");

  bench::section("cost: batch makespan under fair share");
  {
    const TenancyResult fifo =
        run_mix(mapreduce::JobOrder::kFifo, 8_GB, 256_MB);
    const TenancyResult fair =
        run_mix(mapreduce::JobOrder::kFairShare, 8_GB, 256_MB);
    bench::row("batch stretches %.1f s -> %.1f s (%.0f%%) while the "
               "interactive job gains %.1f s",
               fifo.batch_duration_s, fair.batch_duration_s,
               (fair.batch_duration_s / fifo.batch_duration_s - 1.0) *
                   100.0,
               fifo.interactive_duration_s - fair.interactive_duration_s);
    bench::compare("total makespan unchanged", 1.0,
                   fair.makespan_s / fifo.makespan_s, "x");
  }

  run_tenant_latency();
  return bench::obs_dump(obs) ? 0 : 1;
}
