// E6 — slide 11: the dedicated 60-node Hadoop cluster with its 110 TB
// HDFS — "extreme scalability on commodity hardware".
//
// Reproduction: run the same MapReduce analysis over a fixed 8 GB input on
// clusters from 4 to 60 worker nodes; report job time, speedup, efficiency
// and the data-locality fractions that make the scaling possible.
#include <optional>

#include "bench_util.h"
#include "dfs/cluster_builder.h"
#include "mapreduce/job_tracker.h"

using namespace lsdf;

namespace {

struct ScalePoint {
  int nodes = 0;
  double seconds = 0.0;
  double locality = 0.0;
  double rack_locality = 0.0;
};

ScalePoint run_at_scale(int racks, int nodes_per_rack, bool tracing) {
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);
  // One Perfetto "process" row per cluster size: job and shuffle spans of
  // repeated runs land in separate groups instead of overlapping.
  if (tracing) obs::Tracer::global().set_pid(racks * nodes_per_rack);
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = racks;
  layout_config.nodes_per_rack = nodes_per_rack;
  dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine net(sim, layout.topology);
  dfs::DfsConfig dfs_config;
  dfs_config.block_size = 64_MB;
  dfs_config.datanode_capacity = 2_TB;  // 60 x ~2 TB ~= the 110 TB HDFS
  dfs::DfsCluster dfs(sim, layout.topology, net, dfs_config);
  dfs::register_datanodes(dfs, layout);
  mapreduce::JobTracker tracker(sim, dfs, net, mapreduce::TrackerConfig{});

  bool loaded = false;
  dfs.write_file("/input", 32_GB, layout.headnode,
                 [&](const dfs::DfsIoResult& r) {
                   loaded = r.status.is_ok();
                 });
  sim.run();

  mapreduce::JobSpec spec;
  spec.name = "scaling";
  spec.input_path = "/input";
  spec.map_rate = Rate::megabytes_per_second(50.0);
  spec.map_output_ratio = 0.05;
  spec.reduce_tasks = std::max(1, racks * nodes_per_rack / 8);
  std::optional<mapreduce::JobResult> result;
  tracker.submit(spec, [&](const mapreduce::JobResult& r) { result = r; });
  sim.run();

  ScalePoint point;
  point.nodes = racks * nodes_per_rack;
  point.seconds = result->duration().seconds();
  const auto total = result->node_local_maps + result->rack_local_maps +
                     result->remote_maps;
  point.locality = result->locality_fraction();
  point.rack_locality =
      total == 0 ? 0.0
                 : static_cast<double>(result->rack_local_maps) /
                       static_cast<double>(total);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, bench::obs_flags());
  const bench::ObsOptions obs_options = bench::obs_init(flags);
  bench::headline("E6: Hadoop cluster scaling, 110 TB HDFS (slide 11)",
                  "dedicated 60-node cluster; extreme scalability on "
                  "commodity hardware");

  bench::section("fixed 32 GB analysis job vs cluster size (speedup curve)");
  bench::row("%-8s %12s %10s %12s %12s %12s", "nodes", "job time",
             "speedup", "efficiency", "node-local", "rack-local");
  const std::pair<int, int> scales[] = {{1, 4},  {2, 4},  {2, 8},
                                        {4, 8},  {4, 12}, {4, 15}};
  double base = 0.0;
  double speedup_at_60 = 0.0;
  for (const auto& [racks, nodes_per_rack] : scales) {
    const ScalePoint point =
        run_at_scale(racks, nodes_per_rack, obs_options.tracing());
    if (base == 0.0) base = point.seconds * point.nodes;  // per-node norm
    const double speedup = base / point.seconds;
    const double efficiency = speedup / point.nodes;
    bench::row("%-8d %10.1f s %9.1fx %11.0f%% %11.0f%% %11.0f%%",
               point.nodes, point.seconds, speedup, efficiency * 100.0,
               point.locality * 100.0, point.rack_locality * 100.0);
    if (point.nodes == 60) speedup_at_60 = speedup;
  }
  // "Extreme scalability": near-linear up to the paper's 60 nodes.
  bench::compare("speedup at 60 nodes (linear would be 60)", 60.0,
                 speedup_at_60, "x");

  bench::section("HDFS capacity check");
  bench::row("60 datanodes x 2 TB = %s raw (paper: 110 TB usable)",
             format_bytes(2_TB * 60).c_str());

  bench::metrics_digest("lsdf_mapreduce");
  return bench::obs_dump(obs_options) ? 0 : 1;
}
