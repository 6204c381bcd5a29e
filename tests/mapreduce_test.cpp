// Tests for both MapReduce engines: the simulated JobTracker (locality
// scheduling, speculation, shuffle) and the real-execution LocalRunner.
#include <gtest/gtest.h>

#include <optional>

#include "dfs/cluster_builder.h"
#include "exec/thread_pool.h"
#include "mapreduce/job_tracker.h"
#include "mapreduce/local_runner.h"

namespace lsdf::mapreduce {
namespace {

struct TrackerFixture {
  sim::Simulator sim;
  dfs::ClusterLayout layout;
  net::TransferEngine net;
  dfs::DfsCluster dfs;
  // Datanodes must exist before the tracker sizes its slot tables.
  std::vector<dfs::DataNodeId> datanodes;
  JobTracker tracker;

  explicit TrackerFixture(int racks = 2, int nodes_per_rack = 4,
                          TrackerConfig config = TrackerConfig{})
      : layout(dfs::build_cluster_layout(make_layout(racks, nodes_per_rack))),
        net(sim, layout.topology),
        dfs(sim, layout.topology, net, dfs_config()),
        datanodes(dfs::register_datanodes(dfs, layout)),
        tracker(sim, dfs, net, config) {}

  static dfs::ClusterLayoutConfig make_layout(int racks, int nodes) {
    dfs::ClusterLayoutConfig config;
    config.racks = racks;
    config.nodes_per_rack = nodes;
    return config;
  }
  static dfs::DfsConfig dfs_config() {
    dfs::DfsConfig config;
    config.block_size = 64_MB;
    config.datanode_capacity = 50_GB;
    return config;
  }

  void load(const std::string& path, Bytes size) {
    bool done = false;
    dfs.write_file(path, size, layout.headnode,
                   [&](const dfs::DfsIoResult& r) {
                     ASSERT_TRUE(r.status.is_ok());
                     done = true;
                   });
    sim.run();
    ASSERT_TRUE(done);
  }

  JobResult run(const JobSpec& spec) {
    std::optional<JobResult> result;
    tracker.submit(spec, [&](const JobResult& r) { result = r; });
    sim.run();
    EXPECT_TRUE(result.has_value());
    return result.value_or(JobResult{});
  }
};

JobSpec basic_job(const std::string& input) {
  JobSpec spec;
  spec.name = "test-job";
  spec.input_path = input;
  spec.map_rate = Rate::megabytes_per_second(64.0);
  spec.reduce_tasks = 2;
  spec.task_overhead = 1_s;
  return spec;
}

TEST(JobTracker, JobCompletesWithOneMapPerBlock) {
  TrackerFixture f;
  f.load("/in", 640_MB);  // 10 blocks
  const JobResult result = f.run(basic_job("/in"));
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.map_tasks, 10);
  EXPECT_EQ(result.reduce_tasks, 2);
  EXPECT_EQ(result.input_bytes, 640_MB);
  EXPECT_EQ(result.node_local_maps + result.rack_local_maps +
                result.remote_maps,
            10);
  EXPECT_GT(result.duration().seconds(), 0.0);
  EXPECT_EQ(f.tracker.running_jobs(), 0u);
}

TEST(JobTracker, MissingInputFailsFast) {
  TrackerFixture f;
  const JobResult result = f.run(basic_job("/missing"));
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST(JobTracker, LocalitySchedulerKeepsMostMapsNodeLocal) {
  TrackerFixture f;
  f.load("/in", 2_GB);  // 32 blocks over 8 nodes
  JobSpec spec = basic_job("/in");
  spec.scheduler = SchedulerPolicy::kLocalityAware;
  const JobResult result = f.run(spec);
  EXPECT_GT(result.locality_fraction(), 0.8);
}

TEST(JobTracker, RandomSchedulerWastesLocality) {
  TrackerFixture locality_fixture;
  TrackerFixture random_fixture;
  locality_fixture.load("/in", 2_GB);
  random_fixture.load("/in", 2_GB);
  JobSpec locality_spec = basic_job("/in");
  locality_spec.scheduler = SchedulerPolicy::kLocalityAware;
  JobSpec random_spec = basic_job("/in");
  random_spec.scheduler = SchedulerPolicy::kRandom;
  const JobResult locality = locality_fixture.run(locality_spec);
  const JobResult random = random_fixture.run(random_spec);
  EXPECT_GT(locality.locality_fraction(),
            random.locality_fraction() + 0.2);
  // Locality also buys wall-clock time (A1's claim).
  EXPECT_LT(locality.duration().seconds(), random.duration().seconds());
}

TEST(JobTracker, ShuffleVolumeFollowsOutputRatio) {
  TrackerFixture f;
  f.load("/in", 640_MB);
  JobSpec spec = basic_job("/in");
  spec.map_output_ratio = 0.25;
  const JobResult result = f.run(spec);
  EXPECT_NEAR(result.shuffle_bytes.as_double(), 640e6 * 0.25, 1e6);
}

TEST(JobTracker, MapOnlyJobSkipsShuffle) {
  TrackerFixture f;
  f.load("/in", 320_MB);
  JobSpec spec = basic_job("/in");
  spec.reduce_tasks = 0;
  const JobResult result = f.run(spec);
  EXPECT_TRUE(result.status.is_ok());
  EXPECT_EQ(result.reduce_tasks, 0);
}

TEST(JobTracker, MoreNodesFinishFaster) {
  TrackerFixture small(1, 2);
  TrackerFixture large(4, 4);
  small.load("/in", 1_GB);
  large.load("/in", 1_GB);
  const JobResult slow = small.run(basic_job("/in"));
  const JobResult fast = large.run(basic_job("/in"));
  EXPECT_TRUE(slow.status.is_ok());
  EXPECT_TRUE(fast.status.is_ok());
  EXPECT_LT(fast.duration().seconds(), slow.duration().seconds());
}

TEST(JobTracker, SpeculationRescuesStragglersOnAverage) {
  // Speculation is a statistical win, not a per-run guarantee (a duplicate
  // can land on another slow node, or steal a slot a fresh task needed) —
  // exactly Hadoop's behaviour. Assert the aggregate over several straggler
  // placements: mean makespan improves and duplicates are launched and won.
  double spec_total = 0.0;
  double plain_total = 0.0;
  std::int64_t launched = 0;
  std::int64_t won = 0;
  for (const std::uint64_t seed : {1, 4, 6, 7, 11, 12}) {
    TrackerConfig straggler_config;
    straggler_config.straggler_fraction = 0.25;
    straggler_config.straggler_slowdown = 8.0;
    straggler_config.seed = seed;
    for (const bool speculative : {true, false}) {
      TrackerFixture f(2, 4, straggler_config);
      f.load("/in", 2_GB);
      // Map-only jobs: speculation covers map tasks, so a reduce straggler
      // would just add identical noise to both runs.
      JobSpec spec = basic_job("/in");
      spec.speculative_execution = speculative;
      spec.reduce_tasks = 0;
      const JobResult result = f.run(spec);
      ASSERT_TRUE(result.status.is_ok());
      if (speculative) {
        spec_total += result.duration().seconds();
        launched += result.speculative_launched;
        won += result.speculative_won;
      } else {
        plain_total += result.duration().seconds();
      }
    }
  }
  EXPECT_GT(launched, 0);
  EXPECT_GT(won, 0);
  EXPECT_LT(spec_total, plain_total * 0.95);
}

TEST(JobTracker, NoSpeculationOnHomogeneousCluster) {
  TrackerFixture f;
  f.load("/in", 1_GB);
  JobSpec spec = basic_job("/in");
  spec.speculative_execution = true;
  const JobResult result = f.run(spec);
  // All nodes equal: nothing should look like a straggler.
  EXPECT_EQ(result.speculative_launched, 0);
}

TEST(JobTracker, ConcurrentJobsShareTheCluster) {
  TrackerFixture f;
  f.load("/a", 640_MB);
  f.load("/b", 640_MB);
  std::optional<JobResult> first;
  std::optional<JobResult> second;
  f.tracker.submit(basic_job("/a"), [&](const JobResult& r) { first = r; });
  f.tracker.submit(basic_job("/b"),
                   [&](const JobResult& r) { second = r; });
  f.sim.run();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->status.is_ok());
  EXPECT_TRUE(second->status.is_ok());
  EXPECT_EQ(first->map_tasks + second->map_tasks, 20);
}

TEST(JobTracker, SurvivesDatanodeFailureMidJob) {
  TrackerFixture f;
  f.load("/in", 1_GB);
  std::optional<JobResult> result;
  f.tracker.submit(basic_job("/in"),
                   [&](const JobResult& r) { result = r; });
  f.sim.schedule_after(2_s, [&] {
    ASSERT_TRUE(f.dfs.fail_datanode(0).is_ok());
  });
  f.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.is_ok());  // tasks re-ran elsewhere
}

// A block whose every replica is gone fails the job: read_block already
// tried each replica, so requeueing the map would retry the same failure
// at the same instant forever.
TEST(JobTracker, LostBlockFailsTheJob) {
  sim::Simulator sim;
  dfs::ClusterLayoutConfig layout_config;
  layout_config.racks = 1;
  layout_config.nodes_per_rack = 4;
  dfs::ClusterLayout layout = dfs::build_cluster_layout(layout_config);
  net::TransferEngine net(sim, layout.topology);
  dfs::DfsConfig dfs_config = TrackerFixture::dfs_config();
  dfs_config.replication = 1;
  dfs::DfsCluster dfs(sim, layout.topology, net, dfs_config);
  dfs::register_datanodes(dfs, layout);
  JobTracker tracker(sim, dfs, net, TrackerConfig{});

  const auto write = [&](const std::string& path, Bytes size) {
    bool done = false;
    dfs.write_file(path, size, layout.headnode,
                   [&](const dfs::DfsIoResult& r) {
                     EXPECT_TRUE(r.status.is_ok());
                     done = true;
                   });
    sim.run();
    EXPECT_TRUE(done);
  };
  write("/in", 640_MB);  // 10 single-replica blocks over 4 datanodes
  ASSERT_TRUE(dfs.fail_datanode(0).is_ok());
  const auto input = dfs.stat("/in");
  ASSERT_TRUE(input.is_ok());
  int lost = 0;
  for (const dfs::BlockId block : input.value().blocks) {
    if (dfs.block_replicas(block).empty()) ++lost;
  }
  ASSERT_GT(lost, 0);

  JobSpec spec = basic_job("/in");
  spec.reduce_tasks = 0;
  std::optional<JobResult> failed;
  tracker.submit(spec, [&](const JobResult& r) { failed = r; });
  sim.run();  // drains: the failure is final, not retried
  ASSERT_TRUE(failed.has_value());
  EXPECT_FALSE(failed->status.is_ok());
  EXPECT_EQ(tracker.running_jobs(), 0u);
  EXPECT_EQ(tracker.slots_in_use(), 0);

  // The tracker is still usable: healthy input lands on live nodes only.
  write("/healthy", 256_MB);
  std::optional<JobResult> healthy;
  tracker.submit(basic_job("/healthy"),
                 [&](const JobResult& r) { healthy = r; });
  sim.run();
  ASSERT_TRUE(healthy.has_value());
  EXPECT_TRUE(healthy->status.is_ok());
  EXPECT_EQ(healthy->map_tasks, 4);
  EXPECT_EQ(tracker.slots_in_use(), 0);
}

// Property: job duration scales down monotonically with cluster size.
TEST(JobTracker, SpeedupIsMonotoneInNodeCount) {
  std::map<int, double> durations;
  for (const int nodes_per_rack : {1, 2, 4, 8}) {
    TrackerFixture f(2, nodes_per_rack);
    f.load("/in", 1_GB);
    const JobResult result = f.run(basic_job("/in"));
    ASSERT_TRUE(result.status.is_ok());
    durations[nodes_per_rack] = result.duration().seconds();
  }
  double previous = durations[1];
  for (const int nodes_per_rack : {2, 4, 8}) {
    EXPECT_LE(durations[nodes_per_rack], previous * 1.05)
        << "no speedup from " << nodes_per_rack << " nodes/rack";
    previous = durations[nodes_per_rack];
  }
}

// Exact decisions of straggler jobs with speculation on. The values were
// read off the reference scheduler, which recomputed the completed-map
// median and scanned every map on each completion and purged finished
// tasks from the pending list on every slot offer. A faster bookkeeping
// must reproduce each of them bit for bit. Three racks make remote reads
// (and so varied map durations) possible; under the random scheduler the
// order in which duplicates are queued feeds the RNG draws, so a wrong
// median rank or queue order shows up in the counts.
struct Decisions {
  std::int64_t launched = 0;
  std::int64_t won = 0;
  std::int64_t node_local = 0;
  std::int64_t rack_local = 0;
  std::int64_t remote = 0;
  std::int64_t finished_ns = 0;
  bool operator==(const Decisions&) const = default;
};

void PrintTo(const Decisions& d, std::ostream* os) {
  *os << "{" << d.launched << ", " << d.won << ", " << d.node_local << ", "
      << d.rack_local << ", " << d.remote << ", " << d.finished_ns << "}";
}

Decisions decisions_of(const JobResult& result) {
  EXPECT_TRUE(result.status.is_ok());
  return {result.speculative_launched, result.speculative_won,
          result.node_local_maps,      result.rack_local_maps,
          result.remote_maps,          result.finished.nanos()};
}

TrackerConfig straggler_config(std::uint64_t seed,
                               JobOrder order = JobOrder::kFifo) {
  TrackerConfig config;
  config.straggler_fraction = 0.3;
  config.straggler_slowdown = 8.0;
  config.seed = seed;
  config.job_order = order;
  return config;
}

TEST(JobTracker, SpeculationDecisionsArePinned) {
  std::vector<Decisions> locality;
  std::vector<Decisions> random;
  std::vector<Decisions> fair_share;  // two jobs per seed
  std::vector<Decisions> failover;
  for (const std::uint64_t seed : {1, 4, 7, 11}) {
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::kLocalityAware, SchedulerPolicy::kRandom}) {
      TrackerFixture f(3, 4, straggler_config(seed));
      f.load("/in", 8_GB);
      JobSpec spec = basic_job("/in");
      spec.speculative_execution = true;
      spec.scheduler = policy;
      const Decisions d = decisions_of(f.run(spec));
      (policy == SchedulerPolicy::kRandom ? random : locality).push_back(d);
    }
    {
      // A second job arrives while the first is mapping.
      TrackerFixture f(3, 4, straggler_config(seed, JobOrder::kFairShare));
      f.load("/a", 4_GB);
      f.load("/b", 2_GB);
      std::optional<JobResult> first;
      std::optional<JobResult> second;
      JobSpec second_spec = basic_job("/b");
      second_spec.scheduler = SchedulerPolicy::kRandom;
      f.tracker.submit(basic_job("/a"),
                       [&](const JobResult& r) { first = r; });
      f.sim.schedule_after(5_s, [&] {
        f.tracker.submit(second_spec,
                         [&](const JobResult& r) { second = r; });
      });
      f.sim.run();
      ASSERT_TRUE(first && second);
      fair_share.push_back(decisions_of(*first));
      fair_share.push_back(decisions_of(*second));
    }
    {
      // A datanode fails mid-job: re-replication traffic competes with the
      // map reads, which the surviving replicas serve.
      TrackerFixture f(3, 4, straggler_config(seed));
      f.load("/in", 4_GB);
      std::optional<JobResult> result;
      JobSpec spec = basic_job("/in");
      spec.scheduler = SchedulerPolicy::kRandom;
      f.tracker.submit(spec, [&](const JobResult& r) { result = r; });
      f.sim.schedule_after(20_s, [&] {
        ASSERT_TRUE(f.dfs.fail_datanode(0).is_ok());
      });
      f.sim.run();
      ASSERT_TRUE(result.has_value());
      failover.push_back(decisions_of(*result));
    }
  }
  EXPECT_EQ(locality, (std::vector<Decisions>{
                          {8, 5, 120, 4, 1, 99418866759},
                          {8, 3, 121, 4, 0, 97630066753},
                          {9, 1, 121, 1, 3, 135366366758},
                          {6, 6, 119, 5, 1, 97214266759},
                      }));
  EXPECT_EQ(random, (std::vector<Decisions>{
                          {10, 6, 30, 47, 48, 107910281039},
                          {11, 5, 27, 55, 43, 100562865499},
                          {14, 5, 34, 47, 44, 143721516086},
                          {9, 5, 33, 49, 43, 99422366752},
                      }));
  EXPECT_EQ(fair_share, (std::vector<Decisions>{
                          {8, 8, 51, 7, 5, 73095800069},
                          {0, 0, 6, 11, 15, 67562700068},
                          {8, 7, 56, 3, 4, 72706720069},
                          {0, 0, 11, 12, 9, 67372483400},
                          {10, 10, 55, 6, 2, 91679233403},
                          {0, 0, 8, 9, 15, 76568700069},
                          {10, 7, 53, 5, 5, 72873200070},
                          {0, 0, 8, 17, 7, 67551894513},
                      }));
  EXPECT_EQ(failover, (std::vector<Decisions>{
                          {8, 4, 13, 28, 22, 58800111156},
                          {8, 3, 16, 27, 20, 58748191711},
                          {16, 5, 14, 26, 23, 77385369308},
                          {6, 5, 15, 28, 20, 50811283379},
                      }));
}

// --- LocalRunner (real execution) -------------------------------------------------

TEST(LocalRunner, WordCount) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<std::string, std::string, std::int64_t>;
  Runner::Options options;
  options.reduce_buckets = 4;
  options.map_chunk = 2;
  Runner runner(pool, options);

  const std::vector<std::string> lines = {
      "the fish the embryo", "the microscope", "embryo embryo fish", ""};
  auto result = runner.run(
      lines,
      [](const std::string& line, Runner::Emitter& emit) {
        std::size_t start = 0;
        while (start < line.size()) {
          const auto end = line.find(' ', start);
          const auto word = line.substr(
              start, end == std::string::npos ? line.size() - start
                                              : end - start);
          if (!word.empty()) emit.emit(word, 1);
          if (end == std::string::npos) break;
          start = end + 1;
        }
      },
      [](const std::string&, std::span<const std::int64_t> values) {
        std::int64_t total = 0;
        for (const auto v : values) total += v;
        return total;
      });

  const std::map<std::string, std::int64_t> counts(result.begin(),
                                                   result.end());
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("embryo"), 3);
  EXPECT_EQ(counts.at("fish"), 2);
  EXPECT_EQ(counts.at("microscope"), 1);
  EXPECT_EQ(counts.size(), 4u);
  // Output is sorted by key.
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
}

TEST(LocalRunner, CombinerDoesNotChangeResults) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<std::int64_t, std::int64_t, std::int64_t>;
  std::vector<std::int64_t> input(1000);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::int64_t>(i);
  }
  auto map = [](const std::int64_t& x, Runner::Emitter& emit) {
    emit.emit(x % 7, x);
  };
  auto reduce = [](const std::int64_t&,
                   std::span<const std::int64_t> values) {
    std::int64_t total = 0;
    for (const auto v : values) total += v;
    return total;
  };

  Runner::Options plain_options;
  plain_options.reduce_buckets = 3;
  Runner plain(pool, plain_options);
  Runner::Options combined_options;
  combined_options.reduce_buckets = 3;
  combined_options.combiner = reduce;
  Runner combined(pool, combined_options);

  EXPECT_EQ(plain.run(input, map, reduce),
            combined.run(input, map, reduce));
}

TEST(LocalRunner, EmptyInputYieldsEmptyOutput) {
  exec::ThreadPool pool(2);
  using Runner = LocalRunner<int, int, int>;
  Runner runner(pool, Runner::Options{});
  const std::vector<int> empty;
  const auto result = runner.run(
      empty, [](const int&, Runner::Emitter&) {},
      [](const int&, std::span<const int>) { return 0; });
  EXPECT_TRUE(result.empty());
}

TEST(LocalRunner, SingleBucketAndSingleRecord) {
  exec::ThreadPool pool(2);
  using Runner = LocalRunner<int, int, int>;
  Runner::Options options;
  options.reduce_buckets = 1;
  options.map_chunk = 1;
  Runner runner(pool, options);
  const std::vector<int> input{5};
  const auto result = runner.run(
      input,
      [](const int& x, Runner::Emitter& emit) { emit.emit(0, x * 2); },
      [](const int&, std::span<const int> values) { return values[0]; });
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], (std::pair<int, int>{0, 10}));
}

// Property sweep: bucket count never changes the reduced result.
class BucketSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BucketSweep, ResultIndependentOfPartitioning) {
  exec::ThreadPool pool(4);
  using Runner = LocalRunner<std::int64_t, std::int64_t, std::int64_t>;
  std::vector<std::int64_t> input(500);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<std::int64_t>(i * 13 % 97);
  }
  auto map = [](const std::int64_t& x, Runner::Emitter& emit) {
    emit.emit(x % 10, 1);
  };
  auto reduce = [](const std::int64_t&,
                   std::span<const std::int64_t> values) {
    return static_cast<std::int64_t>(values.size());
  };
  Runner::Options options;
  options.reduce_buckets = GetParam();
  Runner runner(pool, options);
  Runner::Options reference_options;
  reference_options.reduce_buckets = 1;
  Runner reference(pool, reference_options);
  EXPECT_EQ(runner.run(input, map, reduce),
            reference.run(input, map, reduce));
}

INSTANTIATE_TEST_SUITE_P(Buckets, BucketSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

}  // namespace
}  // namespace lsdf::mapreduce
