//! JobTracker: the simulated Hadoop execution engine over the DFS cluster
//! (paper slide 11, "dedicated 60 nodes cluster / Hadoop environment").
//!
//! One map task per input block; tasks run in per-node slots; the scheduler
//! matches free slots to pending tasks by data locality (or randomly, for
//! the A1 ablation). After the map wave, each reduce task shuffles its
//! partition from every map node over the shared network, computes, and the
//! job completes. Stragglers (slow nodes) can be rescued by speculative
//! duplicates, exactly the Hadoop mechanism.
//!
//! Fidelity notes (documented substitutions):
//!  * shuffle begins when all maps finish (Hadoop overlaps; the barrier is
//!    conservative and preserves scaling shape);
//!  * map output lives on the mapper's node, as in Hadoop;
//!  * a map whose block has no readable replica fails the job at once
//!    (Hadoop first retries the task up to 4 times, but every retry would
//!    read the same lost block).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dfs/dfs.h"
#include "mapreduce/job.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::mapreduce {

// How concurrent jobs share the cluster's task slots.
enum class JobOrder {
  kFifo,       // earlier-submitted jobs get every free slot first
  kFairShare,  // free slots go to the job with the fewest running tasks
};

struct TrackerConfig {
  int map_slots_per_node = 2;
  int reduce_slots_per_node = 2;
  JobOrder job_order = JobOrder::kFifo;
  // Fraction of nodes that run slow (hardware heterogeneity), and by what
  // factor. This is what makes speculative execution matter.
  double straggler_fraction = 0.0;
  double straggler_slowdown = 3.0;
  std::uint64_t seed = 7;
};

class JobTracker {
 public:
  JobTracker(sim::Simulator& simulator, dfs::DfsCluster& dfs,
             net::TransferEngine& net, TrackerConfig config);

  // Submit a job; `done` fires when it completes (or fails fast when the
  // input is missing).
  JobId submit(const JobSpec& spec, JobCallback done);

  [[nodiscard]] std::size_t running_jobs() const { return jobs_.size(); }
  // Map plus reduce slots held by running attempts, over all nodes.
  [[nodiscard]] int slots_in_use() const;
  [[nodiscard]] double node_slowdown(dfs::DataNodeId node) const {
    return slow_factor_.at(node);
  }

 private:
  enum class Phase { kMapping, kShuffling, kDone };

  struct Attempt {
    dfs::DataNodeId node = 0;
    SimTime started;
    dfs::Locality locality = dfs::Locality::kRemote;
  };

  struct MapTask {
    dfs::BlockId block = 0;
    Bytes size;
    bool completed = false;
    bool speculating = false;  // a duplicate attempt was requested
    std::vector<Attempt> attempts;
  };

  struct Job {
    JobId id = 0;
    JobSpec spec;
    JobCallback done;
    JobResult result;
    Phase phase = Phase::kMapping;
    std::vector<MapTask> maps;
    std::deque<std::size_t> pending_maps;   // indices into `maps`
    std::int64_t maps_remaining = 0;
    std::int64_t pending_reduces = 0;
    std::int64_t reduces_remaining = 0;
    std::int64_t running_tasks = 0;  // attempts in flight (fair share)
    // Set when a slot scan skipped the entry of a completed task;
    // schedule() then drops such entries once before it returns.
    bool pending_has_completed = false;
    // Running exact median of completed map durations. `shorter_maps` (a
    // max-heap) holds the n/2 smallest values and `longer_maps` (a
    // min-heap) the rest, so longer_maps.top() is the rank-n/2 value: the
    // element nth_element places at n/2 of the sorted durations. O(log n)
    // per completion.
    std::priority_queue<double> shorter_maps;
    std::priority_queue<double, std::vector<double>, std::greater<>>
        longer_maps;
    // Speculation candidates (see is_candidate), ordered by the start of
    // their single attempt, then task index. Elapsed time falls as start
    // time rises, so when a candidate has not overrun factor * median, no
    // later one has: the walk from the oldest entry can stop there and
    // still pick exactly the tasks a scan of every map would. Holds at
    // most one entry per running attempt, so it is bounded by the slots.
    std::set<std::pair<SimTime, std::size_t>> candidates;
    std::vector<Bytes> map_output_at_node;  // indexed by datanode
  };

  // A task speculation may duplicate: still running its only attempt and
  // not yet picked for a duplicate.
  [[nodiscard]] static bool is_candidate(const MapTask& task) {
    return !task.completed && task.attempts.size() == 1 && !task.speculating;
  }
  // Keep Job::candidates in step with one task: drop it before changing
  // the task's attempts or flags, add it back after.
  static void drop_candidate(Job& job, std::size_t task_index);
  static void add_candidate(Job& job, std::size_t task_index);
  static void record_map_seconds(Job& job, double seconds);

  void schedule();  // match free slots to pending work, all jobs
  // Job ids in the order slots should be offered (per config_.job_order).
  [[nodiscard]] std::vector<JobId> job_offer_order() const;
  // Whether any job could take a map (reduce) slot right now.
  [[nodiscard]] bool has_pending_maps() const;
  [[nodiscard]] bool has_pending_reduces() const;
  bool assign_map(Job& job, dfs::DataNodeId node, std::size_t task_index);
  void run_map_attempt(JobId job_id, std::size_t task_index,
                       dfs::DataNodeId node);
  void map_attempt_finished(JobId job_id, std::size_t task_index,
                            const Attempt& attempt);
  void consider_speculation(Job& job);
  void start_shuffle(Job& job);
  void run_reduce(JobId job_id, dfs::DataNodeId node);
  void finish_job(Job& job, Status status);

  [[nodiscard]] int free_map_slots(dfs::DataNodeId node) const;
  [[nodiscard]] int free_reduce_slots(dfs::DataNodeId node) const;

  sim::Simulator& simulator_;
  dfs::DfsCluster& dfs_;
  net::TransferEngine& net_;
  TrackerConfig config_;
  Rng rng_;
  std::map<JobId, Job> jobs_;
  JobId next_id_ = 1;
  std::vector<int> map_slots_in_use_;     // per datanode
  std::vector<int> reduce_slots_in_use_;  // per datanode
  std::vector<double> slow_factor_;       // per datanode

  // Telemetry. Map-task counters are split by the locality the winning
  // attempt achieved — the signal the A1 ablation studies.
  obs::Counter& node_local_maps_metric_;
  obs::Counter& rack_local_maps_metric_;
  obs::Counter& remote_maps_metric_;
  obs::Counter& reduce_tasks_metric_;
  obs::Counter& speculative_launched_metric_;
  obs::Counter& speculative_won_metric_;
  obs::Counter& shuffle_bytes_metric_;
  obs::Counter& jobs_metric_;
  obs::Gauge& running_jobs_metric_;
};

}  // namespace lsdf::mapreduce
