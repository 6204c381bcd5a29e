#include "mapreduce/job_tracker.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"

namespace lsdf::mapreduce {
namespace {
obs::Counter& locality_counter(const char* locality) {
  return obs::MetricsRegistry::global().counter(
      "lsdf_mapreduce_map_tasks_total", {{"locality", locality}});
}
}  // namespace

JobTracker::JobTracker(sim::Simulator& simulator, dfs::DfsCluster& dfs,
                       net::TransferEngine& net, TrackerConfig config)
    : simulator_(simulator),
      dfs_(dfs),
      net_(net),
      config_(config),
      rng_(config.seed),
      map_slots_in_use_(dfs.datanode_count(), 0),
      reduce_slots_in_use_(dfs.datanode_count(), 0),
      node_local_maps_metric_(locality_counter("node")),
      rack_local_maps_metric_(locality_counter("rack")),
      remote_maps_metric_(locality_counter("remote")),
      reduce_tasks_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_mapreduce_reduce_tasks_total")),
      speculative_launched_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_mapreduce_speculative_launched_total")),
      speculative_won_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_mapreduce_speculative_won_total")),
      shuffle_bytes_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_mapreduce_shuffle_bytes_total")),
      jobs_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_mapreduce_jobs_total")),
      running_jobs_metric_(obs::MetricsRegistry::global().gauge(
          "lsdf_mapreduce_running_jobs")) {
  LSDF_REQUIRE(dfs.datanode_count() > 0,
               "register datanodes before constructing the tracker");
  LSDF_REQUIRE(config_.map_slots_per_node > 0, "need map slots");
  LSDF_REQUIRE(config_.reduce_slots_per_node > 0, "need reduce slots");
  LSDF_REQUIRE(config_.straggler_fraction >= 0.0 &&
                   config_.straggler_fraction < 1.0,
               "straggler fraction out of range");
  slow_factor_.reserve(dfs.datanode_count());
  for (std::size_t i = 0; i < dfs.datanode_count(); ++i) {
    slow_factor_.push_back(rng_.chance(config_.straggler_fraction)
                               ? config_.straggler_slowdown
                               : 1.0);
  }
}

int JobTracker::free_map_slots(dfs::DataNodeId node) const {
  if (!dfs_.datanode_alive(node)) return 0;
  return config_.map_slots_per_node - map_slots_in_use_[node];
}

int JobTracker::free_reduce_slots(dfs::DataNodeId node) const {
  if (!dfs_.datanode_alive(node)) return 0;
  return config_.reduce_slots_per_node - reduce_slots_in_use_[node];
}

int JobTracker::slots_in_use() const {
  int in_use = 0;
  for (const int slots : map_slots_in_use_) in_use += slots;
  for (const int slots : reduce_slots_in_use_) in_use += slots;
  return in_use;
}

JobId JobTracker::submit(const JobSpec& spec, JobCallback done) {
  const JobId id = next_id_++;
  Job job;
  job.id = id;
  job.spec = spec;
  job.done = std::move(done);
  job.result.id = id;
  job.result.name = spec.name;
  job.result.submitted = simulator_.now();
  job.map_output_at_node.assign(dfs_.datanode_count(), Bytes::zero());

  const auto info = dfs_.stat(spec.input_path);
  if (!info.is_ok()) {
    job.result.status = info.status();
    jobs_.emplace(id, std::move(job));
    simulator_.schedule_after(SimDuration::zero(), [this, id] {
      const auto it = jobs_.find(id);
      if (it != jobs_.end()) finish_job(it->second, it->second.result.status);
    });
    return id;
  }
  for (const dfs::BlockId block : info.value().blocks) {
    MapTask task;
    task.block = block;
    task.size = dfs_.block(block).value().size;
    job.result.input_bytes += task.size;
    job.maps.push_back(task);
  }
  job.maps_remaining = static_cast<std::int64_t>(job.maps.size());
  job.result.map_tasks = job.maps_remaining;
  job.result.reduce_tasks = spec.reduce_tasks;
  for (std::size_t i = 0; i < job.maps.size(); ++i) {
    job.pending_maps.push_back(i);
  }
  jobs_.emplace(id, std::move(job));
  running_jobs_metric_.set(static_cast<double>(jobs_.size()));
  simulator_.schedule_after(SimDuration::zero(), [this] { schedule(); });
  return id;
}

bool JobTracker::has_pending_maps() const {
  return std::any_of(jobs_.begin(), jobs_.end(), [](const auto& entry) {
    return entry.second.phase == Phase::kMapping &&
           !entry.second.pending_maps.empty();
  });
}

bool JobTracker::has_pending_reduces() const {
  return std::any_of(jobs_.begin(), jobs_.end(), [](const auto& entry) {
    return entry.second.phase == Phase::kShuffling &&
           entry.second.pending_reduces > 0;
  });
}

std::vector<JobId> JobTracker::job_offer_order() const {
  std::vector<JobId> order;
  order.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) order.push_back(id);
  if (config_.job_order == JobOrder::kFairShare) {
    // Fewest running tasks first; submission order breaks ties (std::map
    // iteration gave us ascending ids, and stable_sort keeps that).
    std::stable_sort(order.begin(), order.end(),
                     [this](JobId a, JobId b) {
                       return jobs_.at(a).running_tasks <
                              jobs_.at(b).running_tasks;
                     });
  }
  return order;
}

void JobTracker::schedule() {
  // Offer every free slot to the jobs in policy order (FIFO or fair
  // share). Locality-aware scheduling scans a node's free slots against
  // each job's pending tasks, preferring node-local, then rack-local,
  // then remote work.
  bool assigned_any = true;
  while (assigned_any) {
    assigned_any = false;
    for (dfs::DataNodeId node = 0; node < map_slots_in_use_.size(); ++node) {
      // The offer order is rebuilt per slot (fair share re-sorts after each
      // assignment), so skip the loops outright when no job has such work.
      while (has_pending_maps() && free_map_slots(node) > 0) {
        bool assigned = false;
        for (const JobId offered_id : job_offer_order()) {
          auto& job = jobs_.at(offered_id);
          if (job.phase != Phase::kMapping || job.pending_maps.empty()) {
            continue;
          }
          // A task is eligible on `node` unless it already completed or an
          // attempt of it is running there (speculative duplicates must go
          // to a different node). Completed entries are skipped rather than
          // purged per offer, which would cost a pass over the whole list;
          // schedule() drops them once before it returns.
          auto eligible = [&](std::size_t task_index) {
            const MapTask& task = job.maps[task_index];
            if (task.completed) {
              job.pending_has_completed = true;
              return false;
            }
            for (const Attempt& attempt : task.attempts) {
              if (attempt.node == node) return false;
            }
            return true;
          };
          std::size_t chosen_pos = job.pending_maps.size();
          if (job.spec.scheduler == SchedulerPolicy::kRandom) {
            std::vector<std::size_t> candidates;
            for (std::size_t pos = 0; pos < job.pending_maps.size(); ++pos) {
              if (eligible(job.pending_maps[pos])) candidates.push_back(pos);
            }
            if (!candidates.empty()) {
              chosen_pos = candidates[rng_.index(candidates.size())];
            }
          } else {
            dfs::Locality best = dfs::Locality::kRemote;
            for (std::size_t pos = 0; pos < job.pending_maps.size(); ++pos) {
              if (!eligible(job.pending_maps[pos])) continue;
              const MapTask& task = job.maps[job.pending_maps[pos]];
              const dfs::Locality loc =
                  dfs_.block_locality(task.block, node);
              if (chosen_pos == job.pending_maps.size() || loc < best) {
                best = loc;
                chosen_pos = pos;
                if (best == dfs::Locality::kNodeLocal) break;
              }
            }
          }
          if (chosen_pos == job.pending_maps.size()) continue;
          const std::size_t task_index = job.pending_maps[chosen_pos];
          job.pending_maps.erase(job.pending_maps.begin() +
                                 static_cast<std::ptrdiff_t>(chosen_pos));
          assign_map(job, node, task_index);
          assigned = true;
          assigned_any = true;
          break;
        }
        if (!assigned) break;
      }
      while (has_pending_reduces() && free_reduce_slots(node) > 0) {
        bool assigned = false;
        for (const JobId offered_id : job_offer_order()) {
          auto& job = jobs_.at(offered_id);
          if (job.phase != Phase::kShuffling || job.pending_reduces == 0) {
            continue;
          }
          --job.pending_reduces;
          ++job.running_tasks;
          ++reduce_slots_in_use_[node];
          run_reduce(offered_id, node);
          assigned = true;
          assigned_any = true;
          break;
        }
        if (!assigned) break;
      }
    }
  }
  for (auto& [id, job] : jobs_) {
    if (!job.pending_has_completed) continue;
    std::erase_if(job.pending_maps, [&](std::size_t task_index) {
      return job.maps[task_index].completed;
    });
    job.pending_has_completed = false;
  }
}

bool JobTracker::assign_map(Job& job, dfs::DataNodeId node,
                            std::size_t task_index) {
  MapTask& task = job.maps[task_index];
  if (task.completed) return false;
  // A speculative duplicate must run on a different node.
  for (const Attempt& attempt : task.attempts) {
    if (attempt.node == node) return false;
  }
  drop_candidate(job, task_index);
  if (!task.attempts.empty()) {
    ++job.result.speculative_launched;
    speculative_launched_metric_.add(1);
    task.speculating = true;
  }
  ++map_slots_in_use_[node];
  ++job.running_tasks;
  run_map_attempt(job.id, task_index, node);
  return true;
}

void JobTracker::run_map_attempt(JobId job_id, std::size_t task_index,
                                 dfs::DataNodeId node) {
  Job& job = jobs_.at(job_id);
  MapTask& task = job.maps[task_index];
  Attempt attempt;
  attempt.node = node;
  attempt.started = simulator_.now();
  attempt.locality = dfs_.block_locality(task.block, node);
  task.attempts.push_back(attempt);
  add_candidate(job, task_index);

  // Phase 1: pull the block (free when node-local thanks to replica choice).
  dfs_.read_block(
      task.block, dfs_.datanode_location(node),
      [this, job_id, task_index, attempt](const dfs::DfsIoResult& read) {
        const auto job_it = jobs_.find(job_id);
        if (job_it == jobs_.end()) {
          --map_slots_in_use_[attempt.node];
          schedule();
          return;
        }
        if (!read.status.is_ok()) {
          // read_block already tried every replica: the block is lost
          // (all down or all corrupt), and a retry would fail the same way
          // at the same instant. Fail the job, as Hadoop does once a task
          // exhausts its attempts. A sibling that already finished the task
          // makes the lost block moot.
          --map_slots_in_use_[attempt.node];
          Job& job = job_it->second;
          --job.running_tasks;
          if (!job.maps[task_index].completed) finish_job(job, read.status);
          schedule();
          return;
        }
        // Phase 2: crunch the block at the node's effective rate.
        Job& job = job_it->second;
        const MapTask& task = job.maps[task_index];
        const double seconds =
            task.size.as_double() / job.spec.map_rate.bps() *
            slow_factor_[attempt.node];
        simulator_.schedule_after(
            job.spec.task_overhead + SimDuration::from_seconds(seconds),
            [this, job_id, task_index, attempt] {
              map_attempt_finished(job_id, task_index, attempt);
            });
      });
}

void JobTracker::map_attempt_finished(JobId job_id, std::size_t task_index,
                                      const Attempt& attempt) {
  --map_slots_in_use_[attempt.node];
  const auto job_it = jobs_.find(job_id);
  if (job_it == jobs_.end()) {
    schedule();
    return;
  }
  Job& job = job_it->second;
  --job.running_tasks;
  MapTask& task = job.maps[task_index];
  if (task.completed) {
    // A speculative sibling already won.
    schedule();
    return;
  }
  drop_candidate(job, task_index);
  task.completed = true;
  // A speculation "win" means a duplicate attempt beat the original.
  if (task.attempts.size() > 1 &&
      !(attempt.node == task.attempts.front().node &&
        attempt.started == task.attempts.front().started)) {
    ++job.result.speculative_won;
    speculative_won_metric_.add(1);
  }
  switch (attempt.locality) {
    case dfs::Locality::kNodeLocal:
      ++job.result.node_local_maps;
      node_local_maps_metric_.add(1);
      break;
    case dfs::Locality::kRackLocal:
      ++job.result.rack_local_maps;
      rack_local_maps_metric_.add(1);
      break;
    case dfs::Locality::kRemote:
      ++job.result.remote_maps;
      remote_maps_metric_.add(1);
      break;
  }
  record_map_seconds(job, (simulator_.now() - attempt.started).seconds());
  const auto output = Bytes(static_cast<std::int64_t>(
      task.size.as_double() * job.spec.map_output_ratio));
  job.map_output_at_node[attempt.node] += output;
  job.result.shuffle_bytes += output;
  shuffle_bytes_metric_.add(output.count());
  --job.maps_remaining;

  if (job.maps_remaining == 0) {
    start_shuffle(job);
  } else {
    consider_speculation(job);
  }
  schedule();
}

void JobTracker::drop_candidate(Job& job, std::size_t task_index) {
  const MapTask& task = job.maps[task_index];
  if (is_candidate(task)) {
    job.candidates.erase({task.attempts.front().started, task_index});
  }
}

void JobTracker::add_candidate(Job& job, std::size_t task_index) {
  const MapTask& task = job.maps[task_index];
  if (is_candidate(task)) {
    job.candidates.emplace(task.attempts.front().started, task_index);
  }
}

void JobTracker::record_map_seconds(Job& job, double seconds) {
  auto& shorter = job.shorter_maps;
  auto& longer = job.longer_maps;
  if (!longer.empty() && seconds < longer.top()) {
    shorter.push(seconds);
  } else {
    longer.push(seconds);
  }
  const std::size_t half = (shorter.size() + longer.size()) / 2;
  while (shorter.size() > half) {
    longer.push(shorter.top());
    shorter.pop();
  }
  while (shorter.size() < half) {
    shorter.push(longer.top());
    longer.pop();
  }
}

void JobTracker::consider_speculation(Job& job) {
  if (!job.spec.speculative_execution) return;
  if (job.shorter_maps.size() + job.longer_maps.size() < 3) return;
  const double threshold =
      job.spec.speculation_factor * job.longer_maps.top();
  // Oldest attempt first; the first one within the threshold ends the walk.
  std::vector<std::size_t> overrun;
  auto stop = job.candidates.begin();
  for (; stop != job.candidates.end(); ++stop) {
    const double elapsed = (simulator_.now() - stop->first).seconds();
    if (!(elapsed > threshold)) break;
    overrun.push_back(stop->second);
  }
  job.candidates.erase(job.candidates.begin(), stop);
  // Queue duplicates in task order, as a scan over every map would.
  std::sort(overrun.begin(), overrun.end());
  for (const std::size_t task_index : overrun) {
    job.maps[task_index].speculating = true;
    job.pending_maps.push_back(task_index);
  }
}

void JobTracker::start_shuffle(Job& job) {
  job.phase = Phase::kShuffling;
  if (job.spec.reduce_tasks <= 0) {
    finish_job(job, Status::ok());
    return;
  }
  job.pending_reduces = job.spec.reduce_tasks;
  job.reduces_remaining = job.spec.reduce_tasks;
}

void JobTracker::run_reduce(JobId job_id, dfs::DataNodeId node) {
  Job& job = jobs_.at(job_id);
  // This reducer owns 1/R of every mapper's output.
  const auto reduce_count = static_cast<std::int64_t>(job.spec.reduce_tasks);
  std::vector<std::pair<dfs::DataNodeId, Bytes>> fetches;
  Bytes total;
  for (dfs::DataNodeId source = 0; source < job.map_output_at_node.size();
       ++source) {
    const Bytes share = job.map_output_at_node[source] / reduce_count;
    if (share <= Bytes::zero()) continue;
    total += share;
    if (source != node) fetches.emplace_back(source, share);
  }

  auto pending = std::make_shared<int>(static_cast<int>(fetches.size()) + 1);
  auto when_fetched = [this, job_id, node, total, pending] {
    if (--*pending != 0) return;
    const auto job_it = jobs_.find(job_id);
    if (job_it == jobs_.end()) {
      --reduce_slots_in_use_[node];
      schedule();
      return;
    }
    Job& job = job_it->second;
    const double seconds = total.as_double() / job.spec.reduce_rate.bps() *
                           slow_factor_[node];
    simulator_.schedule_after(
        job.spec.task_overhead + SimDuration::from_seconds(seconds),
        [this, job_id, node] {
          --reduce_slots_in_use_[node];
          const auto it = jobs_.find(job_id);
          if (it == jobs_.end()) {
            schedule();
            return;
          }
          --it->second.running_tasks;
          reduce_tasks_metric_.add(1);
          if (--it->second.reduces_remaining == 0) {
            finish_job(it->second, Status::ok());
          }
          schedule();
        });
  };
  for (const auto& [source, share] : fetches) {
    const auto flow = net_.start_transfer(
        dfs_.datanode_location(source), dfs_.datanode_location(node), share,
        net::TransferOptions{},
        [when_fetched](const net::TransferCompletion&) { when_fetched(); });
    LSDF_REQUIRE(flow.is_ok(), "no route for shuffle");
  }
  when_fetched();  // the +1 sentinel: local share needs no transfer
}

void JobTracker::finish_job(Job& job, Status status) {
  job.result.status = status;
  job.result.finished = simulator_.now();
  job.phase = Phase::kDone;
  const JobResult result = job.result;
  JobCallback done = std::move(job.done);
  jobs_.erase(job.id);
  jobs_metric_.add(1);
  running_jobs_metric_.set(static_cast<double>(jobs_.size()));
  // One span per job over simulated time (sim-clocked tracers only).
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_complete(
        result.name.empty() ? "job" : result.name, "mapreduce",
        result.submitted.nanos() / 1000,
        (result.finished - result.submitted).nanos() / 1000,
        {{"maps", std::to_string(result.map_tasks)},
         {"reduces", std::to_string(result.reduce_tasks)},
         {"shuffle_bytes", std::to_string(result.shuffle_bytes.count())}});
  }
  if (done) done(result);
}

}  // namespace lsdf::mapreduce
