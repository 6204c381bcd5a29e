// PERF: event-kernel throughput.
//
// Every experiment binary in this repo is "push millions of events through
// sim::Simulator and read the clock", so kernel events/sec is the
// denominator of every reproduced figure. This harness measures the three
// hot shapes — pure dispatch, schedule+cancel churn, and a mixed facility
// workload (transfers + resources + periodic ticks) — plus the sharded
// kernel's serial-vs-pooled dispatch, in wall time. The numbers are
// tabled, with their hardware, in EXPERIMENTS.md.
//
// Flags:
//   --quick               CI-sized run (~1s total)
//   --json <path>         write the run's sections and its host to <path>
//                         (nothing is written without it)
//   --floor <file>        key=value file with dispatch_min_meps; exits
//                         non-zero if measured dispatch throughput drops
//                         more than 30% below that floor (CI perf-smoke)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace {

using namespace lsdf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Throughput {
  double events = 0.0;
  double seconds = 0.0;
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0.0 ? events / seconds : 0.0;
  }
  [[nodiscard]] double ns_per_event() const {
    return events > 0.0 ? seconds * 1e9 / events : 0.0;
  }
};

void report(const std::string& name, const Throughput& t) {
  bench::row("%-24s %12.0f events  %8.3f s  %10.0f events/s  %7.1f ns/event",
             name.c_str(), t.events, t.seconds, t.events_per_sec(),
             t.ns_per_event());
}

// --- 1. Pure dispatch: a ring of self-rescheduling timers ---------------------
//
// `width` events stay pending at all times; every dispatch schedules its
// successor. The callback captures 32 bytes (the size class real model
// callbacks occupy: an object pointer plus a few values), so kernels whose
// callback type heap-allocates beyond a 16-byte SBO pay that cost here,
// exactly as the facility models do.
Throughput dispatch_bench(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  std::uint64_t dispatched = 0;
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* dispatched;
    std::uint64_t budget;
    std::uint64_t stride;
    void operator()() const {
      ++*dispatched;
      if (*dispatched + stride <= budget) {
        sim->schedule_after(SimDuration(static_cast<std::int64_t>(stride)),
                            *this);
      }
    }
  };
  for (std::size_t i = 0; i < width; ++i) {
    sim.schedule_after(
        SimDuration(static_cast<std::int64_t>(i + 1)),
        Chain{&sim, &dispatched, total_events, width});
  }
  const auto start = Clock::now();
  sim.run();
  return Throughput{static_cast<double>(dispatched), seconds_since(start)};
}

// --- 2. Schedule + cancel churn ----------------------------------------------
//
// Models arm timeouts far more often than they fire them (retry deadlines,
// completion watchdogs): schedule a batch, cancel it all, repeat. Measures
// slab/bookkeeping cost with no dispatch at all.
Throughput schedule_cancel_bench(std::uint64_t rounds, std::size_t batch) {
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  ids.reserve(batch);
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    ids.clear();
    for (std::size_t i = 0; i < batch; ++i) {
      ids.push_back(sim.schedule_after(SimDuration(1'000'000), [] {}));
    }
    // Cancel in reverse so the queue keeps lazily-discarded entries around,
    // like real workloads do.
    for (std::size_t i = batch; i-- > 0;) {
      if (sim.cancel(ids[i])) ++ops;
    }
  }
  sim.run();
  return Throughput{static_cast<double>(ops * 2), seconds_since(start)};
}

// --- 3. Mixed facility workload ----------------------------------------------
//
// A scaled-down facility tick: weighted max-min transfers over a shared
// star core, tape-drive style resource contention, and periodic monitor
// ticks — the event mix bench_e2/bench_a5 are made of.
Throughput mixed_facility_bench(int waves, int flows_per_wave) {
  sim::Simulator sim;
  net::Topology topo;
  const net::NodeId core = topo.add_node("core");
  std::vector<net::NodeId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(topo.add_node("leaf" + std::to_string(i)));
    topo.add_duplex_link(core, leaves.back(), Rate::gigabits_per_second(10.0),
                         1_ms);
  }
  net::TransferEngine engine(sim, topo);
  sim::Resource drives(sim, 6, "tape_drives");
  sim::PeriodicTask monitor(sim, 10_s, [] {});
  monitor.start_at(SimTime::zero() + 10_s,
                   SimTime::zero() + SimDuration::from_seconds(3600.0));

  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  int completed = 0;
  for (int wave = 0; wave < waves; ++wave) {
    const auto wave_start =
        SimDuration::from_seconds(static_cast<double>(wave) * 2.0);
    for (int f = 0; f < flows_per_wave; ++f) {
      const std::size_t src = next() % leaves.size();
      std::size_t dst = next() % leaves.size();
      if (dst == src) dst = (dst + 1) % leaves.size();
      net::TransferOptions options;
      options.weight = 1.0 + static_cast<double>(next() % 4);
      const Bytes size(static_cast<std::int64_t>(next() % (64 << 20)) + 1);
      sim.schedule_after(
          wave_start + SimDuration(static_cast<std::int64_t>(next() % 1000)),
          [&engine, &sim, &drives, &completed, src_node = leaves[src],
           dst_node = leaves[dst], size, options] {
            drives.acquire(1, [&engine, &sim, &drives, &completed, src_node,
                              dst_node, size, options] {
              (void)engine.start_transfer(
                  src_node, dst_node, size, options,
                  [&sim, &drives, &completed](const net::TransferCompletion&) {
                    ++completed;
                    sim.schedule_after(1_ms, [&drives] { drives.release(1); });
                  });
            });
          });
    }
  }
  const auto start = Clock::now();
  sim.run();
  const Throughput t{static_cast<double>(sim.executed_events()),
                     seconds_since(start)};
  LSDF_REQUIRE(completed == waves * flows_per_wave,
               "mixed facility workload lost transfers");
  return t;
}

// --- 4. Sharded dispatch: worker-count scaling of the parallel kernel ---------
//
// The dispatch_bench workload partitioned over a 4-shard
// sim::ShardedSimulator, with a cross-shard mailbox ring ping riding along
// so every synchronization window carries real mail. Run twice — serially
// on the caller thread (the single-threaded oracle) and fanned out on an
// exec::ThreadPool — and the merged fingerprints must be byte-identical;
// the ratio of the two wall times is the kernel's parallel speedup.
struct ShardedOutcome {
  Throughput throughput;
  std::uint64_t fingerprint = 0;
};

ShardedOutcome sharded_dispatch_bench(std::uint32_t shards,
                                      std::uint64_t events_per_shard,
                                      std::size_t width,
                                      lsdf::exec::ThreadPool* pool) {
  // 100 µs lookahead → ~width·100k-event shard-windows: long enough to
  // amortize the barrier, short enough that a run crosses many of them.
  const SimDuration lookahead(100'000);
  sim::ShardedSimulator sharded(shards, lookahead, pool);
  struct alignas(64) ShardCount {
    std::uint64_t value = 0;
  };
  std::vector<ShardCount> dispatched(shards);
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t* dispatched;
    std::uint64_t budget;
    std::uint64_t stride;
    void operator()() const {
      ++*dispatched;
      if (*dispatched + stride <= budget) {
        sim->schedule_after(SimDuration(static_cast<std::int64_t>(stride)),
                            *this);
      }
    }
  };
  for (std::uint32_t s = 0; s < shards; ++s) {
    sim::Simulator& shard_sim = sharded.shard(s);
    for (std::size_t i = 0; i < width; ++i) {
      sharded.seed(s, SimTime(static_cast<std::int64_t>(i + 1)),
                   Chain{&shard_sim, &dispatched[s].value, events_per_shard,
                         width});
    }
  }
  struct Ping {
    sim::ShardedSimulator* world;
    std::uint64_t remaining;
    std::uint32_t at;
    void operator()() const {
      if (remaining == 0) return;
      const std::uint32_t next = (at + 1) % world->shard_count();
      world->post(at, next, world->lookahead(),
                  Ping{world, remaining - 1, next});
    }
  };
  sharded.seed(0, SimTime(1), Ping{&sharded, shards * 64ULL, 0});
  const auto start = Clock::now();
  const auto executed = static_cast<double>(sharded.run());
  ShardedOutcome outcome{Throughput{executed, seconds_since(start)},
                         sharded.fingerprint()};
  std::uint64_t chained = 0;
  for (const ShardCount& c : dispatched) chained += c.value;
  LSDF_REQUIRE(chained >= static_cast<std::uint64_t>(shards) *
                              (events_per_shard - width),
               "sharded dispatch chains lost events");
  return outcome;
}

// Serial-vs-pooled pair; REQUIREs worker-count-invariant fingerprints (the
// acceptance property, enforced on every bench and TSan-smoke run).
void run_sharded_dispatch(std::uint64_t events_per_shard,
                          lsdf::bench::JsonReport& json) {
  constexpr std::uint32_t kShards = 4;
  const unsigned hw = lsdf::exec::ThreadPool::default_thread_count();
  const unsigned workers = std::min<unsigned>(kShards, hw);
  const ShardedOutcome serial =
      sharded_dispatch_bench(kShards, events_per_shard, 256, nullptr);
  report("sharded serial", serial.throughput);
  lsdf::exec::ThreadPool pool(workers);
  const ShardedOutcome parallel =
      sharded_dispatch_bench(kShards, events_per_shard, 256, &pool);
  report("sharded x" + std::to_string(workers), parallel.throughput);
  LSDF_REQUIRE(serial.fingerprint == parallel.fingerprint,
               "sharded run diverged from the single-threaded oracle");
  const double speedup =
      parallel.throughput.seconds > 0.0
          ? serial.throughput.seconds / parallel.throughput.seconds
          : 0.0;
  if (workers == 1) {
    // One hardware thread: the pooled run degenerates to the same serial
    // loop (ShardedSimulator spawns pool_threads - 1 extra executors), so
    // ~1.0x is the *correct* number, not a regression — record it as such
    // instead of pretending a scaling measurement happened.
    lsdf::bench::row("sharded fingerprint: %016llx (serial == x1); single "
                     "hw thread — speedup not expected, ratio %.2fx",
                     static_cast<unsigned long long>(serial.fingerprint),
                     speedup);
  } else {
    lsdf::bench::row("sharded fingerprint: %016llx (serial == x%u), "
                     "speedup %.2fx on %u hw threads",
                     static_cast<unsigned long long>(serial.fingerprint),
                     workers, speedup, hw);
  }
  json.add("perf_sharded_dispatch",
           {{"shards", static_cast<double>(kShards)},
            {"workers", static_cast<double>(workers)},
            {"hw_threads", static_cast<double>(hw)},
            {"events", parallel.throughput.events},
            {"serial_events_per_sec", serial.throughput.events_per_sec()},
            {"parallel_events_per_sec",
             parallel.throughput.events_per_sec()},
            {"speedup", speedup},
            {"speedup_expected", workers > 1 ? 1.0 : 0.0}});
}

double parse_floor(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream parts(line);
    std::string key, eq;
    double value = 0.0;
    if (parts >> key >> eq >> value && key == "dispatch_min_meps") {
      return value * 1e6;
    }
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const lsdf::bench::Flags flags(
      argc, argv,
      lsdf::bench::obs_flags({{"--quick"},
                              {"--sharded-smoke"},
                              {"--floor", true},
                              {"--json", true}}));
  const auto obs = lsdf::bench::obs_init(flags);
  const bool quick = flags.has("--quick");
  const bool sharded_smoke = flags.has("--sharded-smoke");
  lsdf::bench::JsonReport json(flags);
  const std::string floor_path = flags.value("--floor");

  if (sharded_smoke) {
    // TSan/CI mode: only the parallel kernel, small, no report file — the
    // point is racing the window workers under the sanitizer and REQUIREing
    // the worker-count-invariant fingerprint, not a timing.
    lsdf::bench::headline("PERF — sharded kernel smoke (determinism + races)",
                          "serial vs pooled fingerprints must match");
    lsdf::bench::section("sharded smoke");
    run_sharded_dispatch(200'000, json);
    return 0;
  }

  lsdf::bench::headline(
      "PERF — event kernel throughput (dispatch / churn / facility mix)",
      "every reproduced figure divides by kernel events/sec");

  const std::uint64_t dispatch_events = quick ? 1'000'000 : 8'000'000;
  const std::uint64_t churn_rounds = quick ? 400 : 3'000;
  const int waves = quick ? 40 : 150;

  lsdf::bench::section("throughput");
  const Throughput dispatch = dispatch_bench(dispatch_events, 1024);
  report("dispatch", dispatch);
  // Sampled here so the dispatch section reports its own fallbacks (the
  // 32-byte chain capture must stay inline → 0). The facility-mix bench
  // below legitimately heap-allocates a handful of fat cold-path captures
  // per transfer (TransferEngine join lambdas), which would otherwise
  // drown the signal this gauge exists for.
  const auto dispatch_heap_callbacks =
      lsdf::obs::MetricsRegistry::global().counter_value(
          "lsdf_sim_callback_heap_total");
  const Throughput churn = schedule_cancel_bench(churn_rounds, 1024);
  report("schedule+cancel", churn);
  const Throughput mixed = mixed_facility_bench(waves, 64);
  report("mixed facility", mixed);
  run_sharded_dispatch(quick ? 1'000'000 : 4'000'000, json);

  const auto heap_callbacks =
      lsdf::obs::MetricsRegistry::global().counter_value(
          "lsdf_sim_callback_heap_total");
  lsdf::bench::row("callback heap fallbacks: %lld (32-byte captures must "
                   "stay inline)",
                   static_cast<long long>(heap_callbacks));

  json.add("perf_dispatch",
           {{"events", dispatch.events},
            {"events_per_sec", dispatch.events_per_sec()},
            {"ns_per_event", dispatch.ns_per_event()},
            {"callback_heap_total",
             static_cast<double>(dispatch_heap_callbacks)}});
  json.add("perf_schedule_cancel",
           {{"ops", churn.events},
            {"ops_per_sec", churn.events_per_sec()},
            {"ns_per_op", churn.ns_per_event()}});
  json.add("perf_mixed_facility",
           {{"events", mixed.events},
            {"events_per_sec", mixed.events_per_sec()},
            {"ns_per_event", mixed.ns_per_event()}});
  json.write();
  lsdf::bench::obs_dump(obs);

  if (!floor_path.empty()) {
    const double floor = parse_floor(floor_path);
    if (floor <= 0.0) {
      lsdf::bench::row("floor: no dispatch_min_meps in %s", floor_path.c_str());
      return 2;
    }
    // Non-gating smoke: only a >30% regression below the checked-in floor
    // fails, so shared-runner noise does not.
    if (dispatch.events_per_sec() < 0.7 * floor) {
      lsdf::bench::row("floor: FAIL dispatch %.0f events/s < 70%% of floor "
                       "%.0f events/s",
                       dispatch.events_per_sec(), floor);
      return 1;
    }
    lsdf::bench::row("floor: ok (%.1fx of floor)",
                     dispatch.events_per_sec() / floor);
  }
  return 0;
}
