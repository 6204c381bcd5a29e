// PERF: event-kernel throughput.
//
// Every experiment binary in this repo is "push millions of events through
// sim::Simulator and read the clock", so kernel events/sec is the
// denominator of every reproduced figure. This harness measures the three
// hot shapes — pure dispatch, schedule+cancel churn, and a mixed facility
// workload (transfers + resources + periodic ticks) — plus the sharded
// kernel's serial-vs-pooled run of a 4-site fabric, in wall time and CPU
// time. The numbers are tabled, with their hardware, in EXPERIMENTS.md.
//
// Flags:
//   --quick               CI-sized run (~1s total)
//   --sharded-smoke       only the sharded section, small (TSan, ctest)
//   --json <path>         write the run's sections and its host to <path>
//                         (nothing is written without it)
//   --floor <file>        key=value file with dispatch_min_meps; exits
//                         non-zero if measured dispatch throughput drops
//                         more than 30% below that floor (CI perf-smoke)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/require.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "obs/metrics.h"
#include "sim/partition.h"
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

Throughput dispatch_bench(std::uint64_t total_events, std::size_t width) {
  sim::Simulator sim;
  std::uint64_t dispatched = 0;
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

// --- 4. Sharded kernel: a 4-site fabric, serial oracle vs worker pool --------
//
// The LSDF "sites" shape built with sim::Partitioner: per site a gateway
// router plus a local 10 GE star of racks, the gateways joined into a WAN
// ring whose latency becomes the derived pair lookahead. Each site is one
// shard running detector readout chains (the event-rate floor, the
// dispatch_bench shape), waves of local transfers through its own
// net::TransferEngine and a periodic monitor; every 4th completed transfer
// replicates to the next site through the Partition's deterministic mailbox
// (a post_notice plus a post_transfer), so windows carry real cross-site
// mail. The world runs twice — serially on the caller thread (the oracle)
// and on an exec::ThreadPool — and the merged fingerprints must be
// byte-identical (worker-count invariance, DESIGN.md §5c). Only the
// per-site readout event count varies between full, --quick and smoke runs.
constexpr std::uint32_t kSites = 4;
constexpr std::uint32_t kRacksPerSite = 4;
constexpr SimDuration kWanLatency = 10_ms;
constexpr SimDuration kLocalLatency = SimDuration(50'000);  // rack uplink
constexpr Rate kLinkCapacity = Rate::gigabits_per_second(10.0);
constexpr std::size_t kReadoutChains = 256;
constexpr int kTransferWaves = 6;
constexpr int kTransfersPerWave = 24;
constexpr std::uint64_t kReplicateEvery = 4;
constexpr Bytes kReplicaSize = 2_GB;
constexpr SimDuration kMonitorPeriod = 10_s;
constexpr SimDuration kHorizon = 600_s;

struct ShardedRun {
  Throughput throughput;
  double cpu_seconds = 0.0;  // process CPU time (all threads) over the run
  std::uint64_t fingerprint = 0;
  std::uint64_t mail_delivered = 0;
  std::uint64_t windows_run = 0;
  std::uint64_t idle_windows_skipped = 0;
  SimDuration pair_lookahead;
};

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Per-site mutable state; cache-line aligned because neighbouring sites
// execute on different workers.
struct alignas(64) SiteCounters {
  std::uint64_t readout = 0;
  std::uint64_t transfers = 0;
  std::uint64_t replicas = 0;
  std::uint64_t notices = 0;
};

ShardedRun sharded_fabric_bench(std::uint64_t readout_events,
                                exec::ThreadPool* pool) {
  // Facility-wide topology: the Partitioner derives the coupling matrix
  // from it. Per-site local stars plus the WAN gateway ring.
  net::Topology topo;
  sim::Partitioner partitioner;
  std::vector<net::NodeId> gateways;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    const net::NodeId gw = topo.add_node("site" + std::to_string(s) + "-gw");
    gateways.push_back(gw);
    const sim::SiteId site =
        partitioner.add_site("site" + std::to_string(s), gw);
    for (std::uint32_t r = 0; r < kRacksPerSite; ++r) {
      const net::NodeId rack = topo.add_node(
          "site" + std::to_string(s) + "-rack" + std::to_string(r));
      topo.add_duplex_link(gw, rack, kLinkCapacity, kLocalLatency);
      partitioner.assign(rack, site);
    }
  }
  for (std::uint32_t s = 0; s < kSites; ++s) {
    topo.add_duplex_link(gateways[s], gateways[(s + 1) % kSites],
                         kLinkCapacity, kWanLatency);
  }

  Result<sim::Partition> built = partitioner.build(topo, pool);
  LSDF_REQUIRE(built.is_ok(), "partition build failed: " +
                                  built.status().message());
  sim::Partition& partition = built.value();

  // Shard-local models: each site gets its *own* local topology and
  // transfer engine (shard state must never be shared — the WAN leg is the
  // Partition mailbox, not a shared engine). Local node ids: gw = 0, racks
  // = 1..kRacksPerSite.
  std::vector<SiteCounters> counters(kSites);
  std::vector<std::unique_ptr<net::Topology>> local_topos;
  std::vector<std::unique_ptr<net::TransferEngine>> engines;
  std::vector<std::unique_ptr<sim::PeriodicTask>> monitors;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    auto local = std::make_unique<net::Topology>();
    const net::NodeId gw = local->add_node("gw");
    for (std::uint32_t r = 0; r < kRacksPerSite; ++r) {
      const net::NodeId rack = local->add_node("rack" + std::to_string(r));
      local->add_duplex_link(gw, rack, kLinkCapacity, kLocalLatency);
    }
    engines.push_back(std::make_unique<net::TransferEngine>(
        partition.site_sim(s), *local));
    local_topos.push_back(std::move(local));
    monitors.push_back(std::make_unique<sim::PeriodicTask>(
        partition.site_sim(s), kMonitorPeriod, [] {}));
    monitors.back()->start_at(SimTime::zero() + kMonitorPeriod,
                              SimTime::zero() + kHorizon);
  }

  for (std::uint32_t s = 0; s < kSites; ++s) {
    sim::Simulator& site_sim = partition.site_sim(s);
    for (std::size_t i = 0; i < kReadoutChains; ++i) {
      partition.sharded().seed(
          s, SimTime(static_cast<std::int64_t>(i + 1)),
          Chain{&site_sim, &counters[s].readout, readout_events,
                kReadoutChains});
    }
  }

  // Local transfer waves; all randomness is a per-site LCG, so the
  // schedule is a pure function of the site.
  for (std::uint32_t s = 0; s < kSites; ++s) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ (s * 0xbf58476d1ce4e5b9ULL);
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 33;
    };
    sim::Partition* part = &partition;
    net::TransferEngine* engine = engines[s].get();
    SiteCounters* count = &counters[s];
    const std::uint32_t to = (s + 1) % kSites;
    SiteCounters* remote = &counters[to];
    for (int wave = 0; wave < kTransferWaves; ++wave) {
      for (int f = 0; f < kTransfersPerWave; ++f) {
        const std::size_t src = next() % kRacksPerSite;
        std::size_t dst = next() % kRacksPerSite;
        if (dst == src) dst = (dst + 1) % kRacksPerSite;
        const Bytes size(static_cast<std::int64_t>(next() % (64 << 20)) + 1);
        const auto when =
            SimTime::zero() +
            SimDuration::from_seconds(static_cast<double>(wave) * 30.0) +
            SimDuration(static_cast<std::int64_t>(next() % 1'000'000));
        partition.sharded().seed(s, when, [part, engine, count, remote, s, to,
                                           src, dst, size] {
          (void)engine->start_transfer(
              static_cast<net::NodeId>(src + 1),
              static_cast<net::NodeId>(dst + 1), size, {},
              [part, count, remote, s, to](const net::TransferCompletion&) {
                if (++count->transfers % kReplicateEvery != 0) return;
                part->post_notice(s, to, [remote] { ++remote->notices; });
                part->post_transfer(s, to, kReplicaSize,
                                    [remote] { ++remote->replicas; });
              });
        });
      }
    }
  }

  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  partition.sharded().run_until(SimTime::zero() + kHorizon);
  ShardedRun run;
  run.throughput = Throughput{
      static_cast<double>(partition.sharded().executed_events()),
      seconds_since(start)};
  run.cpu_seconds = process_cpu_seconds() - cpu_start;
  run.fingerprint = partition.sharded().fingerprint();
  run.mail_delivered = partition.sharded().mail_delivered();
  run.windows_run = partition.sharded().windows_run();
  run.idle_windows_skipped = partition.sharded().idle_windows_skipped();
  run.pair_lookahead = partition.lookahead(0, 1);

  std::uint64_t transfers = 0;
  std::uint64_t replicas = 0;
  std::uint64_t notices = 0;
  for (const SiteCounters& c : counters) {
    transfers += c.transfers;
    replicas += c.replicas;
    notices += c.notices;
  }
  constexpr std::uint64_t kExpectedTransfers =
      std::uint64_t{kSites} * kTransferWaves * kTransfersPerWave;
  LSDF_REQUIRE(transfers == kExpectedTransfers,
               "sharded fabric lost local transfers");
  LSDF_REQUIRE(replicas == kExpectedTransfers / kReplicateEvery &&
                   notices == replicas,
               "sharded fabric lost cross-site replicas");
  return run;
}

void report_sharded(const std::string& name, const ShardedRun& run) {
  bench::row("%-24s %12.0f events  %8.3f s  %10.0f events/s  cpu %7.3f s",
             name.c_str(), run.throughput.events, run.throughput.seconds,
             run.throughput.events_per_sec(), run.cpu_seconds);
}

// Serial-vs-pooled pair; REQUIREs worker-count-invariant fingerprints and
// event counts (the acceptance property, enforced on every bench, ctest and
// TSan-smoke run). The CPU seconds beside each wall time show whether the
// pooled run used more than one core.
void run_sharded(std::uint64_t readout_events, bench::JsonReport& json) {
  const unsigned hw = exec::ThreadPool::default_thread_count();
  const unsigned workers = std::min<unsigned>(kSites, hw);
  const ShardedRun serial = sharded_fabric_bench(readout_events, nullptr);
  bench::row("%u sites x %u racks, WAN ring lookahead %.1f ms; %llu "
             "cross-site mails, %llu windows (%llu skipped idle)",
             kSites, kRacksPerSite, serial.pair_lookahead.seconds() * 1e3,
             static_cast<unsigned long long>(serial.mail_delivered),
             static_cast<unsigned long long>(serial.windows_run),
             static_cast<unsigned long long>(serial.idle_windows_skipped));
  report_sharded("sharded serial", serial);
  exec::ThreadPool pool(workers);
  const ShardedRun parallel = sharded_fabric_bench(readout_events, &pool);
  report_sharded("sharded x" + std::to_string(workers), parallel);
  LSDF_REQUIRE(serial.fingerprint == parallel.fingerprint,
               "sharded run diverged from the single-threaded oracle");
  LSDF_REQUIRE(serial.throughput.events == parallel.throughput.events,
               "sharded run event counts diverged");
  const double speedup =
      parallel.throughput.seconds > 0.0
          ? serial.throughput.seconds / parallel.throughput.seconds
          : 0.0;
  if (workers == 1) {
    // One hardware thread: the pooled run degenerates to the same serial
    // loop (ShardedSimulator spawns pool_threads - 1 extra executors), so
    // ~1.0x is the *correct* number, not a regression — record it as such
    // instead of pretending a scaling measurement happened.
    bench::row("sharded fingerprint: %016llx (serial == x1); single hw "
               "thread — speedup not expected, ratio %.2fx",
               static_cast<unsigned long long>(serial.fingerprint), speedup);
  } else {
    bench::row("sharded fingerprint: %016llx (serial == x%u), speedup %.2fx "
               "on %u hw threads",
               static_cast<unsigned long long>(serial.fingerprint), workers,
               speedup, hw);
  }
  json.add("perf_sharded",
           {{"shards", static_cast<double>(kSites)},
            {"workers", static_cast<double>(workers)},
            {"hw_threads", static_cast<double>(hw)},
            {"events", parallel.throughput.events},
            {"serial_events_per_sec", serial.throughput.events_per_sec()},
            {"parallel_events_per_sec", parallel.throughput.events_per_sec()},
            {"serial_cpu_s", serial.cpu_seconds},
            {"parallel_cpu_s", parallel.cpu_seconds},
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
    // TSan/ctest mode: only the sharded kernel, small — the point is
    // racing the window workers under the sanitizer and REQUIREing the
    // worker-count-invariant fingerprint, not a timing.
    lsdf::bench::headline("PERF — sharded kernel smoke (determinism + races)",
                          "serial vs pooled fingerprints must match");
    lsdf::bench::section("sharded smoke: 4-site fabric");
    run_sharded(100'000, json);
    const bool reported = json.write();
    return lsdf::bench::obs_dump(obs) && reported ? 0 : 1;
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
  const auto heap_callbacks =
      lsdf::obs::MetricsRegistry::global().counter_value(
          "lsdf_sim_callback_heap_total");
  lsdf::bench::row("callback heap fallbacks: %lld (32-byte captures must "
                   "stay inline)",
                   static_cast<long long>(heap_callbacks));

  lsdf::bench::section("sharded kernel: 4-site fabric, serial vs pool");
  run_sharded(quick ? 500'000 : 1'500'000, json);

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
  const bool reported = json.write();
  if (!lsdf::bench::obs_dump(obs) || !reported) return 1;

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
