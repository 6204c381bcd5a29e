// A5 — ablation: redundant routers (slide 7 shows the LSDF backbone with
// redundant routers and IPv4/IPv6 dual stack), extended with scripted
// fault-injection scenarios (lsdf::fault). Measures what the redundancy
// and the retry layer actually buy: transfer survival and completion-time
// impact across router failures, a WAN link that flaps during a 1 PB
// mirror, and tape drives lost mid-HSM-migration. Every scenario is
// driven by the deterministic FaultInjector, so the same seed replays the
// identical timeline — asserted by running the mirror scenario twice.
//
// The fault plan ships in configs/failover_scenario.conf; an embedded
// copy keeps the binary self-contained when run from another directory.
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/config.h"
#include "fault/injector.h"
#include "fault/retry.h"
#include "net/reliable_transfer.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"
#include "storage/hsm_store.h"
#include "storage/tape_library.h"

using namespace lsdf;
using namespace lsdf::net;

namespace {

struct Fabric {
  sim::Simulator sim;
  Topology topo;
  NodeId src = 0;
  NodeId dst = 0;
  LinkId primary_in = 0;
  LinkId primary_out = 0;
  LinkId backup_in = 0;
  LinkId backup_out = 0;
  std::unique_ptr<TransferEngine> engine;

  explicit Fabric(bool redundant) {
    src = topo.add_node("storage");
    dst = topo.add_node("cluster");
    const NodeId router_a = topo.add_node("router-a");
    const Rate rate = Rate::gigabits_per_second(10.0);
    primary_in = topo.add_duplex_link(src, router_a, rate, 100_us);
    primary_out = topo.add_duplex_link(router_a, dst, rate, 100_us);
    if (redundant) {
      const NodeId router_b = topo.add_node("router-b");
      backup_in = topo.add_duplex_link(src, router_b, rate, 100_us);
      backup_out = topo.add_duplex_link(router_b, dst, rate, 100_us);
    }
    engine = std::make_unique<TransferEngine>(sim, topo);
  }
};

// A 10 TB bulk transfer with a router failure at t=30min, repaired at
// t=90min. Returns total transfer time in hours.
double run_outage(bool redundant) {
  Fabric f(redundant);
  const bench::ScopedSimTraceClock trace_clock(f.sim);
  std::optional<TransferCompletion> completion;
  const auto flow = f.engine->start_transfer(
      f.src, f.dst, 10_TB, TransferOptions{},
      [&](const TransferCompletion& c) { completion = c; });
  if (!flow.is_ok()) return -1.0;
  f.sim.schedule_after(30_min, [&] {
    f.topo.set_duplex_up(f.primary_in, false);
    f.engine->resync();
  });
  f.sim.schedule_after(90_min, [&] {
    f.topo.set_duplex_up(f.primary_in, true);
    f.engine->resync();
  });
  f.sim.run();
  return completion ? completion->duration().hours() : -1.0;
}

// --- Scripted fault scenarios -------------------------------------------------

constexpr const char* kEmbeddedPlan = R"(
fault.seed = 424242
fault.horizon = 48h
fault.schedule.wan = 2h for 10min repeat 8 every 2h
fault.schedule.tape = 45min for 20min
fault.mtbf.tape = 4h
fault.mttr.tape = 30min
)";

Properties load_scenario() {
  for (const char* path : {"configs/failover_scenario.conf",
                           "../configs/failover_scenario.conf",
                           "../../configs/failover_scenario.conf"}) {
    std::ifstream in(path);
    if (!in.good()) continue;
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = Properties::parse(buffer.str());
    if (parsed.is_ok()) {
      bench::row("fault plan: %s", path);
      return parsed.value();
    }
  }
  bench::row("fault plan: embedded copy of configs/failover_scenario.conf");
  return Properties::parse(kEmbeddedPlan).value();
}

// The injector rejects plan entries naming unregistered components, so a
// shared scenario file is narrowed to the components a scenario registers.
Properties select_components(const Properties& all,
                             const std::vector<std::string>& components) {
  Properties out;
  for (const auto& [key, value] : all.entries()) {
    if (!key.starts_with("fault.")) continue;
    if (key == "fault.seed" || key == "fault.horizon") {
      out.set(key, value);
      continue;
    }
    for (const auto& component : components) {
      if (key.ends_with("." + component)) {
        out.set(key, value);
        break;
      }
    }
  }
  return out;
}

struct MirrorScenarioResult {
  int delivered = 0;
  int chunks = 0;
  std::int64_t retries = 0;
  std::int64_t faults = 0;
  double makespan_hours = 0.0;
  // Kernel execution fingerprint (chk): the strongest replay witness —
  // equal digests mean the identical event sequence, not just equal
  // aggregate numbers.
  std::uint64_t fingerprint = 0;
};

// 1 PB mirrored to Heidelberg as 50 x 20 TB chunks submitted every 25 min
// through the retrying ReliableTransfer, while the WAN link runs the
// scripted flap plan. Several submissions land inside outage windows and
// must back off and retry; in-flight chunks stall and resume. Zero lost
// completions, bounded attempts.
MirrorScenarioResult run_mirror_scenario(const Properties& plan,
                                         std::uint64_t seed) {
  MirrorScenarioResult result;
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);
  Topology topo;
  const NodeId gateway = topo.add_node("lsdf-gateway");
  const NodeId remote = topo.add_node("heidelberg");
  const LinkId wan = topo.add_duplex_link(
      gateway, remote, Rate::gigabits_per_second(10.0), 5_ms);
  TransferEngine engine(sim, topo);
  fault::FaultInjector injector(sim, seed);
  injector.register_link("wan", topo, wan);
  injector.on_topology_change([&] { engine.resync(); });
  const Status loaded = injector.load_plan(select_components(plan, {"wan"}));
  if (!loaded.is_ok()) {
    bench::row("FAILED to load fault plan: %s", loaded.message().c_str());
    return result;
  }

  ReliableTransfer mirror(sim, engine, "mirror-bench", seed ^ 0x5752);
  fault::RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = 5_min;
  policy.max_backoff = 15_min;

  result.chunks = 50;
  SimTime last_done;
  for (int i = 0; i < result.chunks; ++i) {
    sim.schedule_at(SimTime::zero() + 25_min * i, [&] {
      mirror.submit(gateway, remote, 20_TB, TransferOptions{}, policy,
                    [&](const ReliableTransferReport& report) {
                      if (report.delivered()) ++result.delivered;
                      if (report.completed > last_done) {
                        last_done = report.completed;
                      }
                    },
                    [&](int, const Status&) { ++result.retries; });
    });
  }
  sim.run();
  result.faults = injector.injected();
  result.makespan_hours = (last_done - SimTime::zero()).hours();
  result.fingerprint = sim.fingerprint();
  return result;
}

// HSM migration sweep with tape-drive faults: 100 x 10 GB cold objects
// migrate to tape while one scripted drive outage (while the drives are
// loaded, aborting and requeueing in-flight operations) and a stochastic
// MTBF/MTTR process take drives away. Every migration must complete.
void run_tape_scenario(const Properties& plan, std::uint64_t seed) {
  sim::Simulator sim;
  const bench::ScopedSimTraceClock trace_clock(sim);
  storage::DiskArrayConfig cache_config;
  cache_config.name = "archive-cache";
  cache_config.capacity = 2_TB;
  cache_config.aggregate_bandwidth = Rate::megabytes_per_second(2000.0);
  storage::DiskArray cache(sim, cache_config);
  storage::TapeConfig tape_config;
  tape_config.drive_count = 4;
  storage::TapeLibrary tape(sim, tape_config);
  storage::HsmConfig hsm_config;
  hsm_config.migrate_after = 30_min;
  hsm_config.scan_period = 10_min;
  storage::HsmStore hsm(sim, cache, tape, hsm_config);

  fault::FaultInjector injector(sim, seed);
  injector.register_tape("tape", tape);
  const Status loaded = injector.load_plan(select_components(plan, {"tape"}));
  if (!loaded.is_ok()) {
    bench::row("FAILED to load fault plan: %s", loaded.message().c_str());
    return;
  }

  const int objects = 100;
  for (int i = 0; i < objects; ++i) {
    hsm.put("run-" + std::to_string(i), 10_GB, nullptr);
  }
  hsm.start();
  sim.run_until(SimTime::zero() + 48_h);
  hsm.stop();
  sim.run();  // drain outstanding repairs and tape operations

  int on_tape = 0;
  for (int i = 0; i < objects; ++i) {
    if (hsm.on_tape("run-" + std::to_string(i))) ++on_tape;
  }
  bench::row("%-34s %6d/%d", "migrations completed", on_tape, objects);
  bench::row("%-34s %6lld",
             "drive faults injected",
             static_cast<long long>(injector.injected()));
  bench::row("%-34s %6lld",
             "in-flight operations aborted+requeued",
             static_cast<long long>(tape.aborted_ops()));
  bench::row("%-34s %6d", "healthy drives after recovery",
             tape.healthy_drives());
  bench::compare("no migration lost to drive faults",
                 static_cast<double>(objects),
                 static_cast<double>(on_tape), "objects");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, bench::obs_flags());
  const bench::ObsOptions obs_options = bench::obs_init(flags);
  bench::headline("A5: failover — redundant routers, WAN flaps and tape "
                  "faults under the deterministic injector",
                  "the LSDF backbone has redundant routers so transfers "
                  "survive failures; retry + HSM requeue make faults "
                  "invisible to clients");

  bench::section("10 TB transfer with a 1-hour router outage at t=30min");
  const double redundant_hours = run_outage(true);
  const double single_hours = run_outage(false);
  // 10 TB at 10 Gb/s = 2.22 h on the wire.
  bench::row("%-22s %10.2f h  (wire time 2.22 h)", "redundant routers",
             redundant_hours);
  bench::row("%-22s %10.2f h  (stalled for the full outage)",
             "single router", single_hours);
  bench::compare("redundant backbone unaffected by the outage", 2.22,
                 redundant_hours, "h");
  bench::compare("non-redundant pays the outage hour", 3.22, single_hours,
                 "h");

  bench::section("many community flows across a failover event");
  {
    Fabric f(true);
    int completed = 0;
    int total = 0;
    for (int i = 0; i < 20; ++i) {
      ++total;
      (void)f.engine->start_transfer(
          i % 2 == 0 ? f.src : f.dst, i % 2 == 0 ? f.dst : f.src, 100_GB,
          TransferOptions{},
          [&](const TransferCompletion&) { ++completed; });
    }
    f.sim.schedule_after(1_min, [&] {
      f.topo.set_duplex_up(f.primary_out, false);
      f.engine->resync();
    });
    f.sim.run();
    bench::row("flows completed across router failure: %d/%d", completed,
               total);
    bench::compare("no flow lost during failover", 20.0,
                   static_cast<double>(completed), "flows");
  }

  const Properties plan = load_scenario();
  const auto seed = static_cast<std::uint64_t>(
      plan.get_int_or("fault.seed", 424242));

  bench::section("scripted WAN flaps during a 1 PB mirror (50 x 20 TB)");
  const MirrorScenarioResult mirror = run_mirror_scenario(plan, seed);
  bench::row("%-34s %6d/%d", "chunks delivered", mirror.delivered,
             mirror.chunks);
  bench::row("%-34s %6lld", "retries performed",
             static_cast<long long>(mirror.retries));
  bench::row("%-34s %6lld  (8 flaps = 16 transitions)",
             "fault transitions injected",
             static_cast<long long>(mirror.faults * 2));
  bench::row("%-34s %8.1f h  (wire time 222.2 h)", "mirror makespan",
             mirror.makespan_hours);
  bench::compare("zero lost completions under WAN flaps",
                 static_cast<double>(mirror.chunks),
                 static_cast<double>(mirror.delivered), "chunks");

  bench::section("same seed, same timeline: deterministic replay");
  {
    const MirrorScenarioResult replay = run_mirror_scenario(plan, seed);
    const bool identical = replay.delivered == mirror.delivered &&
                           replay.retries == mirror.retries &&
                           replay.faults == mirror.faults &&
                           replay.makespan_hours == mirror.makespan_hours;
    bench::row("replay: delivered %d, retries %lld, makespan %.3f h",
               replay.delivered, static_cast<long long>(replay.retries),
               replay.makespan_hours);
    bench::compare("replay bit-identical to first run", 1.0,
                   identical ? 1.0 : 0.0, "bool");
    bench::row("execution fingerprint: %016llx vs %016llx",
               static_cast<unsigned long long>(mirror.fingerprint),
               static_cast<unsigned long long>(replay.fingerprint));
    bench::compare("event-sequence fingerprints identical", 1.0,
                   replay.fingerprint == mirror.fingerprint ? 1.0 : 0.0,
                   "bool");
  }

  bench::section("tape-drive loss during the HSM migration sweep");
  run_tape_scenario(plan, seed);

  bench::metrics_digest("lsdf_fault");
  bench::metrics_digest("lsdf_retry");
  return bench::obs_dump(obs_options) ? 0 : 1;
}
