// Differential test for the incremental max-min reallocation.
//
// Two TransferEngine instances are driven through one randomized schedule —
// starts, cancels, link flaps and clock advances — with one engine using the
// dirty-link closure (the default) and the other forced to recompute every
// flow from scratch each time (set_full_reallocation(true)). The incremental
// path claims bit-for-bit equivalence, so every comparison below is exact
// double equality, not approximate: flow rates, link loads, stall counts,
// completion order and finally the two kernels' execution fingerprints.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace lsdf::net {
namespace {

// Three 6-leaf star clusters hung off a 3-node backbone ring. Transfers
// inside one cluster bottleneck independently of the others (separate
// components for the closure), while cross-cluster transfers ride the
// backbone and merge components; backbone flaps force reroutes and leaf
// flaps force stalls.
struct TestFacility {
  Topology topo;
  std::vector<NodeId> leaves;
  std::vector<LinkId> backbone;  // forward link ids, ring
  std::vector<LinkId> spokes;    // forward link ids, core->leaf

  TestFacility() {
    std::vector<NodeId> cores;
    for (int c = 0; c < 3; ++c) {
      cores.push_back(topo.add_node("core" + std::to_string(c)));
    }
    for (int c = 0; c < 3; ++c) {
      backbone.push_back(topo.add_duplex_link(cores[c], cores[(c + 1) % 3],
                                              Rate::gigabits_per_second(10.0),
                                              1_ms));
    }
    for (int c = 0; c < 3; ++c) {
      for (int leaf = 0; leaf < 6; ++leaf) {
        const NodeId node = topo.add_node("n" + std::to_string(c) + "_" +
                                          std::to_string(leaf));
        leaves.push_back(node);
        spokes.push_back(topo.add_duplex_link(
            cores[c], node, Rate::gigabits_per_second(1.0), 1_ms));
      }
    }
  }
};

TEST(TransferIncremental, MatchesFullReallocationExactly) {
  TestFacility fac_inc;
  TestFacility fac_full;
  sim::Simulator sim_inc;
  sim::Simulator sim_full;
  TransferEngine inc(sim_inc, fac_inc.topo);
  TransferEngine full(sim_full, fac_full.topo);
  full.set_full_reallocation(true);

  std::uint64_t state = 0xC0FFEE123ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };

  std::vector<FlowId> started;       // every id ever issued (stale cancels)
  std::vector<FlowId> live_ids;      // ids not yet seen to cancel/complete
  std::vector<FlowId> done_inc;      // completion order per engine
  std::vector<FlowId> done_full;
  std::size_t done_seen = 0;         // prefix of done_inc already pruned
  std::vector<LinkId> down;          // currently-down forward links

  const auto flap = [&](LinkId forward, bool up) {
    fac_inc.topo.set_duplex_up(forward, up);
    fac_full.topo.set_duplex_up(forward, up);
    inc.resync();
    full.resync();
  };

  constexpr int kSteps = 12000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = next() % 100;
    if (op < 40 && inc.active_flows() < 90) {
      const std::size_t src = next() % fac_inc.leaves.size();
      std::size_t dst = next() % fac_inc.leaves.size();
      if (dst == src) dst = (dst + 1) % fac_inc.leaves.size();
      const auto size = Bytes(static_cast<std::int64_t>(next() % (24 << 20)) + 1);
      TransferOptions options;
      options.weight = 1.0 + static_cast<double>(next() % 4);
      if (next() % 4 == 0) {
        options.rate_cap =
            Rate::megabytes_per_second(5.0 + static_cast<double>(next() % 60));
      }
      const auto id_inc = inc.start_transfer(
          fac_inc.leaves[src], fac_inc.leaves[dst], size, options,
          [&done_inc](const TransferCompletion& c) { done_inc.push_back(c.id); });
      const auto id_full = full.start_transfer(
          fac_full.leaves[src], fac_full.leaves[dst], size, options,
          [&done_full](const TransferCompletion& c) {
            done_full.push_back(c.id);
          });
      ASSERT_EQ(id_inc.is_ok(), id_full.is_ok());
      if (id_inc.is_ok()) {
        ASSERT_EQ(id_inc.value(), id_full.value());
        started.push_back(id_inc.value());
        live_ids.push_back(id_inc.value());
      }
    } else if (op < 52 && !started.empty()) {
      // Drawing from every id ever issued also exercises cancelling
      // already-finished flows — both engines must agree it is a no-op.
      const FlowId id = started[next() % started.size()];
      const bool cancelled = inc.cancel(id);
      ASSERT_EQ(cancelled, full.cancel(id));
      if (cancelled) {
        live_ids.erase(std::find(live_ids.begin(), live_ids.end(), id));
      }
    } else if (op < 62) {
      if (!down.empty() && next() % 2 == 0) {
        const std::size_t at = next() % down.size();
        flap(down[at], true);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (down.size() < 4) {
        const LinkId forward =
            next() % 3 == 0
                ? fac_inc.backbone[next() % fac_inc.backbone.size()]
                : fac_inc.spokes[next() % fac_inc.spokes.size()];
        if (std::find(down.begin(), down.end(), forward) == down.end()) {
          flap(forward, false);
          down.push_back(forward);
        }
      }
    } else {
      const SimDuration dt(static_cast<std::int64_t>(next() % 4'000'000) + 1);
      sim_inc.run_until(sim_inc.now() + dt);
      sim_full.run_until(sim_full.now() + dt);
    }

    for (; done_seen < done_inc.size(); ++done_seen) {
      const auto at = std::find(live_ids.begin(), live_ids.end(),
                                done_inc[done_seen]);
      if (at != live_ids.end()) live_ids.erase(at);
    }

    // Full-state comparison after every operation: any single-ulp rate
    // divergence compounds through advance_progress() and would surface
    // here within a step or two of the allocation that introduced it.
    ASSERT_EQ(inc.active_flows(), full.active_flows()) << "step " << step;
    ASSERT_EQ(inc.stalled_flows(), full.stalled_flows()) << "step " << step;
    for (const FlowId id : live_ids) {
      ASSERT_EQ(inc.flow_rate(id).bps(), full.flow_rate(id).bps())
          << "flow " << id << " at step " << step;
    }
    for (LinkId link = 0; link < fac_inc.topo.link_count(); ++link) {
      ASSERT_EQ(inc.link_load(link).bps(), full.link_load(link).bps())
          << "link " << link << " at step " << step;
    }
  }

  // Restore every downed link and drain both facilities so stalled flows
  // resume and finish identically.
  for (const LinkId forward : down) flap(forward, true);
  sim_inc.run();
  sim_full.run();
  ASSERT_EQ(inc.active_flows(), 0u);
  ASSERT_EQ(done_inc, done_full);
  // Same completions at the same times via the same event sequence: the
  // two kernels' order-sensitive fingerprints must agree exactly.
  ASSERT_EQ(sim_inc.fingerprint(), sim_full.fingerprint());
}

// One completion as the golden log records it.
struct PinnedCompletion {
  FlowId id;
  std::int64_t finished_ns;
  bool delivered;
  friend bool operator==(const PinnedCompletion&,
                         const PinnedCompletion&) = default;
};

// Replays a short seeded schedule on one default-mode engine: intra-cluster
// flows in all three clusters (separate components), cross-cluster flows
// over the backbone, rate caps and QoS weights, cancels drawn from every id
// issued, backbone flaps (reroute) and spoke flaps (stall).
std::vector<PinnedCompletion> replay_pinned_schedule(
    std::uint64_t* fingerprint) {
  TestFacility fac;
  sim::Simulator sim;
  TransferEngine engine(sim, fac.topo);
  std::uint64_t state = 0x5EED0017ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<PinnedCompletion> log;
  std::vector<FlowId> started;
  std::vector<LinkId> down;
  const auto flap = [&](LinkId forward, bool up) {
    fac.topo.set_duplex_up(forward, up);
    engine.resync();
  };
  const auto start = [&](std::size_t src, std::size_t dst, Bytes size,
                         const TransferOptions& options) {
    const auto id = engine.start_transfer(
        fac.leaves[src], fac.leaves[dst], size, options,
        [&log](const TransferCompletion& c) {
          log.push_back({c.id, c.finished.nanos(), c.delivered()});
        });
    if (id.is_ok()) started.push_back(id.value());
  };
  for (int step = 0; step < 240; ++step) {
    if (step == 120) {
      // Three twins on one path finish at one instant, from reused slots:
      // their callbacks must fire in FlowId order.
      for (int twin = 0; twin < 3; ++twin) start(0, 1, 8_MB, {});
    }
    const std::uint64_t op = next() % 100;
    if (op < 35) {
      // Two of three starts stay inside one cluster.
      const std::size_t cluster = next() % 3;
      const std::size_t src = cluster * 6 + next() % 6;
      std::size_t dst = next() % 3 == 0 ? next() % fac.leaves.size()
                                        : cluster * 6 + next() % 6;
      if (dst == src) dst = cluster * 6 + (src % 6 + 1) % 6;
      const auto size =
          Bytes(static_cast<std::int64_t>(next() % (16 << 20)) + 1);
      TransferOptions options;
      options.weight = 1.0 + static_cast<double>(next() % 3);
      if (next() % 3 == 0) {
        options.rate_cap =
            Rate::megabytes_per_second(8.0 + static_cast<double>(next() % 40));
      }
      start(src, dst, size, options);
    } else if (op < 45 && !started.empty()) {
      (void)engine.cancel(started[next() % started.size()]);
    } else if (op < 55) {
      if (!down.empty() && next() % 2 == 0) {
        const std::size_t at = next() % down.size();
        flap(down[at], true);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (down.size() < 3) {
        const LinkId forward = next() % 2 == 0
                                   ? fac.backbone[next() % 3]
                                   : fac.spokes[next() % fac.spokes.size()];
        if (std::find(down.begin(), down.end(), forward) == down.end()) {
          flap(forward, false);
          down.push_back(forward);
        }
      }
    } else {
      const auto dt = static_cast<std::int64_t>(next() % 30'000'000);
      sim.run_until(sim.now() + SimDuration(dt));
    }
  }
  for (const LinkId forward : down) flap(forward, true);
  sim.run();
  *fingerprint = sim.fingerprint();
  return log;
}

// Golden log of the schedule above, recorded from the std::map-based engine
// that the slab/epoch implementation replaced. The differential test above
// compares two modes of one engine, so it cannot see drift that both modes
// share; this log can. Every completion instant, status and the kernel
// fingerprint must stay bit-identical.
constexpr std::uint64_t kPinnedFingerprint = 0x99f9366d06a8af0cULL;
const std::vector<PinnedCompletion> kPinnedCompletions = {
    {1, 82139608, false},
    {5, 199967138, false},
    {4, 275778773, false},
    {10, 327911476, false},
    {11, 333423239, true},
    {12, 365585653, true},
    {7, 402203895, false},
    {6, 428079916, true},
    {2, 453694972, true},
    {13, 470224152, false},
    {15, 472502129, true},
    {17, 474274441, true},
    {8, 476829949, true},
    {22, 489165321, true},
    {3, 497493692, true},
    {20, 506570119, true},
    {14, 526438533, true},
    {21, 538190701, true},
    {23, 538522249, true},
    {16, 545183376, true},
    {25, 578723302, true},
    {9, 591385247, true},
    {26, 605399686, true},
    {29, 626985170, true},
    {19, 628194971, false},
    {30, 645235932, true},
    {27, 680654529, true},
    {33, 687711945, true},
    {31, 693076349, false},
    {32, 715482195, true},
    {24, 723893375, true},
    {18, 748563776, true},
    {36, 828030988, false},
    {37, 836264533, false},
    {43, 842656213, true},
    {28, 879077425, true},
    {38, 930829151, true},
    {44, 953257126, true},
    {42, 1033815520, true},
    {39, 1060450497, true},
    {40, 1060450497, true},
    {41, 1060450497, true},
    {47, 1105795789, true},
    {48, 1112041421, true},
    {52, 1179812127, true},
    {50, 1240710571, false},
    {35, 1242385624, false},
    {59, 1248133644, true},
    {62, 1259114519, true},
    {53, 1271333524, true},
    {51, 1282177114, true},
    {45, 1289404479, true},
    {60, 1300682429, true},
    {56, 1305402079, true},
    {54, 1311486473, true},
    {49, 1315449002, true},
    {57, 1317861524, true},
    {66, 1331599457, true},
    {55, 1357414131, true},
    {69, 1362059312, true},
    {65, 1428348879, true},
    {64, 1438727313, true},
    {58, 1446351143, true},
    {70, 1452782967, true},
    {72, 1461080532, true},
    {68, 1462299289, true},
    {34, 1467591967, true},
    {63, 1467603280, true},
    {71, 1493632323, true},
    {61, 1538701346, true},
    {77, 1550433206, true},
    {73, 1586830856, true},
    {74, 1599356812, true},
    {78, 1617120609, true},
    {76, 1634519692, true},
    {79, 1677644947, true},
    {82, 1727954642, true},
    {80, 1919431457, true},
    {75, 2232897338, true},
    {46, 2245963160, true},
    {67, 2368898216, true},
    {81, 2727791814, true},
};

TEST(TransferIncremental, PinnedScheduleMatchesRecordedCompletions) {
  std::uint64_t fingerprint = 0;
  const std::vector<PinnedCompletion> log =
      replay_pinned_schedule(&fingerprint);
  ASSERT_EQ(log.size(), kPinnedCompletions.size());
  for (std::size_t at = 0; at < log.size(); ++at) {
    EXPECT_EQ(log[at], kPinnedCompletions[at])
        << "completion " << at << ": flow " << log[at].id << " at "
        << log[at].finished_ns << " ns, delivered " << log[at].delivered;
  }
  EXPECT_EQ(fingerprint, kPinnedFingerprint);
}

}  // namespace
}  // namespace lsdf::net
