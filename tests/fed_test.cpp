// Tests for the federation layer (fed::FederationService): declarative
// replica rules over a small multi-site WAN world — deterministic
// resolution, priority scheduling, quotas, lifetimes, re-replication edge
// cases (replica lost mid-transfer or while queued, site down at
// resolution time, rule satisfied by an in-flight copy), the one-rule
// Heidelberg mirror's WAN contract (bounded concurrency, retry and stall
// across outages, trigger dedup) and the pinned E11 mirror day.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "chk/replay.h"
#include "core/facility.h"
#include "fault/injector.h"
#include "fed/federation.h"
#include "ingest/sources.h"
#include "meta/store.h"
#include "net/topology.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"

namespace lsdf::fed {
namespace {

// Star fabric: an origin gateway with a dedicated 1 Gb/s WAN link to each
// of three disk sites and one tape site. 10 GB at 1 Gb/s (efficiency 1.0)
// moves in 80 s, so test timelines stay round.
struct World {
  sim::Simulator sim;
  net::Topology topology;
  net::NodeId origin = topology.add_node("origin");
  net::NodeId node_a = topology.add_node("node-a");
  net::NodeId node_b = topology.add_node("node-b");
  net::NodeId node_c = topology.add_node("node-c");
  net::NodeId node_t = topology.add_node("node-t");
  net::LinkId link_a = wan(node_a);
  net::LinkId link_b = wan(node_b);
  net::LinkId link_c = wan(node_c);
  net::LinkId link_t = wan(node_t);
  net::TransferEngine net{sim, topology};
  meta::MetadataStore store;
  std::unique_ptr<FederationService> fed;

  explicit World(FederationConfig config = base_config()) {
    config.origin_gateway = origin;
    fed = std::make_unique<FederationService>(sim, net, store, config);
    EXPECT_TRUE(store.create_project("htm", {}).is_ok());
  }

  net::LinkId wan(net::NodeId remote) {
    return topology.add_duplex_link(origin, remote,
                                    Rate::gigabits_per_second(1.0), 1_ms);
  }

  static FederationConfig base_config() {
    FederationConfig config;
    config.wan_efficiency = 1.0;
    config.retry.initial_backoff = 1_min;
    return config;
  }

  void add_disk_sites() {
    fed->add_site({"site-a", node_a, StorageClass::kDisk, "link-a"});
    fed->add_site({"site-b", node_b, StorageClass::kDisk, "link-b"});
    fed->add_site({"site-c", node_c, StorageClass::kDisk, "link-c"});
  }

  void add_tape_site() {
    fed->add_site({"tape-1", node_t, StorageClass::kTape, "link-t"});
  }

  meta::DatasetId ingest(const std::string& name, Bytes size = 10_GB) {
    const auto id = store.register_dataset({.project = "htm",
                                            .name = name,
                                            .data_uri = "adal://" + name,
                                            .size = size,
                                            .now = sim.now()});
    EXPECT_TRUE(id.is_ok());
    return id.is_ok() ? id.value() : 0;
  }

  void run_for(SimDuration d) { sim.run_until(sim.now() + d); }

  // Take a site's WAN link down/up; the engine stalls or resumes flows.
  void set_link_up(net::LinkId link, bool up) {
    topology.set_duplex_up(link, up);
    net.resync();
  }
};

TEST(Federation, RuleKeepsTwoDiskCopiesAndOneTapeCopy) {
  World w;
  w.add_disk_sites();
  w.add_tape_site();
  w.fed->add_rule({.name = "disk-pair", .copies = 2,
                   .storage = StorageClass::kDisk});
  w.fed->add_rule({.name = "tape-copy", .copies = 1,
                   .storage = StorageClass::kTape});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  const auto replicas = w.fed->replicas(id);
  ASSERT_EQ(replicas.size(), 3u);
  for (const Replica& r : replicas) {
    EXPECT_EQ(r.state, ReplicaState::kComplete);
  }
  EXPECT_EQ(w.fed->stats().replicated, 3);
  EXPECT_EQ(w.fed->stats().scheduled, 3);
  EXPECT_TRUE(w.fed->satisfied(id, 1));
  EXPECT_TRUE(w.fed->satisfied(id, 2));
}

TEST(Federation, TriggerTagGatesTheRuleAndDoneTagIsStamped) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "share", .trigger_tag = "share",
                   .done_tag = "shared", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 0);  // not tagged: rule doesn't match
  ASSERT_TRUE(w.store.tag(id, "share").is_ok());
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->stats().bytes_replicated, 10_GB);
  const auto record = w.store.get(id).value();
  EXPECT_NE(std::find(record.tags.begin(), record.tags.end(), "shared"),
            record.tags.end());
}

TEST(Federation, InFlightCopySatisfiesTheRule) {
  // Re-resolving while the copy is on the wire must not schedule a
  // duplicate (the mirror's tracked_-set dedup, generalised).
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(10_s);  // transfer in flight, far from the 80 s finish
  EXPECT_EQ(w.fed->in_flight(), 1);
  EXPECT_EQ(w.fed->stats().replicated, 0);
  w.fed->resolve_dataset(id);
  w.fed->resolve_all();
  ASSERT_TRUE(w.store.tag(id, "noise").is_ok());  // event-driven re-resolve
  EXPECT_EQ(w.fed->stats().scheduled, 1);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, RepeatedTriggersScheduleOneCopy) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "share", .trigger_tag = "share", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  ASSERT_TRUE(w.store.tag(id, "share").is_ok());
  w.fed->resolve_dataset(id);
  w.fed->resolve_dataset(id);
  w.run_for(1_h);
  // A re-tag after completion schedules nothing: the rule is satisfied.
  ASSERT_TRUE(w.store.untag(id, "share").is_ok());
  ASSERT_TRUE(w.store.tag(id, "share").is_ok());
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 1);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, OtherTagsDoNothing) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "share", .trigger_tag = "share", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  ASSERT_TRUE(w.store.tag(id, "unrelated").is_ok());
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 0);
  EXPECT_EQ(w.fed->backlog(), 0u);
  EXPECT_TRUE(w.fed->replicas(id).empty());
}

TEST(Federation, ReTagWhileInFlightSchedulesNoDuplicate) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "share", .trigger_tag = "share", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  ASSERT_TRUE(w.store.tag(id, "share").is_ok());
  w.run_for(10_s);  // on the wire, far from the 80 s finish
  EXPECT_EQ(w.fed->in_flight(), 1);
  ASSERT_TRUE(w.store.untag(id, "share").is_ok());
  ASSERT_TRUE(w.store.tag(id, "share").is_ok());
  w.fed->resolve_dataset(id);
  EXPECT_EQ(w.fed->stats().scheduled, 1);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 1);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, UnknownDatasetIsIgnored) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  w.fed->resolve_dataset(9999);
  w.run_for(1_min);
  EXPECT_EQ(w.fed->stats().resolutions, 0);
  EXPECT_EQ(w.fed->stats().scheduled, 0);
  EXPECT_EQ(w.fed->backlog(), 0u);
}

TEST(Federation, ConcurrencyIsBounded) {
  FederationConfig config = World::base_config();
  config.max_concurrent = 2;
  World w(config);
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  for (int i = 0; i < 6; ++i) (void)w.ingest("frame-" + std::to_string(i));
  w.run_for(1_s);
  EXPECT_EQ(w.fed->in_flight(), 2);
  EXPECT_EQ(w.fed->backlog(), 4u);
  EXPECT_EQ(w.fed->backlog_bytes(), 40_GB);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 6);
  EXPECT_EQ(w.fed->in_flight(), 0);
  EXPECT_EQ(w.fed->backlog(), 0u);
}

TEST(Federation, RetriesWhenWanIsDownAtSubmission) {
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 10;
  World w(config);
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  w.set_link_up(w.link_a, false);
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(3_min);
  EXPECT_GT(w.fed->stats().retries, 0);
  EXPECT_FALSE(w.fed->has_replica(id, "site-a"));
  w.set_link_up(w.link_a, true);
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_EQ(w.fed->stats().failed, 0);
  EXPECT_EQ(w.fed->stats().scheduled, 1);
}

TEST(Federation, InFlightTransferStallsAcrossAnOutage) {
  // An outage mid-transfer stalls the flow and repair resumes it (the
  // engine's stall/resync path): no retry, no failure, one copy.
  World w;
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(10_s);
  EXPECT_EQ(w.fed->in_flight(), 1);
  w.set_link_up(w.link_a, false);
  w.run_for(30_min);
  EXPECT_FALSE(w.fed->has_replica(id, "site-a"));
  EXPECT_EQ(w.fed->in_flight(), 1);
  w.set_link_up(w.link_a, true);
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_EQ(w.fed->stats().retries, 0);
  EXPECT_EQ(w.fed->stats().failed, 0);
  EXPECT_EQ(w.fed->stats().scheduled, 1);
}

TEST(Federation, ExhaustedRetriesReResolveUntilTheWanReturns) {
  // A transfer that runs out of attempts fails and the dataset re-resolves
  // at once, so a fresh attempt chain starts without a new trigger; the
  // copy completes as soon as the WAN is back.
  FederationConfig config = World::base_config();
  config.retry.max_attempts = 3;
  World w(config);
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  w.set_link_up(w.link_a, false);
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_GE(w.fed->stats().failed, 1);
  EXPECT_FALSE(w.fed->has_replica(id, "site-a"));
  w.set_link_up(w.link_a, true);
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->in_flight(), 0);
  EXPECT_EQ(w.fed->backlog(), 0u);
}

TEST(Federation, SiteDownAtResolutionDefersUntilRecovery) {
  World w;
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, ""});
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  w.fed->set_site_online("site-a", false);
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  // The only candidate was down at resolution time: nothing scheduled,
  // nothing failed — the deficit just waits.
  EXPECT_EQ(w.fed->stats().scheduled, 0);
  EXPECT_EQ(w.fed->backlog(), 0u);
  w.fed->set_site_online("site-a", true);  // recovery re-resolves
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_EQ(w.fed->stats().replicated, 1);
}

TEST(Federation, ReplicaLostMidTransferIsReReplicated) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(10_s);
  EXPECT_EQ(w.fed->in_flight(), 1);
  // The partially-written replica is lost; resolution schedules a fresh
  // copy and the original transfer's terminal report discards itself.
  w.fed->drop_replica(id, "site-a");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().lost, 1);
  EXPECT_EQ(w.fed->stats().scheduled, 2);
  EXPECT_EQ(w.fed->stats().replicated, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
  EXPECT_EQ(w.fed->in_flight(), 0);
}

TEST(Federation, SiteFaultTriggersReReplicationToAnotherSite) {
  World w;
  w.add_disk_sites();
  fault::FaultInjector injector(w.sim, 0xFED5EED);
  injector.register_link("link-a", w.topology, w.link_a);
  injector.on_topology_change([&w] { w.net.resync(); });
  w.fed->attach_faults(injector);
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(5_min);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  // Kill site-a's uplink for an hour: its replica is lost and the rule
  // re-resolves onto the least-loaded surviving site.
  ASSERT_TRUE(
      injector.schedule_fault("link-a", w.sim.now() + 1_min, 1_h).is_ok());
  w.run_for(30_min);
  EXPECT_FALSE(w.fed->site_online("site-a"));
  EXPECT_FALSE(w.fed->has_replica(id, "site-a"));
  EXPECT_TRUE(w.fed->has_replica(id, "site-b"));
  w.run_for(2_h);  // recovery: rule already satisfied, nothing extra
  EXPECT_TRUE(w.fed->site_online("site-a"));
  EXPECT_EQ(w.fed->stats().lost, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, SiteFaultCountsAQueuedReplicaAsLost) {
  FederationConfig config = World::base_config();
  config.max_concurrent = 1;
  World w(config);
  w.fed->add_site({"site-a", w.node_a, StorageClass::kDisk, "link-a"});
  w.fed->add_site({"site-b", w.node_b, StorageClass::kDisk, "link-b"});
  fault::FaultInjector injector(w.sim, 0xFED5EED);
  injector.register_link("link-b", w.topology, w.link_b);
  injector.on_topology_change([&w] { w.net.resync(); });
  w.fed->attach_faults(injector);
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  // frame-1 takes the only WAN slot towards site-a; frame-2 waits in the
  // backlog for the least-loaded site, site-b.
  (void)w.ingest("frame-1");
  const meta::DatasetId second = w.ingest("frame-2");
  EXPECT_EQ(w.fed->in_flight(), 1);
  EXPECT_EQ(w.fed->backlog(), 1u);
  ASSERT_TRUE(
      injector.schedule_fault("link-b", w.sim.now() + 10_s, 1_h).is_ok());
  w.run_for(20_s);
  // The fault drops the queued entry (counted lost) and re-resolution
  // queues the copy for site-a instead.
  EXPECT_EQ(w.fed->stats().lost, 1);
  EXPECT_EQ(w.fed->stats().scheduled, 3);
  EXPECT_EQ(w.fed->backlog(), 1u);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 2);
  EXPECT_TRUE(w.fed->has_replica(second, "site-a"));
  EXPECT_EQ(w.fed->stats().lost, 1);
}

TEST(Federation, ProjectQuotaDefersAndReleasesTransfers) {
  World w;
  w.add_disk_sites();
  w.fed->set_quota("htm", 25_GB);
  w.fed->add_rule({.name = "one-copy", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  (void)w.ingest("frame-1", 10_GB);
  (void)w.ingest("frame-2", 10_GB);
  const meta::DatasetId third = w.ingest("frame-3", 10_GB);
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 2);
  EXPECT_EQ(w.fed->stats().quota_deferred, 1);
  EXPECT_EQ(w.fed->replicas(third).size(), 0u);
  // Raising the quota and re-resolving releases the deferred copy.
  w.fed->set_quota("htm", 100_GB);
  w.fed->resolve_all();
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 3);
  EXPECT_EQ(w.fed->replicas(third).size(), 1u);
}

TEST(Federation, RuleLifetimeReclaimsUndemandedReplicas) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "scratch", .copies = 2,
                   .storage = StorageClass::kDisk, .lifetime = 2_h});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->replicas(id).size(), 2u);
  w.run_for(2_h);  // past the lifetime: rule inactive, replicas reclaimed
  EXPECT_EQ(w.fed->stats().expired, 2);
  EXPECT_EQ(w.fed->replicas(id).size(), 0u);
  // New datasets no longer match anything.
  (void)w.ingest("frame-2");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().scheduled, 2);
}

TEST(Federation, ExpiryKeepsReplicasAnotherRuleStillDemands) {
  World w;
  w.add_disk_sites();
  w.fed->add_rule({.name = "scratch", .copies = 2,
                   .storage = StorageClass::kDisk, .lifetime = 2_h});
  w.fed->add_rule({.name = "keeper", .copies = 1,
                   .storage = StorageClass::kDisk});
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_EQ(w.fed->replicas(id).size(), 2u);
  w.run_for(2_h);
  // One copy survives: the permanent rule still demands it.
  EXPECT_EQ(w.fed->stats().expired, 1);
  EXPECT_EQ(w.fed->replicas(id).size(), 1u);
}

TEST(Federation, HigherPriorityRulesDrainFirst) {
  FederationConfig config = World::base_config();
  config.max_concurrent = 1;
  World w(config);
  w.add_disk_sites();
  EXPECT_TRUE(w.store.create_project("urgent", {}).is_ok());
  w.fed->add_rule({.name = "bulk", .project = "htm", .copies = 1,
                   .storage = StorageClass::kDisk, .priority = 0});
  w.fed->add_rule({.name = "hot", .project = "urgent", .copies = 1,
                   .storage = StorageClass::kDisk, .priority = 5});
  w.fed->start();
  // First bulk copy grabs the only WAN slot; the next two queue.
  (void)w.ingest("bulk-1", 10_GB);
  const meta::DatasetId bulk2 = w.ingest("bulk-2", 10_GB);
  const auto urgent = w.store.register_dataset({.project = "urgent",
                                                .name = "hot-1",
                                                .data_uri = "adal://hot-1",
                                                .size = 10_GB,
                                                .now = w.sim.now()});
  ASSERT_TRUE(urgent.is_ok());
  EXPECT_EQ(w.fed->backlog(), 2u);
  // 10 GB at 1 Gb/s = 80 s per serialised transfer: at t=200 s the first
  // bulk copy and the prioritised urgent copy are done, bulk-2 is not.
  w.run_for(200_s);
  EXPECT_EQ(w.fed->replicas(urgent.value()).size(), 1u);
  EXPECT_EQ(w.fed->replicas(urgent.value())[0].state,
            ReplicaState::kComplete);
  EXPECT_FALSE(w.fed->satisfied(bulk2, 1));
  w.run_for(1_h);
  EXPECT_EQ(w.fed->stats().replicated, 3);
}

TEST(Federation, LoadsSitesRulesAndQuotasFromProperties) {
  World w;
  const auto properties = Properties::parse(R"(
    # shared deployment file: fault.* keys are ignored here
    fault.schedule.link-a = 2h for 10min
    fed.site.site-a = gateway=node-a class=disk component=link-a
    fed.site.tape-1 = gateway=node-t class=tape
    fed.rule.disk-copy = copies=1 class=disk project=htm priority=2
    fed.rule.tape-copy = copies=1 class=tape lifetime=12h tag=archive done_tag=archived
    fed.quota.htm = 500GB
  )");
  ASSERT_TRUE(properties.is_ok());
  ASSERT_TRUE(w.fed->load(properties.value()).is_ok());
  EXPECT_EQ(w.fed->site_count(), 2u);
  EXPECT_EQ(w.fed->rule_count(), 2u);
  w.fed->start();
  const meta::DatasetId id = w.ingest("frame-1");
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "site-a"));
  EXPECT_FALSE(w.fed->has_replica(id, "tape-1"));  // gated on the tag
  ASSERT_TRUE(w.store.tag(id, "archive").is_ok());
  w.run_for(1_h);
  EXPECT_TRUE(w.fed->has_replica(id, "tape-1"));
}

TEST(Federation, LoadRejectsBadKeysAndValues) {
  World w;
  const auto unknown = Properties::parse("fed.bogus = 1");
  ASSERT_TRUE(unknown.is_ok());
  EXPECT_FALSE(w.fed->load(unknown.value()).is_ok());
  const auto bad_site = Properties::parse("fed.site.x = class=disk");
  ASSERT_TRUE(bad_site.is_ok());
  EXPECT_FALSE(w.fed->load(bad_site.value()).is_ok());  // missing gateway
  const auto bad_rule = Properties::parse("fed.rule.x = class=disk");
  ASSERT_TRUE(bad_rule.is_ok());
  EXPECT_FALSE(w.fed->load(bad_rule.value()).is_ok());  // missing copies
  const auto bad_class =
      Properties::parse("fed.rule.x = copies=1 class=floppy");
  ASSERT_TRUE(bad_class.is_ok());
  EXPECT_FALSE(w.fed->load(bad_class.value()).is_ok());
}

TEST(Federation, ParseBytesAcceptsDecimalUnits) {
  EXPECT_EQ(parse_bytes("1024").value(), 1024_B);
  EXPECT_EQ(parse_bytes("500GB").value(), 500_GB);
  EXPECT_EQ(parse_bytes("2TB").value(), 2_TB);
  EXPECT_EQ(parse_bytes(" 3 MB ").value(), 3_MB);
  EXPECT_FALSE(parse_bytes("GB").is_ok());
  EXPECT_FALSE(parse_bytes("5 parsecs").is_ok());
}

TEST(Federation, SameSeedReplaysIdentically) {
  const chk::Scenario scenario = [](std::uint64_t seed) {
    World w;
    w.add_disk_sites();
    w.add_tape_site();
    fault::FaultInjector injector(w.sim, seed);
    injector.register_link("link-a", w.topology, w.link_a);
    injector.on_topology_change([&w] { w.net.resync(); });
    w.fed->attach_faults(injector);
    w.fed->add_rule({.name = "disk-pair", .copies = 2,
                     .storage = StorageClass::kDisk});
    w.fed->add_rule({.name = "tape-copy", .copies = 1,
                     .storage = StorageClass::kTape});
    w.fed->start();
    EXPECT_TRUE(
        injector.arm_stochastic("link-a", 2_h, 20_min, SimTime::zero() + 12_h)
            .is_ok());
    for (int i = 0; i < 20; ++i) {
      w.sim.schedule_at(SimTime::zero() + 10_min * i, [&w, i] {
        (void)w.ingest("frame-" + std::to_string(i), 5_GB);
      });
    }
    w.sim.run_until(SimTime::zero() + 24_h);
    return chk::outcome_of(w.sim);
  };
  chk::require_replay_deterministic(scenario, 0x6665645F5245504CULL,
                                    "federation scenario");
}

// --- E11: the Heidelberg mirror day ------------------------------------------

struct MirrorDay {
  std::int64_t scheduled = 0;
  std::int64_t replicated = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::size_t peak_backlog = 0;
};

// The E11 one-rule Heidelberg mirror on the facility's WAN: every
// "share-with-heidelberg" dataset of zebrafish-htm gets one disk copy at
// Heidelberg and the "mirrored" tag, with the mirror's WAN parameters.
std::unique_ptr<FederationService> heidelberg_mirror(
    core::Facility& facility) {
  FederationConfig config;
  config.origin_gateway = facility.ingest_node();
  config.wan_efficiency = 0.62;
  config.max_concurrent = 4;
  config.retry.max_attempts = 50;
  config.retry.initial_backoff = 5_min;
  config.retry.max_backoff = 15_min;
  config.retry_seed = 0x6d6972726f72ULL;
  auto fed = std::make_unique<FederationService>(
      facility.simulator(), facility.network(), facility.metadata(), config);
  fed->add_site({.name = "heidelberg",
                 .gateway = facility.heidelberg_node(),
                 .storage = StorageClass::kDisk});
  fed->add_rule({.name = "heidelberg-mirror",
                 .project = "zebrafish-htm",
                 .trigger_tag = "share-with-heidelberg",
                 .done_tag = "mirrored",
                 .copies = 1,
                 .storage = StorageClass::kDisk});
  fed->start();
  return fed;
}

TEST(Federation, TagTriggersWanCopyAndDoneTag) {
  core::Facility facility(core::small_facility_config());
  ASSERT_TRUE(
      facility.metadata().create_project("zebrafish-htm", {}).is_ok());
  const auto fed = heidelberg_mirror(facility);
  const auto id = facility.metadata().register_dataset(
      {.project = "zebrafish-htm",
       .name = "frame-1",
       .data_uri = "adal://frame-1",
       .size = 100_MB,
       .now = facility.simulator().now()});
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(
      facility.metadata().tag(id.value(), "share-with-heidelberg").is_ok());
  facility.simulator().run_while_pending(
      [&] { return fed->has_replica(id.value(), "heidelberg"); });
  EXPECT_EQ(fed->stats().replicated, 1);
  EXPECT_EQ(fed->stats().bytes_replicated, 100_MB);
  const auto record = facility.metadata().get(id.value()).value();
  EXPECT_NE(std::find(record.tags.begin(), record.tags.end(), "mirrored"),
            record.tags.end());
}

// The E11 acquisition day (bench_e11_heidelberg_mirror): 300 bundles of
// 20 GB, every 3rd tagged for BioQuant, mirrored by one federation rule
// with the mirror's WAN parameters; optionally the WAN is down 08:00-10:00.
MirrorDay run_mirror_day(bool outage) {
  core::FacilityConfig config = core::small_facility_config();
  config.ingest.parallel_slots = 32;
  core::Facility facility(config);
  sim::Simulator& sim = facility.simulator();
  EXPECT_TRUE(
      facility.metadata().create_project("zebrafish-htm", {}).is_ok());
  const auto fed = heidelberg_mirror(facility);
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
  MirrorDay day;
  sim::PeriodicTask probe(sim, 5_min, [&] {
    day.peak_backlog =
        std::max(day.peak_backlog,
                 fed->backlog() + static_cast<std::size_t>(fed->in_flight()));
  });
  probe.start_at(SimTime::zero() + 5_min);
  sim.run_until(SimTime::zero() + 30_h);
  probe.stop();
  day.scheduled = fed->stats().scheduled;
  day.replicated = fed->stats().replicated;
  day.failed = fed->stats().failed;
  day.retries = fed->stats().retries;
  return day;
}

TEST(Federation, MirrorDayReplicatesEverySharedBundle) {
  const MirrorDay day = run_mirror_day(false);
  EXPECT_EQ(day.scheduled, 102);
  EXPECT_EQ(day.replicated, 102);
  EXPECT_EQ(day.failed, 0);
  EXPECT_EQ(day.retries, 0);
  EXPECT_EQ(day.peak_backlog, 1u);
}

TEST(Federation, MirrorDayOutageGrowsTheBacklogNotTheFailures) {
  const MirrorDay day = run_mirror_day(true);
  EXPECT_EQ(day.scheduled, 102);
  EXPECT_EQ(day.replicated, 102);
  EXPECT_EQ(day.failed, 0);
  EXPECT_EQ(day.retries, 30);
  EXPECT_EQ(day.peak_backlog, 11u);
}

}  // namespace
}  // namespace lsdf::fed
