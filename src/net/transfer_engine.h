//! Flow-level data-transfer simulation with max-min fair bandwidth sharing.
//!
//! Concurrent transfers crossing the same links share capacity the way TCP
//! flows do in aggregate: the engine computes the max-min fair allocation
//! (progressive filling with per-flow rate caps) every time the flow set
//! changes, and advances each flow's progress between changes. This is the
//! standard flow-level abstraction used by grid/datacentre simulators — it
//! reproduces transfer times and link utilisation without packet-level cost,
//! which is exactly what the paper's "15 days per PB over 10 Gb/s" argument
//! is about.
//!
//! Per-link byte counters (`lsdf_net_link_bytes_total{link}`) advance when a
//! flow leaves a path — on completion, on cancel, and when a link-state
//! change reroutes or stalls it — by the wire bytes the flow moved while on
//! that path. A long flow's bytes therefore appear at its settle points, not
//! continuously; the totals equal the bytes each link carried.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace lsdf::net {

using FlowId = std::uint64_t;

struct TransferOptions {
  // Fraction of allocated wire bandwidth that becomes goodput (protocol,
  // checksumming and retransmission overhead). 2011-era WAN TCP commonly
  // achieved 0.6-0.7 on clean 10 GE paths.
  double efficiency = 1.0;
  // Optional per-flow rate cap (e.g. a single gridftp stream); zero = none.
  Rate rate_cap = Rate::zero();
  // QoS class: bandwidth shares are proportional to weight under
  // contention (weighted max-min). The facility runs DAQ ingest at a
  // higher weight than bulk exports so acquisition is never starved.
  double weight = 1.0;
};

struct TransferCompletion {
  FlowId id = 0;
  Bytes size;
  SimTime started;
  SimTime finished;
  // OK when the last byte arrived; kCancelled when the flow was aborted.
  // Every started flow receives exactly one terminal completion.
  Status status = Status::ok();
  [[nodiscard]] bool delivered() const { return status.is_ok(); }
  [[nodiscard]] SimDuration duration() const { return finished - started; }
  [[nodiscard]] Rate goodput() const { return average_rate(size, duration()); }
};

class TransferEngine {
 public:
  using CompletionCallback = std::function<void(const TransferCompletion&)>;

  TransferEngine(sim::Simulator& simulator, const Topology& topology);

  // Begin moving `size` bytes from `src` to `dst`. The flow becomes active
  // after the path's propagation latency and `on_complete` fires when the
  // last byte arrives. Fails if no route exists.
  Result<FlowId> start_transfer(NodeId src, NodeId dst, Bytes size,
                                const TransferOptions& options,
                                CompletionCallback on_complete);

  // Abort an in-flight transfer. The flow's callback fires exactly once
  // with a kCancelled status (terminal completion), so holders of
  // concurrency slots or futures are always released.
  // Returns false if the flow already completed or never existed.
  bool cancel(FlowId id);

  // Re-path flows after a topology link-state change (the redundant-router
  // failover of paper slide 7). Flows with an alternative route continue
  // from their current progress over the new path; flows with no route
  // stall at rate zero and resume on the next resync that finds one.
  // Also called lazily whenever the engine reallocates.
  void resync();

  [[nodiscard]] std::size_t stalled_flows() const;

  [[nodiscard]] std::size_t active_flows() const { return by_id_.size(); }

  // The fabric this engine routes over — services that resolve node names
  // from deployment files (fed site gateways) read it here instead of
  // threading a second Topology reference through their constructors.
  [[nodiscard]] const Topology& topology() const { return topology_; }

  // Currently allocated wire rate over a link (post-allocation).
  [[nodiscard]] Rate link_load(LinkId id) const;

  // Instantaneous rate of one flow (zero if unknown/finished).
  [[nodiscard]] Rate flow_rate(FlowId id) const;

  // Test hook: force every reallocation to recompute the whole flow set
  // from scratch instead of only the components touched by dirty links.
  // The incremental path must produce identical allocations — the
  // differential test in transfer_incremental_test.cpp drives one engine
  // in each mode through the same schedule and compares rates exactly.
  void set_full_reallocation(bool full) { full_reallocation_ = full; }

 private:
  // A flow's index in the slab `slots_`: stable from activation until its
  // terminal completion, so the flows-on-link index can hold it directly.
  using Slot = std::uint32_t;

  struct Flow {
    FlowId id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    std::vector<LinkId> path;
    bool stalled = false;               // no route currently exists
    double wire_bytes_remaining = 0.0;  // size / efficiency
    // wire_bytes_remaining when the flow joined `path`: the path has carried
    // the difference, credited to its links when the flow leaves it.
    double path_start_remaining = 0.0;
    double rate_bps = 0.0;              // current allocated wire rate
    double cap_bps = 0.0;               // 0 = uncapped
    double weight = 1.0;
    Bytes size;
    SimTime started;
    CompletionCallback on_complete;
    // Request context captured at start_transfer. Completions fire from
    // whichever event advanced the clock past the flow's finish time — a
    // context belonging to some *other* request — so finish() re-installs
    // this one before the span and callback (DESIGN.md §4g).
    obs::RequestContext ctx;
    bool live = false;               // slot holds an active flow
    std::uint64_t closure_epoch = 0;  // last closure that reached the flow
  };

  // Move every active flow forward to now() and complete any that finish,
  // in FlowId order.
  void advance_progress();
  // Recompute the max-min allocation and schedule the next completion.
  // Incremental: only the connected components (flows linked through
  // shared links) reachable from links marked dirty since the last
  // allocation are recomputed; untouched components keep their rates,
  // which a full recompute would reproduce bit-for-bit (their binding
  // arithmetic involves only component-local capacities and weights).
  void reallocate();
  // Weighted max-min water-filling over one flow set; consumes `unfrozen`.
  // `links` is every link carrying a flow in `unfrozen` (ascending,
  // deduplicated), and `unfrozen` is in FlowId order — both orders match
  // what a full pass would produce, so the floating-point reduction
  // sequence (and therefore every allocated rate) is identical either way.
  void allocate(std::vector<Flow*>& unfrozen, const std::vector<LinkId>& links);
  // Affected-component closure: BFS from the dirty links over the
  // flows-on-link index, marking links and flows with a fresh epoch.
  // Leaves the component's flows (FlowId order) in closure_flows_ and its
  // links (ascending) in closure_links_.
  void closure_of_dirty();
  // Re-arm the pending completion event for the earliest-finishing flow.
  void schedule_next_completion();
  void repath_flows();

  // Slab and FlowId-order bookkeeping.
  Slot acquire_slot();
  // The live flow `id` in by_id_, or by_id_.end().
  [[nodiscard]] std::vector<Slot>::const_iterator find_live(FlowId id) const;
  // Deliver a detached flow's terminal completion under its own request
  // context. The slot is freed before the callback runs, so a callback
  // that re-enters the engine finds it consistent.
  void finish(Slot slot, Status status);

  // Path membership. join_path indexes the flow on `path` and marks it
  // dirty; leave_path credits the wire bytes the path carried since the
  // join, unindexes the flow and marks the path dirty. Stalled flows hold
  // no path, so leave_path is a no-op for them.
  void join_path(Slot slot, std::vector<LinkId> path);
  void leave_path(Slot slot);

  // Telemetry: completion totals, duration distribution, live-flow gauge
  // and lazily created per-link byte counters (labels: link id).
  void record_completion(const TransferCompletion& completion);
  obs::Counter& link_bytes_metric(LinkId link);
  // Credit `wire_bytes` to every link on `path`, accumulating sub-byte
  // residue per link so settle-by-settle attribution never drifts.
  void credit_link_bytes(const std::vector<LinkId>& path, double wire_bytes);

  sim::Simulator& simulator_;
  const Topology& topology_;
  std::vector<Flow> slots_;       // flow slab; free slots have live == false
  std::vector<Slot> free_slots_;
  std::vector<Slot> by_id_;       // live flows, ascending FlowId
  FlowId next_id_ = 1;
  SimTime last_update_;
  std::uint64_t seen_topology_version_ = 0;
  sim::EventId pending_completion_{};
  bool completion_scheduled_ = false;
  // Which flows currently cross each link; drives the affected-component
  // closure in reallocate().
  std::vector<std::vector<Slot>> flows_on_link_;
  // Links whose flow set changed since the last allocation (dupes fine).
  std::vector<LinkId> dirty_links_;
  bool full_reallocation_ = false;

  // Per-call scratch, reused so the steady-state event path allocates
  // nothing: closure marks and output, the full-pass link list, the
  // water-fill's LinkId-indexed state, and the finished-flow list.
  std::uint64_t closure_epoch_ = 0;
  std::vector<std::uint64_t> link_epoch_;
  std::vector<LinkId> frontier_;
  std::vector<Flow*> closure_flows_;
  std::vector<LinkId> closure_links_;
  std::vector<LinkId> all_links_;
  std::vector<double> remaining_;        // capacity left per link
  std::vector<double> unfrozen_weight_;  // unfrozen weight per link
  std::vector<double> share_;            // remaining_ / unfrozen_weight_
  std::vector<Flow*> next_round_;
  std::vector<Slot> finished_;

  obs::Counter& transfers_metric_;
  obs::Counter& bytes_metric_;
  obs::Counter& cancelled_metric_;
  obs::HdrHistogram& duration_metric_;
  obs::Gauge& active_flows_metric_;
  std::vector<obs::Counter*> link_bytes_;   // indexed by LinkId
  std::vector<double> link_bytes_residue_;  // sub-byte carry per link
};

}  // namespace lsdf::net
