#include "net/transfer_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/require.h"
#include "obs/trace.h"

namespace lsdf::net {
namespace {
// Flows whose remainder drops below this are considered delivered; avoids
// infinite event chains from floating-point residue.
constexpr double kEpsilonBytes = 1e-6;
}  // namespace

TransferEngine::TransferEngine(sim::Simulator& simulator,
                               const Topology& topology)
    : simulator_(simulator),
      topology_(topology),
      transfers_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_net_transfers_total")),
      bytes_metric_(
          obs::MetricsRegistry::global().counter("lsdf_net_bytes_total")),
      cancelled_metric_(obs::MetricsRegistry::global().counter(
          "lsdf_net_cancelled_total")),
      duration_metric_(obs::MetricsRegistry::global().hdr_histogram(
          "lsdf_net_transfer_seconds")),
      active_flows_metric_(
          obs::MetricsRegistry::global().gauge("lsdf_net_active_flows")) {}

obs::Counter& TransferEngine::link_bytes_metric(LinkId link) {
  if (link >= link_bytes_.size()) link_bytes_.resize(link + 1, nullptr);
  if (link_bytes_[link] == nullptr) {
    link_bytes_[link] = &obs::MetricsRegistry::global().counter(
        "lsdf_net_link_bytes_total", {{"link", std::to_string(link)}});
  }
  return *link_bytes_[link];
}

void TransferEngine::credit_link_bytes(const std::vector<LinkId>& path,
                                       double wire_bytes) {
  if (wire_bytes <= 0.0) return;
  for (const LinkId link : path) {
    if (link >= link_bytes_residue_.size()) {
      link_bytes_residue_.resize(link + 1, 0.0);
    }
    link_bytes_residue_[link] += wire_bytes;
    const double whole = std::floor(link_bytes_residue_[link]);
    if (whole >= 1.0) {
      link_bytes_metric(link).add(static_cast<std::int64_t>(whole));
      link_bytes_residue_[link] -= whole;
    }
  }
}

void TransferEngine::record_completion(const TransferCompletion& completion) {
  transfers_metric_.add(1);
  bytes_metric_.add(completion.size.count());
  duration_metric_.record(completion.duration().seconds());
  // Spans carry simulated timestamps, so they only make sense on a
  // sim-clocked tracer (a steady-clocked one would interleave wall time).
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && tracer.sim_clocked()) {
    tracer.emit_complete(
        "transfer", "net", completion.started.nanos() / 1000,
        (completion.finished - completion.started).nanos() / 1000,
        {{"bytes", std::to_string(completion.size.count())}});
  }
}

Result<FlowId> TransferEngine::start_transfer(NodeId src, NodeId dst,
                                              Bytes size,
                                              const TransferOptions& options,
                                              CompletionCallback on_complete) {
  LSDF_REQUIRE(size >= Bytes::zero(), "negative transfer size");
  LSDF_REQUIRE(options.efficiency > 0.0 && options.efficiency <= 1.0,
               "protocol efficiency must be in (0, 1]");
  LSDF_REQUIRE(options.weight > 0.0, "flow weight must be positive");
  LSDF_ASSIGN_OR_RETURN(std::vector<LinkId> path,
                        topology_.route(src, dst));
  const FlowId id = next_id_++;

  // Same-node "transfers" (e.g. a copy within one storage system) have no
  // network component; complete immediately.
  if (path.empty() || size == Bytes::zero()) {
    const SimTime started = simulator_.now();
    simulator_.schedule_after(
        SimDuration::zero(),
        [this, id, size, started, cb = std::move(on_complete)] {
          const TransferCompletion completion{id, size, started,
                                              simulator_.now()};
          record_completion(completion);
          if (cb) cb(completion);
        });
    return id;
  }

  const SimDuration latency = topology_.path_latency(path);
  const SimTime started = simulator_.now();
  // The flow joins the allocation after one path latency (connection setup
  // and first-byte propagation).
  simulator_.schedule_after(
      latency, [this, id, src, dst, size, started, path = std::move(path),
                options, ctx = obs::current_context(),
                cb = std::move(on_complete)]() mutable {
        advance_progress();
        const Slot slot = acquire_slot();
        Flow& flow = slots_[slot];
        flow.ctx = ctx;
        flow.id = id;
        flow.src = src;
        flow.dst = dst;
        flow.wire_bytes_remaining = size.as_double() / options.efficiency;
        flow.cap_bps = options.rate_cap.bps();
        flow.weight = options.weight;
        flow.size = size;
        flow.started = started;
        flow.on_complete = std::move(cb);
        flow.live = true;
        // Activations arrive in latency order, not id order.
        by_id_.insert(std::upper_bound(by_id_.begin(), by_id_.end(), id,
                                       [this](FlowId lhs, Slot rhs) {
                                         return lhs < slots_[rhs].id;
                                       }),
                      slot);
        join_path(slot, std::move(path));
        active_flows_metric_.set(static_cast<double>(by_id_.size()));
        reallocate();
      });
  return id;
}

TransferEngine::Slot TransferEngine::acquire_slot() {
  if (free_slots_.empty()) {
    slots_.emplace_back();
    return static_cast<Slot>(slots_.size() - 1);
  }
  const Slot slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

std::vector<TransferEngine::Slot>::const_iterator TransferEngine::find_live(
    FlowId id) const {
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [this](Slot lhs, FlowId rhs) { return slots_[lhs].id < rhs; });
  return it != by_id_.end() && slots_[*it].id == id ? it : by_id_.end();
}

void TransferEngine::finish(Slot slot, Status status) {
  Flow& flow = slots_[slot];
  TransferCompletion completion{flow.id, flow.size, flow.started,
                                simulator_.now()};
  completion.status = std::move(status);
  const CompletionCallback on_complete = std::move(flow.on_complete);
  const obs::ContextScope scope(flow.ctx);
  flow = Flow{};
  free_slots_.push_back(slot);
  if (completion.delivered()) record_completion(completion);
  if (on_complete) on_complete(completion);
}

bool TransferEngine::cancel(FlowId id) {
  advance_progress();
  const auto it = find_live(id);
  if (it == by_id_.end()) return false;
  const Slot slot = *it;
  by_id_.erase(it);
  leave_path(slot);
  active_flows_metric_.set(static_cast<double>(by_id_.size()));
  reallocate();
  // Deliver the terminal cancelled completion after the engine state is
  // consistent: the callback may start a replacement transfer.
  cancelled_metric_.add(1);
  finish(slot, lsdf::cancelled("transfer aborted by caller"));
  return true;
}

Rate TransferEngine::link_load(LinkId id) const {
  double total = 0.0;
  for (const Slot slot : by_id_) {
    const Flow& flow = slots_[slot];
    if (std::find(flow.path.begin(), flow.path.end(), id) !=
        flow.path.end()) {
      total += flow.rate_bps;
    }
  }
  return Rate::bytes_per_second(total);
}

Rate TransferEngine::flow_rate(FlowId id) const {
  const auto it = find_live(id);
  return it == by_id_.end() ? Rate::zero()
                            : Rate::bytes_per_second(slots_[*it].rate_bps);
}

void TransferEngine::advance_progress() {
  const SimDuration elapsed = simulator_.now() - last_update_;
  last_update_ = simulator_.now();
  if (elapsed <= SimDuration::zero() || by_id_.empty()) return;
  const double seconds = elapsed.seconds();
  // One pass in FlowId order: progress every flow, keep the unfinished
  // ones in place and detach the finished ones. Their callbacks run only
  // after the pass, at this same instant, so a callback that re-enters the
  // engine finds no elapsed time and leaves finished_ alone.
  finished_.clear();
  std::size_t kept = 0;
  for (const Slot slot : by_id_) {
    Flow& flow = slots_[slot];
    flow.wire_bytes_remaining -= flow.rate_bps * seconds;
    if (flow.wire_bytes_remaining <= kEpsilonBytes) {
      leave_path(slot);
      finished_.push_back(slot);
    } else {
      by_id_[kept++] = slot;
    }
  }
  if (finished_.empty()) return;
  by_id_.resize(kept);
  active_flows_metric_.set(static_cast<double>(by_id_.size()));
  for (const Slot slot : finished_) finish(slot, Status::ok());
}

void TransferEngine::resync() {
  advance_progress();
  reallocate();
}

std::size_t TransferEngine::stalled_flows() const {
  std::size_t count = 0;
  for (const Slot slot : by_id_) {
    if (slots_[slot].stalled) ++count;
  }
  return count;
}

void TransferEngine::repath_flows() {
  seen_topology_version_ = topology_.state_version();
  for (const Slot slot : by_id_) {
    Flow& flow = slots_[slot];
    // A flow needs a new path if its current one crosses a down link, or
    // if it is stalled and a route may have come back.
    bool broken = flow.stalled;
    for (const LinkId link : flow.path) {
      if (!topology_.link_up(link)) {
        broken = true;
        break;
      }
    }
    if (!broken) continue;
    auto rerouted = topology_.route(flow.src, flow.dst);
    // The flow leaves its old path (a no-op when already stalled) before
    // either joining the new one or stalling at rate zero.
    leave_path(slot);
    if (rerouted.is_ok()) {
      join_path(slot, std::move(rerouted).take());
    } else {
      flow.stalled = true;
      flow.rate_bps = 0.0;
    }
  }
}

void TransferEngine::join_path(Slot slot, std::vector<LinkId> path) {
  Flow& flow = slots_[slot];
  flow.path = std::move(path);
  flow.stalled = false;
  flow.path_start_remaining = flow.wire_bytes_remaining;
  for (const LinkId link : flow.path) {
    if (link >= flows_on_link_.size()) flows_on_link_.resize(link + 1);
    flows_on_link_[link].push_back(slot);
  }
  dirty_links_.insert(dirty_links_.end(), flow.path.begin(), flow.path.end());
}

void TransferEngine::leave_path(Slot slot) {
  const Flow& flow = slots_[slot];
  if (flow.stalled) return;
  // A finishing flow may overshoot below zero; it moved exactly what it
  // had left.
  credit_link_bytes(flow.path, flow.path_start_remaining -
                                   std::max(flow.wire_bytes_remaining, 0.0));
  for (const LinkId link : flow.path) {
    auto& on_link = flows_on_link_[link];
    const auto it = std::find(on_link.begin(), on_link.end(), slot);
    LSDF_DCHECK(it != on_link.end(), "unindexing a flow not on its link");
    if (it != on_link.end()) on_link.erase(it);
  }
  dirty_links_.insert(dirty_links_.end(), flow.path.begin(), flow.path.end());
}

void TransferEngine::closure_of_dirty() {
  closure_flows_.clear();
  closure_links_.clear();
  const std::uint64_t epoch = ++closure_epoch_;
  if (link_epoch_.size() < topology_.link_count()) {
    link_epoch_.resize(topology_.link_count(), 0);
  }
  const auto reach = [this, epoch](LinkId link) {
    if (link < link_epoch_.size() && link_epoch_[link] != epoch) {
      link_epoch_[link] = epoch;
      frontier_.push_back(link);
    }
  };
  for (const LinkId link : dirty_links_) reach(link);
  // Alternate link -> flows-on-link -> links-on-flow until the frontier is
  // exhausted: the result is the union of the connected components (flows
  // joined through shared links) touched by any dirty link. Every flow
  // crossing an output link is in the output flow set, so the water-fill
  // sees the complete demand on every capacity it redistributes.
  while (!frontier_.empty()) {
    const LinkId link = frontier_.back();
    frontier_.pop_back();
    closure_links_.push_back(link);
    if (link >= flows_on_link_.size()) continue;
    for (const Slot slot : flows_on_link_[link]) {
      Flow& flow = slots_[slot];
      LSDF_REQUIRE(flow.live, "flows-on-link index holds a dead flow");
      if (flow.closure_epoch == epoch) continue;
      flow.closure_epoch = epoch;
      closure_flows_.push_back(&flow);
      for (const LinkId next : flow.path) reach(next);
    }
  }
  std::sort(closure_links_.begin(), closure_links_.end());
  std::sort(closure_flows_.begin(), closure_flows_.end(),
            [](const Flow* lhs, const Flow* rhs) { return lhs->id < rhs->id; });
}

void TransferEngine::reallocate() {
  if (completion_scheduled_) {
    simulator_.cancel(pending_completion_);
    completion_scheduled_ = false;
  }
  if (by_id_.empty()) {
    dirty_links_.clear();
    return;
  }
  bool full = full_reallocation_;
  if (seen_topology_version_ != topology_.state_version()) {
    // Link-state changes can reroute flows arbitrarily far from the links
    // that went down or came back; recompute everything.
    repath_flows();
    full = true;
  }

  if (full) {
    dirty_links_.clear();
    closure_flows_.clear();
    for (const Slot slot : by_id_) {
      if (!slots_[slot].stalled) closure_flows_.push_back(&slots_[slot]);
    }
    if (all_links_.size() != topology_.link_count()) {
      all_links_.resize(topology_.link_count());
      for (std::size_t at = 0; at < all_links_.size(); ++at) {
        all_links_[at] = static_cast<LinkId>(at);
      }
    }
    allocate(closure_flows_, all_links_);
  } else {
    // Incremental path: only the components reachable from links whose
    // flow set changed can see different rates — max-min allocations are
    // component-local, and iterating the affected flows in FlowId order
    // over the affected links in ascending id order reproduces exactly
    // the floating-point reduction sequence a full pass would run for
    // those components, so the rates match a full recompute bit-for-bit
    // (transfer_incremental_test.cpp hunts for divergence with exact
    // double comparisons over a randomized schedule).
    closure_of_dirty();
    dirty_links_.clear();
    if (!closure_flows_.empty()) allocate(closure_flows_, closure_links_);
  }
  schedule_next_completion();
}

void TransferEngine::allocate(std::vector<Flow*>& unfrozen,
                              const std::vector<LinkId>& links) {
  // Progressive filling (weighted water-filling) with per-flow caps:
  // repeatedly find the binding constraint — either the tightest link's
  // per-unit-weight share or the smallest unfrozen cap-to-weight ratio —
  // freeze the flows it binds, and subtract their rates from their links.
  // A flow's rate is (per-unit share) x (its weight): QoS classes.
  //
  // LinkId-indexed vectors, not unordered maps: the bottleneck scan
  // iterates this state, and iterating an unordered container would tie
  // the floating-point reduction order (and thus, potentially, rate
  // ties) to hash-table layout — a determinism leak the chk fingerprint
  // exists to catch. Dense indexing is also ~2x faster here: link counts
  // are small and every probe becomes one array access. Only the entries
  // in `links` are reset; no other link is read.
  const std::size_t link_count = topology_.link_count();
  if (remaining_.size() < link_count) {
    remaining_.resize(link_count);
    unfrozen_weight_.resize(link_count);
    share_.resize(link_count);
  }
  for (const LinkId link : links) {
    remaining_[link] = 0.0;
    unfrozen_weight_[link] = 0.0;
  }
  for (const Flow* flow : unfrozen) {
    for (const LinkId link : flow->path) {
      remaining_[link] = topology_.link(link).capacity.bps();
      unfrozen_weight_[link] += flow->weight;
    }
  }
  for (Flow* flow : unfrozen) flow->rate_bps = 0.0;

  while (!unfrozen.empty()) {
    // Tightest per-unit-weight share among links carrying unfrozen flows.
    // Each link's share is computed once per round and reused by the
    // bottleneck test below, which reads the same two operands; links
    // without weight get a meaningless share that no flow ever reads.
    double unit_share = std::numeric_limits<double>::infinity();
    for (const LinkId link : links) {
      share_[link] = remaining_[link] / unfrozen_weight_[link];
      if (unfrozen_weight_[link] > 0.0) {
        unit_share = std::min(unit_share, share_[link]);
      }
    }
    // Smallest cap-to-weight ratio among unfrozen capped flows.
    double min_cap_unit = std::numeric_limits<double>::infinity();
    for (const Flow* flow : unfrozen) {
      if (flow->cap_bps > 0.0) {
        min_cap_unit = std::min(min_cap_unit, flow->cap_bps / flow->weight);
      }
    }

    next_round_.clear();
    if (min_cap_unit < unit_share) {
      // Cap-bound flows freeze at their cap.
      for (Flow* flow : unfrozen) {
        if (flow->cap_bps > 0.0 &&
            flow->cap_bps / flow->weight <= min_cap_unit) {
          flow->rate_bps = flow->cap_bps;
          for (const LinkId link : flow->path) {
            remaining_[link] -= flow->rate_bps;
            unfrozen_weight_[link] -= flow->weight;
          }
        } else {
          next_round_.push_back(flow);
        }
      }
    } else {
      // Flows crossing a bottleneck link freeze at weight x unit share.
      // The comparison is exact (no epsilon slack): links whose ratio is
      // the same double as the minimum freeze together, links even one ulp
      // above it wait for their own round. A tolerance here would make the
      // freeze set depend on which OTHER components share the round — the
      // per-component and whole-facility passes would then disagree at the
      // last bit whenever structurally similar components produce
      // algebraically equal ratios rounded one ulp apart.
      for (Flow* flow : unfrozen) {
        bool bottlenecked = false;
        for (const LinkId link : flow->path) {
          if (share_[link] <= unit_share) {
            bottlenecked = true;
            break;
          }
        }
        if (bottlenecked) flow->rate_bps = unit_share * flow->weight;
      }
      for (Flow* flow : unfrozen) {
        if (flow->rate_bps > 0.0) {
          for (const LinkId link : flow->path) {
            remaining_[link] -= flow->rate_bps;
            unfrozen_weight_[link] -= flow->weight;
          }
        } else {
          next_round_.push_back(flow);
        }
      }
    }
    LSDF_REQUIRE(next_round_.size() < unfrozen.size(),
                 "max-min allocation failed to make progress");
    unfrozen.swap(next_round_);
  }
}

void TransferEngine::schedule_next_completion() {
  // Earliest completion across every allocated flow (including flows in
  // components an incremental pass left untouched). Stalled flows (no
  // route) sit at rate zero until a resync finds them a path.
  double min_seconds = std::numeric_limits<double>::infinity();
  for (const Slot slot : by_id_) {
    const Flow& flow = slots_[slot];
    if (flow.stalled) continue;
    LSDF_REQUIRE(flow.rate_bps > 0.0, "allocated flow has zero rate");
    min_seconds =
        std::min(min_seconds, flow.wire_bytes_remaining / flow.rate_bps);
  }
  if (min_seconds == std::numeric_limits<double>::infinity()) return;
  pending_completion_ = simulator_.schedule_after(
      SimDuration::from_seconds(min_seconds) + SimDuration(1),
      [this] {
        completion_scheduled_ = false;
        advance_progress();
        reallocate();
      });
  completion_scheduled_ = true;
}

}  // namespace lsdf::net
