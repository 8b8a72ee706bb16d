// The step engine (DESIGN.md §3h).
//
// Network::step() runs each phase as a fleet of per-shard workers over the
// per-shard active sets, separated by pool barriers, with every ordered side
// effect buffered in the worker's ShardCtx and folded into global state by a
// single-threaded commit in canonical component order. A fresh network has
// one shard, whose worker runs inline on the caller's thread; the result is
// byte-identical across ALL shard counts (state, traces, counters,
// snapshots, telemetry, metrics streams).
//
// Ownership discipline (the whole correctness argument, verified by TSan):
//  * a shard owns its nodes' queues/ejection interfaces and every physical
//    channel whose SOURCE router it owns, VCs included;
//  * deliver and route touch only owned state — routing candidates are
//    channels out of the header's current router, which the router's shard
//    owns (the one cross-shard write, `from.route_out` in claim_vc, targets
//    the header's own VC, which no other shard touches this phase);
//  * transmit is split decide/pop/push: T1 is read-only against cycle-start
//    state, T2 performs the pops (each VC has a unique downstream mover),
//    T3 performs the pushes (each VC is pushed only by its own channel), so
//    no FlitFifo is ever touched by two threads in the same sub-phase.
//
// Computing a phase before committing it fixes two semantic choices:
// transmit decisions read cycle-start buffer occupancy (a slot freed this
// cycle is granted next cycle: a one-cycle credit return), and adaptive
// selection shuffles with a per-(message, cycle) hash stream rather than a
// shared generator whose draw order would encode the visit order. Neither
// depends on the shard count, which is what the byte-equality suite asserts.
#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/profiler.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace flexnet {

namespace {
/// Retry trace/order keys sort after every grant key (node ids < 2^31).
constexpr std::uint64_t kRetryKeyBase = 1ull << 32;

/// Visits the items of every shard's buffer (`items(ctx)`) in globally
/// ascending `key` order. Each buffer is already key-sorted and keys are
/// unique across shards (every component or scan position belongs to one
/// shard), so the visit order is the one a single-shard walk produces.
template <typename Items, typename Key, typename Visit>
void merge_shards(const std::vector<ShardCtx>& shards,
                  std::vector<std::size_t>& cursor, Items items, Key key,
                  Visit visit) {
  if (shards.size() == 1) {
    for (const auto& item : items(shards[0])) visit(item);
    return;
  }
  std::fill(cursor.begin(), cursor.end(), 0);
  for (;;) {
    std::size_t best = shards.size();
    std::uint64_t best_key = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const auto& buf = items(shards[s]);
      if (cursor[s] >= buf.size()) continue;
      const auto k = static_cast<std::uint64_t>(key(buf[cursor[s]]));
      if (best == shards.size() || k < best_key) {
        best = s;
        best_key = k;
      }
    }
    if (best == shards.size()) return;
    visit(items(shards[best])[cursor[best]++]);
  }
}
}  // namespace

void Network::set_shards(int shards) {
  if (shards < 1) throw std::invalid_argument("shard count must be >= 1");
  if (shards > topo_->num_nodes()) {
    throw std::invalid_argument("shard count exceeds node count (" +
                                std::to_string(topo_->num_nodes()) + ")");
  }
  // Fold the per-shard epoch terms into the base counter so arc_epoch()
  // stays monotonic across resharding.
  arc_epoch_ = arc_epoch();
  shard_ctx_.clear();
  pool_.reset();

  shard_plan_ = make_shard_plan(*topo_, shards);
  shard_chan_.resize(phys_.size());
  for (const PhysChannel& pc : phys_) {
    // Injection/ejection channels have src == dst == their node, so one rule
    // covers all kinds: a channel belongs to its source router's shard.
    shard_chan_[static_cast<std::size_t>(pc.id)] = shard_plan_.shard_of(pc.src);
  }

  shard_ctx_.resize(static_cast<std::size_t>(shard_plan_.shards));
  const auto nodes = static_cast<std::size_t>(topo_->num_nodes());
  for (std::size_t s = 0; s < shard_ctx_.size(); ++s) {
    ShardCtx& ctx = shard_ctx_[s];
    ctx.shard = static_cast<std::int32_t>(s);
    ctx.src_active.reset(nodes);
    ctx.eject_active.reset(nodes);
    ctx.chan_active.reset(phys_.size());
  }
  merge_cursor_.assign(shard_ctx_.size(), 0);
  pool_ = std::make_unique<WorkerPool>(shard_ctx_.size());
  // Without a message there is nothing to schedule (a fresh network).
  if (!messages_.empty()) rebuild_active_sets();
}

void Network::schedule_all() {
  const NodeId nodes = topo_->num_nodes();
  for (NodeId node = 0; node < nodes; ++node) {
    node_ctx(node).src_active.insert(node);
    node_ctx(node).eject_active.insert(node);
  }
  for (const PhysChannel& pc : phys_) channel_ctx(pc.id).chan_active.insert(pc.id);
}

void Network::buffer_trace(ShardCtx& ctx, std::uint64_t key,
                           TraceEventKind kind, MessageId msg, VcId vc,
                           VcId vc2, std::int32_t arg, NodeId node) {
  ShardTraceRecord rec;
  rec.key = key;
  rec.event.cycle = now_;
  rec.event.kind = kind;
  rec.event.message = msg;
  rec.event.vc = vc;
  rec.event.vc2 = vc2;
  rec.event.arg = arg;
  rec.event.node = (node != kInvalidNode || vc == kInvalidVc)
                       ? node
                       : phys(vcs_[static_cast<std::size_t>(vc)].channel).dst;
  ctx.trace_buf.push_back(rec);
}

void Network::flush_traces() {
  if (hooks_.tracer == nullptr) return;  // nothing was buffered
  merge_shards(
      shard_ctx_, merge_cursor_,
      [](const ShardCtx& ctx) -> const auto& { return ctx.trace_buf; },
      [](const ShardTraceRecord& rec) { return rec.key; },
      [this](const ShardTraceRecord& rec) { hooks_.tracer->emit(rec.event); });
  for (ShardCtx& ctx : shard_ctx_) ctx.trace_buf.clear();
}

void Network::step() {
  // Dense mode schedules everything once per step: each phase erases only
  // from its own set, so the sets are still full when the later phases walk
  // them.
  if (step_dense_) schedule_all();
  if (hooks_.profiler == nullptr) {
    deliver_phase();
    route_phase();
    transmit_phase();
  } else {
    {
      ScopedPhase timer(hooks_.profiler, SimPhase::Deliver);
      deliver_phase();
    }
    {
      ScopedPhase timer(hooks_.profiler, SimPhase::Route);
      route_phase();
    }
    {
      ScopedPhase timer(hooks_.profiler, SimPhase::Transmit);
      transmit_phase();
    }
  }
  ++now_;
}

// --- deliver ---------------------------------------------------------------

// Each phase returns at once when no shard has anything scheduled, so an
// idle cycle costs a few set-size probes, not five dispatches and commits.
void Network::deliver_phase() {
  if (active_eject_nodes() == 0) return;
  pool_->run([this](std::size_t s) { deliver_shard(shard_ctx_[s]); });
  commit_deliver();
}

void Network::deliver_shard(ShardCtx& ctx) {
  ctx.deliveries.clear();
  ctx.flits_delivered = 0;
  for (std::int32_t node = ctx.eject_active.first(); node != -1;
       node = ctx.eject_active.next_after(node)) {
    PhysChannel& pc = phys_[static_cast<std::size_t>(ejection_channel(node))];
    for (int j = 0; j < pc.num_vcs; ++j) {
      const int idx = (pc.rr_cursor + j) % pc.num_vcs;
      VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + idx)];
      // Every buffered flit is at least a cycle old here: flits land in T3
      // of transmit, and the cycle advances before the next deliver.
      if (w.buffer.empty()) continue;
      const Flit flit = w.buffer.pop();
      ctx.chan_active.insert(pc.id);  // freed space: the ejector can pull again
      ++messages_[static_cast<std::size_t>(flit.message)].flits_delivered;
      ++ctx.flits_delivered;
      if (flit.tail || hooks_.tracer != nullptr) {
        ShardDelivery rec;
        rec.node = node;
        rec.msg = flit.message;
        rec.eject_vc = w.id;
        rec.seq = flit.seq;
        rec.tail = flit.tail;
        ctx.deliveries.push_back(rec);
      }
      pc.rr_cursor = (idx + 1) % pc.num_vcs;
      break;  // one flit per reception channel per cycle
    }
    bool drained = true;
    for (int i = 0; i < pc.num_vcs; ++i) {
      if (!vcs_[static_cast<std::size_t>(pc.first_vc + i)].buffer.empty()) {
        drained = false;
        break;
      }
    }
    if (drained) ctx.eject_active.erase(node);
  }
}

void Network::commit_deliver() {
  for (const ShardCtx& ctx : shard_ctx_) {
    counters_.flits_delivered += ctx.flits_delivered;
  }
  // Merge by node id, emitting the flit trace and running tail completions
  // (which touch the active list, delivered counters, obs hook and base
  // epoch) on this thread.
  merge_shards(
      shard_ctx_, merge_cursor_,
      [](const ShardCtx& ctx) -> const auto& { return ctx.deliveries; },
      [](const ShardDelivery& rec) { return rec.node; },
      [this](const ShardDelivery& rec) {
        Message& msg = messages_[static_cast<std::size_t>(rec.msg)];
        if (hooks_.tracer != nullptr) {
          trace(TraceEventKind::FlitDelivered, msg.id, rec.eject_vc,
                kInvalidVc, rec.seq);
        }
        if (rec.tail) {
          complete_delivery(msg, vcs_[static_cast<std::size_t>(rec.eject_vc)]);
        }
      });
}

// --- route -----------------------------------------------------------------

void Network::route_phase() {
  if (pending_.empty() && active_source_nodes() == 0) {
    blocked_count_ = 0;
    return;
  }
  pool_->run([this](std::size_t s) { route_shard(shard_ctx_[s]); });
  commit_route();
}

void Network::route_shard(ShardCtx& ctx) {
  ctx.grants.clear();
  ctx.injected = 0;
  ctx.failures.clear();

  // Injection grants for this shard's nodes. src_active is exact except in
  // dense mode, whose extra (empty-queue) nodes are erased by the visit.
  for (std::int32_t node = ctx.src_active.first(); node != -1;
       node = ctx.src_active.next_after(node)) {
    grant_injection_vcs(node, ctx);
  }

  // Retry every unrouted header whose current router this shard owns,
  // walking the globally rotated order so the scan positions — the order the
  // 1-shard run processes and re-files failures — are shard-independent.
  // A lone shard owns every header, so it skips the ownership lookup.
  const bool foreign_possible = shard_ctx_.size() > 1;
  const std::size_t count = pending_.size();
  std::size_t at = count == 0 ? 0 : static_cast<std::size_t>(now_) % count;
  for (std::size_t i = 0; i < count; ++i, at = at + 1 == count ? 0 : at + 1) {
    const VcId head_vc = pending_[at];
    if (foreign_possible &&
        shard_of_node(phys(vcs_[static_cast<std::size_t>(head_vc)].channel)
                          .dst) != ctx.shard) {
      continue;
    }
    if (!route_header(head_vc, static_cast<std::uint32_t>(i), ctx)) {
      ShardRouteFailure failure;
      failure.scan_index = static_cast<std::uint32_t>(i);
      failure.head_vc = head_vc;
      ctx.failures.push_back(failure);
    }
  }
}

void Network::grant_injection_vcs(NodeId node, ShardCtx& ctx) {
  auto& queue = source_queues_[static_cast<std::size_t>(node)];
  const PhysChannel& pc =
      phys_[static_cast<std::size_t>(injection_channel(node))];
  for (int i = 0; i < pc.num_vcs && !queue.empty(); ++i) {
    VcState& vc = vcs_[static_cast<std::size_t>(pc.first_vc + i)];
    if (!vc.is_free()) continue;
    Message& msg = messages_[static_cast<std::size_t>(queue.front())];
    queue.pop_front();
    vc.owner = msg.id;
    vc.route_in = kInvalidVc;  // fed directly by the source
    msg.held.push_back(vc.id);
    ++ctx.epoch;  // a new ownership chain enters the CWG
    msg.status = MessageStatus::InFlight;
    msg.injected = now_;
    ctx.grants.push_back(msg.id);  // active_ membership applied at commit
    ++ctx.injected;
    ctx.chan_active.insert(pc.id);  // injection channel has source flits
    if (hooks_.tracer != nullptr) {
      const auto key = static_cast<std::uint64_t>(node);
      buffer_trace(ctx, key, TraceEventKind::VcAllocated, msg.id, vc.id);
      buffer_trace(ctx, key, TraceEventKind::MessageInjected, msg.id, vc.id,
                   kInvalidVc, static_cast<std::int32_t>(class_index(msg.cls)));
    }
  }
  if (queue.empty()) {
    ctx.src_active.erase(node);
  } else if (hooks_.heatmap != nullptr) {
    // A still-waiting head after the grant pass is an injection stall.
    // Per-node counter slot: safe to bump from the owning shard's worker.
    hooks_.heatmap->on_injection_stall(node);
  }
}

bool Network::route_header(VcId head_vc, std::uint32_t scan_index,
                           ShardCtx& ctx) {
  VcState& v = vcs_[static_cast<std::size_t>(head_vc)];
  assert(v.owner != kInvalidMessage && v.route_out == kInvalidVc);
  assert(!v.buffer.empty() && v.buffer.front().is_head());
  Message& msg = messages_[static_cast<std::size_t>(v.owner)];
  const NodeId here = phys(v.channel).dst;
  const std::uint64_t key = kRetryKeyBase + scan_index;

  ctx.scratch_channels.clear();
  const bool ejecting = (here == msg.dst);
  if (ejecting) {
    ctx.scratch_channels.push_back(ejection_channel(here));
  } else {
    routing_->candidate_channels(*this, msg, here, v.id, ctx.scratch_channels);
    assert(!ctx.scratch_channels.empty());
    // Selection draws from a per-(message, cycle) hash stream: a pure
    // function of (seed, message, cycle), so every shard count agrees.
    Pcg32 rng(config_.seed ^ (0x9e3779b97f4a7c15ULL *
                              (static_cast<std::uint64_t>(msg.id) + 1)),
              static_cast<std::uint64_t>(now_));
    selection_->order(*this, msg, v.id, ctx.scratch_channels, rng);
  }

  ctx.scratch_vcs.clear();
  const bool high_first = routing_->prefer_high_vc_indices();
  for (const ChannelId ch : ctx.scratch_channels) {
    const PhysChannel& pc = phys(ch);
    for (int j = 0; j < pc.num_vcs; ++j) {
      const int idx = high_first ? pc.num_vcs - 1 - j : j;
      if (pc.kind == ChannelKind::Network &&
          !routing_->vc_allowed(*this, msg, ch, idx, v.id)) {
        continue;
      }
      ctx.scratch_vcs.push_back(pc.first_vc + idx);
    }
  }
  assert(!ctx.scratch_vcs.empty());

  for (const VcId candidate : ctx.scratch_vcs) {
    VcState& w = vcs_[static_cast<std::size_t>(candidate)];
    if (w.is_free()) {
      claim_vc(msg, v, w, key, ctx);
      return true;
    }
  }

  const bool newly_blocked = !msg.blocked;
  if (newly_blocked || msg.request_set != ctx.scratch_vcs) ++ctx.epoch;
  if (newly_blocked) {
    msg.blocked = true;
    msg.blocked_since = now_;
  }
  if (hooks_.tracer != nullptr) {
    ctx.scratch_old_requests.assign(msg.request_set.begin(),
                                    msg.request_set.end());
    msg.request_set.assign(ctx.scratch_vcs.begin(), ctx.scratch_vcs.end());
    if (newly_blocked) {
      buffer_trace(ctx, key, TraceEventKind::MessageBlocked, msg.id, head_vc,
                   kInvalidVc,
                   static_cast<std::int32_t>(msg.request_set.size()));
    }
    // Dashed-arc delta. Request sets are tiny (one entry per candidate VC),
    // so the quadratic scan is cheaper than sorting.
    for (const VcId want : msg.request_set) {
      if (std::find(ctx.scratch_old_requests.begin(),
                    ctx.scratch_old_requests.end(),
                    want) == ctx.scratch_old_requests.end()) {
        buffer_trace(ctx, key, TraceEventKind::CwgArcAdded, msg.id, want,
                     head_vc);
      }
    }
    for (const VcId had : ctx.scratch_old_requests) {
      if (std::find(msg.request_set.begin(), msg.request_set.end(), had) ==
          msg.request_set.end()) {
        buffer_trace(ctx, key, TraceEventKind::CwgArcRemoved, msg.id, had,
                     head_vc);
      }
    }
  } else {
    msg.request_set.assign(ctx.scratch_vcs.begin(), ctx.scratch_vcs.end());
  }
  return false;
}

void Network::claim_vc(Message& msg, VcState& from, VcState& target,
                       std::uint64_t trace_key, ShardCtx& ctx) {
  assert(target.is_free() && target.buffer.empty());
  assert(!phys(target.channel).faulted);
  if (hooks_.tracer != nullptr) {
    for (const VcId want : msg.request_set) {
      buffer_trace(ctx, trace_key, TraceEventKind::CwgArcRemoved, msg.id, want,
                   from.id);
    }
    buffer_trace(ctx, trace_key, TraceEventKind::VcAllocated, msg.id,
                 target.id, from.id);
    if (msg.blocked) {
      buffer_trace(ctx, trace_key, TraceEventKind::MessageUnblocked, msg.id,
                   target.id, from.id,
                   static_cast<std::int32_t>(now_ - msg.blocked_since));
    }
  }
  target.owner = msg.id;
  target.route_in = from.id;
  from.route_out = target.id;
  from.out_channel = target.channel;
  msg.held.push_back(target.id);
  ++ctx.epoch;  // new solid arc; the unblocked message drops its dashed arcs
  // The target channel is out of the header's router, so it belongs to this
  // shard: wake it directly.
  assert(shard_of_channel(target.channel) == ctx.shard);
  ctx.chan_active.insert(target.channel);

  const PhysChannel& pc = phys(target.channel);
  if (pc.kind == ChannelKind::Network) {
    ++msg.hops;
    if (!topo_->hop_is_minimal(topo_->channel(pc.id), msg.dst)) ++msg.misroutes;
  }
  msg.blocked = false;
  msg.request_set.clear();
}

void Network::commit_route() {
  // Injection grants join the active list in source-node order; each
  // shard's grant list is already node-ordered.
  merge_shards(
      shard_ctx_, merge_cursor_,
      [](const ShardCtx& ctx) -> const auto& { return ctx.grants; },
      [this](MessageId id) {
        return messages_[static_cast<std::size_t>(id)].src;
      },
      [this](MessageId id) {
        active_pos_[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(active_.size());
        active_.push_back(id);
      });

  // Rebuild pending_ from the failures, in rotated-scan order.
  scratch_pending_.clear();
  merge_shards(
      shard_ctx_, merge_cursor_,
      [](const ShardCtx& ctx) -> const auto& { return ctx.failures; },
      [](const ShardRouteFailure& f) { return f.scan_index; },
      [this](const ShardRouteFailure& f) {
        scratch_pending_.push_back(f.head_vc);
      });
  pending_.swap(scratch_pending_);
  blocked_count_ = static_cast<int>(pending_.size());

  for (const ShardCtx& ctx : shard_ctx_) {
    counters_.injected += ctx.injected;
    queued_ -= ctx.injected;  // each grant popped one source-queue entry
  }
  flush_traces();
}

// --- transmit --------------------------------------------------------------

void Network::transmit_phase() {
  if (active_channels() == 0) return;
  pool_->run([this](std::size_t s) { transmit_decide_shard(shard_ctx_[s]); });
  pool_->run([this](std::size_t s) { transmit_pop_shard(shard_ctx_[s]); });
  pool_->run([this](std::size_t s) { transmit_push_shard(shard_ctx_[s]); });
  commit_transmit();
}

void Network::transmit_decide_shard(ShardCtx& ctx) {
  ctx.moves.clear();
  ctx.pending_adds.clear();
  ctx.wake_outbox.clear();
  // Read-only against phase-start state (the only mutation is descheduling
  // our own channels, which touches no VC). Every decision — including the
  // round-robin winner and the deschedule verdict — is therefore a pure
  // function of committed state, independent of shard count and of other
  // shards' concurrent decisions.
  for (std::int32_t ch = ctx.chan_active.first(); ch != -1;
       ch = ctx.chan_active.next_after(ch)) {
    const PhysChannel& pc = phys_[static_cast<std::size_t>(ch)];
    bool moved = false;
    if (pc.kind == ChannelKind::Injection) {
      for (int j = 0; j < pc.num_vcs; ++j) {
        int idx = pc.rr_cursor + j;
        if (idx >= pc.num_vcs) idx -= pc.num_vcs;
        const VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + idx)];
        if (w.is_free() || w.buffer.full()) continue;
        const Message& msg = messages_[static_cast<std::size_t>(w.owner)];
        if (msg.flits_sent >= msg.length) continue;
        ShardMove move;
        move.channel = pc.id;
        move.dst_vc = w.id;
        move.upstream = kInvalidVc;
        move.rr_index = idx;
        ctx.moves.push_back(move);
        moved = true;
        break;
      }
    } else {
      for (int j = 0; j < pc.num_vcs; ++j) {
        int idx = pc.rr_cursor + j;
        if (idx >= pc.num_vcs) idx -= pc.num_vcs;
        const VcState& w = vcs_[static_cast<std::size_t>(pc.first_vc + idx)];
        if (w.is_free() || w.route_in == kInvalidVc || w.buffer.full()) {
          continue;
        }
        // A non-empty upstream buffer holds only flits from earlier cycles
        // (this cycle's pushes happen in T3), so its front may move.
        const VcState& u = vcs_[static_cast<std::size_t>(w.route_in)];
        if (u.buffer.empty()) continue;
        ShardMove move;
        move.channel = pc.id;
        move.dst_vc = w.id;
        move.upstream = u.id;
        move.rr_index = idx;
        ctx.moves.push_back(move);
        moved = true;
        break;
      }
    }
    if (!moved && !transmit_work_possible(pc)) ctx.chan_active.erase(ch);
  }
}

void Network::transmit_pop_shard(ShardCtx& ctx) {
  // Each VC has exactly one downstream mover (route_out is unique), so these
  // pops — possibly of other shards' VCs — never collide; pushes wait for
  // the next barrier so no FlitFifo sees a pop and a push concurrently.
  for (ShardMove& move : ctx.moves) {
    if (move.upstream == kInvalidVc) continue;
    VcState& u = vcs_[static_cast<std::size_t>(move.upstream)];
    move.flit = u.buffer.pop();
  }
}

void Network::transmit_push_shard(ShardCtx& ctx) {
  // A lone shard owns every channel, so it skips the ownership lookups.
  const bool foreign_possible = shard_ctx_.size() > 1;
  for (const ShardMove& move : ctx.moves) {
    PhysChannel& pc = phys_[static_cast<std::size_t>(move.channel)];
    VcState& w = vcs_[static_cast<std::size_t>(move.dst_vc)];
    const auto key = static_cast<std::uint64_t>(pc.id);
    if (pc.kind == ChannelKind::Injection) {
      Message& msg = messages_[static_cast<std::size_t>(w.owner)];
      Flit flit;
      flit.message = msg.id;
      flit.seq = msg.flits_sent++;
      flit.tail = flit.is_tail_of(msg.length);
      flit.arrived = now_;
      w.buffer.push(flit);
      if (flit.is_head()) {
        ShardPendingAdd add;
        add.channel = pc.id;
        add.vc = w.id;
        ctx.pending_adds.push_back(add);
      }
      if (w.out_channel != kInvalidChannel) {
        // A routed head is already downstream; its channel leaves this node,
        // so it is ours to wake directly.
        ctx.chan_active.insert(w.out_channel);
      }
      if (hooks_.heatmap != nullptr) hooks_.heatmap->on_traversal(pc.id, w.id);
      if (hooks_.tracer != nullptr) {
        buffer_trace(ctx, key, TraceEventKind::FlitInjected, msg.id, w.id,
                     kInvalidVc, flit.seq);
      }
      pc.rr_cursor = move.rr_index + 1 == pc.num_vcs ? 0 : move.rr_index + 1;
      continue;
    }

    Flit flit = move.flit;
    assert(flit.message == w.owner);
    VcState& u = vcs_[static_cast<std::size_t>(move.upstream)];
    // Freed buffer space upstream: wake the feeding channel (often another
    // shard's — route through the outbox).
    if (!foreign_possible || shard_of_channel(u.channel) == ctx.shard) {
      ctx.chan_active.insert(u.channel);
    } else {
      ctx.wake_outbox.push_back(u.channel);
    }
    const bool tail_left_upstream = flit.tail;
    if (tail_left_upstream) {
      Message& msg = messages_[static_cast<std::size_t>(flit.message)];
      assert(!msg.held.empty() && msg.held.front() == u.id);
      msg.held.erase(msg.held.begin());
      u.release();
      w.route_in = kInvalidVc;  // no further flits arrive from upstream
      ++ctx.epoch;  // oldest solid arc retired, VC ownership vacated
    }
    flit.arrived = now_;
    w.buffer.push(flit);
    if (pc.kind == ChannelKind::Ejection) {
      ctx.eject_active.insert(pc.dst);  // the reception interface has work
    } else if (w.out_channel != kInvalidChannel) {
      const ChannelId next = w.out_channel;
      if (!foreign_possible || shard_of_channel(next) == ctx.shard) {
        ctx.chan_active.insert(next);
      } else {
        ctx.wake_outbox.push_back(next);
      }
    }
    if (hooks_.heatmap != nullptr) hooks_.heatmap->on_traversal(pc.id, w.id);
    if (hooks_.tracer != nullptr) {
      buffer_trace(ctx, key, TraceEventKind::FlitHopped, flit.message, w.id,
                   u.id, flit.seq);
      if (tail_left_upstream) {
        buffer_trace(ctx, key, TraceEventKind::VcFreed, flit.message, u.id);
      }
    }
    if (flit.is_head() && pc.kind != ChannelKind::Ejection) {
      ShardPendingAdd add;
      add.channel = pc.id;
      add.vc = w.id;
      ctx.pending_adds.push_back(add);
    }
    pc.rr_cursor = move.rr_index + 1 == pc.num_vcs ? 0 : move.rr_index + 1;
  }
}

void Network::commit_transmit() {
  // New unrouted heads join pending_ in channel-id order, after the route
  // phase's rotated rebuild.
  merge_shards(
      shard_ctx_, merge_cursor_,
      [](const ShardCtx& ctx) -> const auto& { return ctx.pending_adds; },
      [](const ShardPendingAdd& add) { return add.channel; },
      [this](const ShardPendingAdd& add) { pending_.push_back(add.vc); });

  // Cross-shard wakeups: idempotent set inserts, order irrelevant.
  for (const ShardCtx& ctx : shard_ctx_) {
    for (const ChannelId ch : ctx.wake_outbox) {
      channel_ctx(ch).chan_active.insert(ch);
    }
  }
  flush_traces();
}

}  // namespace flexnet
