// The flit arena and the cached per-hop facts (DESIGN.md §3h): every VC
// buffer is a view into one Network-owned arena, each flit carries a tail
// bit and each routed VC caches its downstream channel. Neither cache enters
// the snapshot format, so these tests pin that restore derives them, that
// check_invariants rejects a stale cache or a flit stamped with the current
// cycle, that a restored network steps in lockstep with the original at one
// and at three shards, and that the running queued-message count matches the
// source queues through injection, recovery, resharding and restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "exp/experiment.hpp"
#include "sim/network.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/injection.hpp"
#include "util/binio.hpp"

namespace flexnet {
namespace {

std::vector<std::uint8_t> net_bytes(const Network& net) {
  BinWriter out;
  net.save_state(out);
  return out.bytes();
}

/// Records every event in emission order.
class CollectSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

/// Wormhole congestion on an 8-ary 2-cube: 8-flit messages over 2-flit
/// buffers, so chains span several routed VCs and tails sit in buffers.
ExperimentConfig congested_config(int shards) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 8;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::TFAR;
  cfg.sim.vcs = 2;
  cfg.sim.message_length = 8;
  cfg.sim.buffer_depth = 2;
  cfg.sim.seed = 29;
  cfg.traffic.load = 0.7;
  cfg.detector.interval = 20;
  cfg.detector.recovery = RecoveryKind::RemoveOldest;
  cfg.run.shards = shards;
  return cfg;
}

std::int64_t sum_of_queues(const Network& net) {
  std::int64_t total = 0;
  for (NodeId n = 0; n < net.topology().num_nodes(); ++n) {
    total += static_cast<std::int64_t>(net.source_queue_length(n));
  }
  return total;
}

/// A VC holding buffered flits, for the corruption tests.
VcId busy_vc(const Network& net) {
  for (std::size_t v = 0; v < net.num_vcs(); ++v) {
    const VcState& vc = net.vc(static_cast<VcId>(v));
    if (!vc.buffer.empty() && vc.route_out != kInvalidVc) {
      return static_cast<VcId>(v);
    }
  }
  return kInvalidVc;
}

/// The Network hands out const views of its state; these tests corrupt a
/// cache in place (the objects themselves are not const) to prove the
/// invariant check notices.
VcState& mutable_vc(const Network& net, VcId id) {
  return const_cast<VcState&>(net.vc(id));
}

class SnapshotLockstep : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotLockstep, RestoredCachesStepLikeTheOriginal) {
  const int shards = GetParam();
  Simulation original(congested_config(shards));
  for (Cycle i = 0; i < 600; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    original.detector().tick(original.network());
  }
  const Network& live = original.network();

  // The save point must exercise both caches: buffered tail flits and
  // routed chains.
  int tails = 0;
  int routed = 0;
  for (std::size_t v = 0; v < live.num_vcs(); ++v) {
    const VcState& vc = live.vc(static_cast<VcId>(v));
    if (vc.route_out != kInvalidVc) ++routed;
    for (int i = 0; i < vc.buffer.size(); ++i) tails += vc.buffer.at(i).tail;
  }
  ASSERT_GT(tails, 0);
  ASSERT_GT(routed, 0);

  RestoredSim restored = restore_snapshot(original.make_checkpoint());
  restored.net->set_shards(shards);
  ASSERT_EQ(net_bytes(*restored.net), net_bytes(live));
  // Every derived cache equals the live one, VC by VC and flit by flit.
  for (std::size_t v = 0; v < live.num_vcs(); ++v) {
    const VcState& a = live.vc(static_cast<VcId>(v));
    const VcState& b = restored.net->vc(static_cast<VcId>(v));
    ASSERT_EQ(a.out_channel, b.out_channel) << "vc " << v;
    ASSERT_EQ(a.buffer.size(), b.buffer.size()) << "vc " << v;
    for (int i = 0; i < a.buffer.size(); ++i) {
      ASSERT_EQ(a.buffer.at(i), b.buffer.at(i)) << "vc " << v;
    }
  }

  Tracer original_tracer;
  Tracer restored_tracer;
  CollectSink original_events;
  CollectSink restored_events;
  original_tracer.add_sink(&original_events);
  restored_tracer.add_sink(&restored_events);
  NetworkHooks hooks = original.network().hooks();
  hooks.tracer = &original_tracer;
  original.network().install_hooks(hooks);
  hooks = restored.net->hooks();
  hooks.tracer = &restored_tracer;
  restored.net->install_hooks(hooks);

  for (Cycle i = 0; i < 600; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    const int a = original.detector().tick(original.network());
    restored.injection->tick(*restored.net);
    restored.net->step();
    const int b = restored.detector->tick(*restored.net);
    ASSERT_EQ(a, b) << "diverged at cycle " << i;
    if (i % 100 == 0) {
      ASSERT_EQ(net_bytes(*restored.net), net_bytes(original.network()))
          << "state diverged by cycle " << i;
    }
  }
  EXPECT_EQ(net_bytes(*restored.net), net_bytes(original.network()));
  ASSERT_FALSE(original_events.events.empty());
  EXPECT_EQ(restored_events.events, original_events.events);
  restored.net->check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Shards, SnapshotLockstep, ::testing::Values(1, 3));

TEST(FlitArena, CheckInvariantsRejectsStaleCachesAndYoungFlits) {
  Simulation sim(congested_config(1));
  sim.run_cycles(300);
  const Network& net = sim.network();
  net.check_invariants();
  const VcId id = busy_vc(net);
  ASSERT_NE(id, kInvalidVc);
  VcState& vc = mutable_vc(net, id);
  Flit& flit = vc.buffer.at(0);

  flit.tail = !flit.tail;
  EXPECT_THROW(net.check_invariants(), std::logic_error);
  flit.tail = !flit.tail;

  const ChannelId out = vc.out_channel;
  vc.out_channel = vc.channel;
  EXPECT_THROW(net.check_invariants(), std::logic_error);
  vc.out_channel = out;
  net.check_invariants();

  // Deliver and transmit move any buffered flit without testing its age,
  // which is sound only while every flit predates the current cycle; a
  // snapshot carrying a younger one is rejected on restore.
  const Cycle arrived = flit.arrived;
  flit.arrived = net.now();
  EXPECT_THROW(net.check_invariants(), std::logic_error);
  const Snapshot bad = sim.make_checkpoint();
  EXPECT_THROW((void)restore_snapshot(bad), std::logic_error);
  flit.arrived = arrived;
  net.check_invariants();
}

TEST(FlitArena, RestoreDerivesCachesInsteadOfReadingThem) {
  // Stale caches in the source never reach the snapshot bytes: the restored
  // network recomputes both from route_out and message lengths.
  Simulation sim(congested_config(1));
  sim.run_cycles(300);
  const Network& net = sim.network();
  const VcId id = busy_vc(net);
  ASSERT_NE(id, kInvalidVc);
  VcState& vc = mutable_vc(net, id);
  const Flit good = vc.buffer.at(0);
  const ChannelId out = vc.out_channel;
  vc.buffer.at(0).tail = !good.tail;
  vc.out_channel = kInvalidChannel;

  RestoredSim restored = restore_snapshot(sim.make_checkpoint());
  EXPECT_EQ(restored.net->vc(id).buffer.at(0), good);
  EXPECT_EQ(restored.net->vc(id).out_channel, out);
  restored.net->check_invariants();
  vc.buffer.at(0) = good;
  vc.out_channel = out;
}

TEST(FlitArena, QueuedCountMatchesSourceQueues) {
  // One VC past saturation, so queues back up and knots form for recovery
  // to break.
  ExperimentConfig cfg = congested_config(1);
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.95;
  cfg.detector.interval = 5;
  Simulation sim(cfg);
  const int plan[] = {1, 3, 2, 1};
  for (int leg = 0; leg < 4; ++leg) {
    sim.network().set_shards(plan[leg]);
    EXPECT_EQ(sim.network().queued_message_count(),
              sum_of_queues(sim.network()));
    for (Cycle i = 0; i < 250; ++i) {
      sim.injection().tick(sim.network());
      ASSERT_EQ(sim.network().queued_message_count(),
                sum_of_queues(sim.network()));
      sim.network().step();
      ASSERT_EQ(sim.network().queued_message_count(),
                sum_of_queues(sim.network()));
      sim.detector().tick(sim.network());
      ASSERT_EQ(sim.network().queued_message_count(),
                sum_of_queues(sim.network()));
    }
  }
  const Network& net = sim.network();
  EXPECT_GT(net.counters().injected, 0);
  EXPECT_GT(net.counters().recovered, 0);
  EXPECT_GT(net.queued_message_count(), 0);
  net.check_invariants();

  RestoredSim restored = restore_snapshot(sim.make_checkpoint());
  EXPECT_EQ(restored.net->queued_message_count(), net.queued_message_count());
  EXPECT_EQ(restored.net->queued_message_count(), sum_of_queues(*restored.net));
}

}  // namespace
}  // namespace flexnet
