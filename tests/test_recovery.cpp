#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/detector.hpp"
#include "obs/obs.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "topo/torus.hpp"

namespace flexnet {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    cfg_.topology.k = 8;
    cfg_.topology.n = 2;
    cfg_.routing = RoutingKind::DOR;
    cfg_.message_length = 16;
    net_ = std::make_unique<Network>(cfg_, NetworkDeps{nullptr, make_routing(cfg_),
                                 make_selection(cfg_.selection)});
    // Three messages created at different cycles with different path
    // lengths, so every victim policy has a distinct answer.
    ids_.push_back(net_->enqueue_message(0, 7, 16));   // oldest, 7 hops
    net_->step();
    net_->step();
    ids_.push_back(net_->enqueue_message(8, 10, 16));  // middle, 2 hops
    net_->step();
    net_->step();
    ids_.push_back(net_->enqueue_message(16, 17, 16));  // newest, 1 hop
    for (int i = 0; i < 6; ++i) net_->step();
    for (const MessageId id : ids_) {
      EXPECT_EQ(net_->message(id).status, MessageStatus::InFlight);
    }
  }

  SimConfig cfg_;
  std::unique_ptr<Network> net_;
  std::vector<MessageId> ids_;
  Pcg32 rng_{5};
};

TEST_F(RecoveryTest, RemoveOldestPicksEarliestCreation) {
  EXPECT_EQ(choose_victim(*net_, ids_, RecoveryKind::RemoveOldest, rng_),
            ids_[0]);
}

TEST_F(RecoveryTest, RemoveNewestPicksLatestCreation) {
  EXPECT_EQ(choose_victim(*net_, ids_, RecoveryKind::RemoveNewest, rng_),
            ids_[2]);
}

TEST_F(RecoveryTest, RemoveMostResourcesPicksLongestChain) {
  // The 7-hop message has acquired the most VCs by now.
  const MessageId victim =
      choose_victim(*net_, ids_, RecoveryKind::RemoveMostResources, rng_);
  for (const MessageId other : ids_) {
    EXPECT_GE(net_->message(victim).held.size(),
              net_->message(other).held.size());
  }
}

TEST_F(RecoveryTest, RemoveRandomStaysInSetAndVaries) {
  std::set<MessageId> picked;
  for (int i = 0; i < 64; ++i) {
    const MessageId v =
        choose_victim(*net_, ids_, RecoveryKind::RemoveRandom, rng_);
    EXPECT_TRUE(std::find(ids_.begin(), ids_.end(), v) != ids_.end());
    picked.insert(v);
  }
  EXPECT_GT(picked.size(), 1u);
}

TEST_F(RecoveryTest, NoneThrows) {
  EXPECT_THROW((void)choose_victim(*net_, ids_, RecoveryKind::None, rng_),
               std::invalid_argument);
}

TEST_F(RecoveryTest, SingletonSetAlwaysPicksIt) {
  const std::vector<MessageId> one{ids_[1]};
  for (const RecoveryKind kind :
       {RecoveryKind::RemoveOldest, RecoveryKind::RemoveNewest,
        RecoveryKind::RemoveMostResources, RecoveryKind::RemoveRandom}) {
    EXPECT_EQ(choose_victim(*net_, one, kind, rng_), ids_[1]);
  }
}

TEST(MultiKnotRecovery, OnePassResolvesTwoDisjointKnots) {
  // Two disjoint ring deadlocks — rows 0 and 2 of a 4x4 unidirectional torus
  // each closed by four 2-hop messages — confirmed in a single detector
  // pass. Victim selection must resolve BOTH knots (one removal each), the
  // survivors must drain, and the metrics sample covering the pass must
  // account for exactly two recoveries.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
  const auto node = [&](int x, int y) {
    return torus_topology(net.topology()).coordinates().pack({x, y});
  };
  std::vector<MessageId> ring_a, ring_b;
  for (int i = 0; i < 4; ++i) {
    ring_a.push_back(net.enqueue_message(node(i, 0), node((i + 2) % 4, 0), 8));
    ring_b.push_back(net.enqueue_message(node(i, 2), node((i + 2) % 4, 2), 8));
  }
  for (int i = 0; i < 200; ++i) net.step();

  DetectorConfig det_cfg;
  det_cfg.recovery = RecoveryKind::RemoveOldest;
  DeadlockDetector detector(det_cfg, 1);
  ObsCollector metrics(ObsConfig{}, net);

  ASSERT_EQ(detector.run_detection(net), 2);
  metrics.sample(net, detector);

  // One victim per knot, each drawn from a different ring.
  ASSERT_EQ(detector.records().size(), 2u);
  const MessageId victim0 = detector.records()[0].victim;
  const MessageId victim1 = detector.records()[1].victim;
  ASSERT_NE(victim0, kInvalidMessage);
  ASSERT_NE(victim1, kInvalidMessage);
  const bool v0_in_a =
      std::find(ring_a.begin(), ring_a.end(), victim0) != ring_a.end();
  const bool v1_in_a =
      std::find(ring_a.begin(), ring_a.end(), victim1) != ring_a.end();
  EXPECT_NE(v0_in_a, v1_in_a);  // one victim from each disjoint knot

  // Metrics: the sample covering the pass counts both recoveries and both
  // confirmed deadlocks.
  ASSERT_EQ(metrics.samples_recorded(), 1u);
  EXPECT_EQ(metrics.last_sample().recovered, 2);
  EXPECT_EQ(metrics.last_sample().deadlocks, 2);

  // With both knots broken the remaining six messages drain on their own —
  // no further detector intervention.
  for (int i = 0; i < 2000; ++i) net.step();
  EXPECT_TRUE(net.active_messages().empty());
  EXPECT_EQ(net.counters().delivered, 6);
  EXPECT_EQ(net.counters().recovered, 2);
  net.check_invariants();
}

TEST_F(RecoveryTest, RemovalUnblocksWaitingMessages) {
  // Force two messages to contend for the same channel: remove the holder
  // and the waiter proceeds.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 32;  // long: holds its channels for a while
  Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
  const MessageId holder = net.enqueue_message(1, 3, 32);
  const MessageId waiter = net.enqueue_message(0, 2, 32);
  for (int i = 0; i < 10; ++i) net.step();
  // waiter's header should be blocked on channel 1->2 held by holder.
  ASSERT_TRUE(net.message(waiter).blocked);
  net.remove_message(holder);
  for (int i = 0; i < 200 && net.message(waiter).status != MessageStatus::Delivered;
       ++i) {
    net.step();
  }
  EXPECT_EQ(net.message(waiter).status, MessageStatus::Delivered);
  net.check_invariants();
}

}  // namespace
}  // namespace flexnet
