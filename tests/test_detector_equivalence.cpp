// Incremental-vs-oracle equivalence: the change-gated, message-level
// detection pipeline (the default) must be bit-identical to the full-rebuild
// oracle (--detector-full-rebuild) in every observable way — per-pass
// verdicts, DeadlockRecord fields, capture-hook firings, RNG consumption, and
// serialized detector state. The suite checks live saturation runs for DOR
// and TFAR at 1, 3 and 8 shards (comparing every pass's PressureStats and
// knots with a VC-level reference search), hand-built wait-for graphs,
// replays of the committed deadlock corpus, and a checkpoint/resume mid-run
// proving the scratch/cache state is not serialized.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/incremental.hpp"
#include "core/scc.hpp"
#include "exp/experiment.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/injection.hpp"
#include "util/binio.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

std::vector<std::uint8_t> detector_bytes(const DeadlockDetector& det) {
  BinWriter out;
  det.save_state(out);
  return out.bytes();
}

/// Records every on_knot firing with enough context to prove both pipelines
/// present identical knots, CWGs, and records to their hooks.
struct RecordingHook : KnotCaptureHook {
  struct Firing {
    Cycle at = -1;
    std::vector<VcId> knot_vcs;
    std::vector<MessageId> deadlock_set;
    std::vector<VcId> resource_set;
    std::vector<MessageId> dependents;
    MessageId victim = kInvalidMessage;
    std::int64_t density = -1;
    int cwg_ownership_arcs = 0;
    int cwg_request_arcs = 0;

    bool operator==(const Firing&) const = default;
  };
  std::vector<Firing> firings;

  void on_knot(const Network& net, const Cwg& cwg, const Knot& knot,
               const DeadlockRecord& record) override {
    firings.push_back({net.now(), knot.knot_vcs, knot.deadlock_set,
                       knot.resource_set, knot.dependent_messages,
                       record.victim, record.knot_cycle_density,
                       cwg.num_ownership_arcs(), cwg.num_request_arcs()});
  }
};

void expect_same_records(const DeadlockDetector& a, const DeadlockDetector& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const DeadlockRecord& ra = a.records()[i];
    const DeadlockRecord& rb = b.records()[i];
    EXPECT_EQ(ra.detected_at, rb.detected_at);
    EXPECT_EQ(ra.deadlock_set_size, rb.deadlock_set_size);
    EXPECT_EQ(ra.resource_set_size, rb.resource_set_size);
    EXPECT_EQ(ra.knot_size, rb.knot_size);
    EXPECT_EQ(ra.dependent_count, rb.dependent_count);
    EXPECT_EQ(ra.knot_cycle_density, rb.knot_cycle_density);
    EXPECT_EQ(ra.density_capped, rb.density_capped);
    EXPECT_EQ(ra.victim, rb.victim);
  }
}

/// The VC-level closure statistics the message-level search must reproduce:
/// the forward closure of the blocked messages' tips over the full CWG, and
/// Tarjan over the subgraph it induces.
KnotSearchStats vc_reference(const Cwg& cwg) {
  const Digraph& g = cwg.graph();
  std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<int> closure;
  std::vector<int> stack;
  for (const CwgMessage& msg : cwg.messages()) {
    if (msg.requests.empty()) continue;
    const VcId tip = msg.held.back();
    if (seen[static_cast<std::size_t>(tip)] == 0) {
      seen[static_cast<std::size_t>(tip)] = 1;
      closure.push_back(tip);
      stack.push_back(tip);
    }
  }
  if (closure.empty()) return {};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const int w : g.out(v)) {
      if (seen[static_cast<std::size_t>(w)] == 0) {
        seen[static_cast<std::size_t>(w)] = 1;
        closure.push_back(w);
        stack.push_back(w);
      }
    }
  }
  std::sort(closure.begin(), closure.end());
  const SccResult scc = strongly_connected_components(g.induced(closure));
  KnotSearchStats stats;
  stats.closure_size = static_cast<std::int64_t>(closure.size());
  stats.largest_scc = *std::max_element(scc.size.begin(), scc.size.end());
  stats.knots = static_cast<std::int64_t>(find_knots(cwg).size());
  return stats;
}

void expect_same_stats(const KnotSearchStats& got, const KnotSearchStats& want) {
  EXPECT_EQ(got.closure_size, want.closure_size);
  EXPECT_EQ(got.largest_scc, want.largest_scc);
  EXPECT_EQ(got.knots, want.knots);
}

void expect_same_knots(const std::vector<Knot>& got,
                       const std::vector<Knot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    SCOPED_TRACE("knot " + std::to_string(k));
    EXPECT_EQ(got[k].knot_vcs, want[k].knot_vcs);
    EXPECT_EQ(got[k].deadlock_set, want[k].deadlock_set);
    EXPECT_EQ(got[k].resource_set, want[k].resource_set);
    EXPECT_EQ(got[k].dependent_messages, want[k].dependent_messages);
  }
}

/// Runs the message-level search over a hand-built CWG and checks it against
/// find_knots and the VC-level reference; returns its stats.
KnotSearchStats check_hand_built(const Cwg& cwg) {
  KnotSearch search;
  const std::vector<Knot> knots = search.run(cwg);
  expect_same_knots(knots, find_knots(cwg));
  expect_same_stats(search.stats(), vc_reference(cwg));
  return search.stats();
}

ExperimentConfig saturation_config(RoutingKind routing, RecoveryKind recovery) {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 8;
  cfg.sim.topology.n = 2;
  cfg.sim.vcs = 1;  // one VC per channel: wrap-around DOR/TFAR can deadlock
  cfg.sim.routing = routing;
  cfg.sim.message_length = 8;
  cfg.sim.seed = 11;
  cfg.traffic.load = 0.7;
  cfg.detector.interval = 1;  // the tightest cadence the paper's Section 3 needs
  cfg.detector.recovery = recovery;
  return cfg;
}

void run_equivalence(ExperimentConfig cfg, Cycle cycles, int shards) {
  SCOPED_TRACE("shards " + std::to_string(shards));
  cfg.run.shards = shards;
  ExperimentConfig oracle_cfg = cfg;
  oracle_cfg.detector.full_rebuild = true;
  Simulation inc(cfg);
  Simulation oracle(oracle_cfg);
  ASSERT_EQ(inc.network().shards(), shards);
  RecordingHook inc_hook;
  RecordingHook oracle_hook;
  inc.detector().set_capture(&inc_hook);
  oracle.detector().set_capture(&oracle_hook);
  KnotSearch search;

  for (Cycle i = 0; i < cycles; ++i) {
    inc.injection().tick(inc.network());
    inc.network().step();
    // The pass below sees this CWG (recovery only follows the search).
    const Cwg cwg = Cwg::from_network(inc.network());
    const KnotSearchStats reference = vc_reference(cwg);
    expect_same_knots(search.run(inc.network()), find_knots(cwg));
    const int inc_verdict = inc.detector().tick(inc.network());
    const PressureStats& pressure = inc.detector().pressure();
    ASSERT_TRUE(pressure.valid);
    ASSERT_EQ(pressure.computed_at, inc.network().now());
    ASSERT_EQ(pressure.closure_size, reference.closure_size) << "cycle " << i;
    ASSERT_EQ(pressure.largest_scc, reference.largest_scc) << "cycle " << i;
    ASSERT_EQ(pressure.knots, reference.knots) << "cycle " << i;
    oracle.injection().tick(oracle.network());
    oracle.network().step();
    const int oracle_verdict = oracle.detector().tick(oracle.network());
    ASSERT_EQ(inc_verdict, oracle_verdict) << "diverged at cycle " << i;
  }

  // The scenario must actually exercise detection and recovery.
  EXPECT_GT(inc.detector().total_deadlocks(), 0);
  EXPECT_FALSE(inc_hook.firings.empty());
  // ...and the gating must have engaged on the incremental side only.
  EXPECT_GT(inc.detector().skipped_passes(), 0);
  EXPECT_EQ(oracle.detector().skipped_passes(), 0);

  EXPECT_EQ(inc.detector().invocations(), oracle.detector().invocations());
  EXPECT_EQ(inc.detector().total_deadlocks(), oracle.detector().total_deadlocks());
  EXPECT_EQ(inc.detector().transient_knots(), oracle.detector().transient_knots());
  EXPECT_EQ(inc.detector().livelocks(), oracle.detector().livelocks());
  expect_same_records(inc.detector(), oracle.detector());
  EXPECT_EQ(inc_hook.firings, oracle_hook.firings);
  // Serialized state identical: the skip counter, verdict cache, and scratch
  // arenas are process-local and must never leak into the snapshot format.
  EXPECT_EQ(detector_bytes(inc.detector()), detector_bytes(oracle.detector()));
  // The networks evolved identically (same victims removed at same cycles).
  EXPECT_EQ(inc.network().counters().delivered,
            oracle.network().counters().delivered);
  EXPECT_EQ(inc.network().counters().recovered,
            oracle.network().counters().recovered);
}

/// Shard counts the live equivalence runs cover: one, fewer than the cores
/// of a small host, and more.
constexpr int kShardCounts[] = {1, 3, 8};

TEST(DetectorEquivalence, LiveDorSaturationBitIdentical) {
  for (const int shards : kShardCounts) {
    run_equivalence(
        saturation_config(RoutingKind::DOR, RecoveryKind::RemoveOldest), 5000,
        shards);
  }
}

TEST(DetectorEquivalence, LiveTfarSaturationBitIdentical) {
  // RemoveRandom draws from the detector RNG per confirmed knot, so this also
  // proves both pipelines consume the stream identically.
  for (const int shards : kShardCounts) {
    run_equivalence(
        saturation_config(RoutingKind::TFAR, RecoveryKind::RemoveRandom), 5000,
        shards);
  }
}

TEST(DetectorEquivalence, QuiescenceRefreshPathMatchesOracle) {
  // recovery=None leaves every knot in place forever: the incremental side
  // re-reports from its cached verdict on every pass while the oracle
  // re-finds the same knots from scratch.
  for (const int shards : kShardCounts) {
    run_equivalence(saturation_config(RoutingKind::DOR, RecoveryKind::None),
                    2000, shards);
  }
}

TEST(DetectorEquivalence, CommittedCorpusReplaysBitIdentical) {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLEXNET_CORPUS_DIR)) {
    if (entry.path().extension() == ".snap") files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    const Snapshot snap = read_snapshot_file(path);
    RestoredSim inc = restore_snapshot(snap);
    RestoredSim oracle = restore_snapshot(snap);

    // Fresh detectors (shared seed) so both sides start from identical
    // tallies and RNG positions; the restored network is the interesting
    // state — it contains the captured, still-unbroken knot.
    DetectorConfig inc_cfg = snap.detector;
    inc_cfg.interval = 1;
    inc_cfg.full_rebuild = false;
    DetectorConfig oracle_cfg = inc_cfg;
    oracle_cfg.full_rebuild = true;
    DeadlockDetector inc_det(inc_cfg, 99);
    DeadlockDetector oracle_det(oracle_cfg, 99);
    RecordingHook inc_hook;
    RecordingHook oracle_hook;
    inc_det.set_capture(&inc_hook);
    oracle_det.set_capture(&oracle_hook);

    for (int i = 0; i < 300; ++i) {
      inc.injection->tick(*inc.net);
      inc.net->step();
      const int inc_verdict = inc_det.tick(*inc.net);
      oracle.injection->tick(*oracle.net);
      oracle.net->step();
      const int oracle_verdict = oracle_det.tick(*oracle.net);
      ASSERT_EQ(inc_verdict, oracle_verdict) << "diverged at step " << i;
    }
    EXPECT_GT(inc_det.total_deadlocks(), 0) << "capture should re-deadlock";
    expect_same_records(inc_det, oracle_det);
    EXPECT_EQ(inc_hook.firings, oracle_hook.firings);
    EXPECT_EQ(detector_bytes(inc_det), detector_bytes(oracle_det));
  }
}

TEST(DetectorEquivalence, CheckpointResumeDoesNotSerializeScratch) {
  const ExperimentConfig cfg =
      saturation_config(RoutingKind::DOR, RecoveryKind::RemoveOldest);
  Simulation original(cfg);
  for (Cycle i = 0; i < 1500; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    original.detector().tick(original.network());
  }
  ASSERT_GT(original.detector().skipped_passes(), 0);

  // Mid-run checkpoint while the incremental cache is warm. Round-tripping
  // the detector must be byte-stable even though the live detector carries
  // cache/scratch state the restored one cannot have.
  const Snapshot snap = original.make_checkpoint();
  RestoredSim resumed = restore_snapshot(snap);
  EXPECT_EQ(detector_bytes(*resumed.detector),
            detector_bytes(original.detector()));
  // A resumed detector starts with zero skipped passes: the counter is
  // process-local cost accounting, not simulation state.
  EXPECT_EQ(resumed.detector->skipped_passes(), 0);

  // Continuing both must stay flit- and verdict-identical: the restored
  // detector rebuilds its scratch on the first pass and re-converges.
  for (Cycle i = 0; i < 800; ++i) {
    original.injection().tick(original.network());
    original.network().step();
    const int original_verdict = original.detector().tick(original.network());
    resumed.injection->tick(*resumed.net);
    resumed.net->step();
    const int resumed_verdict = resumed.detector->tick(*resumed.net);
    ASSERT_EQ(original_verdict, resumed_verdict) << "diverged at cycle " << i;
  }
  expect_same_records(original.detector(), *resumed.detector);
  EXPECT_EQ(detector_bytes(original.detector()),
            detector_bytes(*resumed.detector));
}

TEST(DetectorEquivalence, ArcEpochIsStableInASettledDeadlock) {
  // 4-node unidirectional ring, every node sending two hops ahead: a
  // permanent deadlock. Once settled, nothing moves, so the arc epoch must
  // stand still — the precondition for the detector's pure-refresh path.
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 1;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 2;
  auto net = std::make_unique<Network>(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
  for (NodeId n = 0; n < 4; ++n) net->enqueue_message(n, (n + 2) % 4, 8);
  for (int i = 0; i < 100; ++i) net->step();

  const std::uint64_t settled = net->arc_epoch();
  EXPECT_GT(settled, 0u);
  for (int i = 0; i < 20; ++i) net->step();
  EXPECT_EQ(net->arc_epoch(), settled);

  DetectorConfig det_cfg;
  det_cfg.interval = 1;
  det_cfg.recovery = RecoveryKind::None;
  DeadlockDetector det(det_cfg, 1);
  for (int i = 0; i < 50; ++i) {
    net->step();
    det.tick(*net);
  }
  EXPECT_EQ(det.invocations(), 50);
  EXPECT_EQ(det.skipped_passes(), 49);  // only the first pass rebuilds
  EXPECT_EQ(det.total_deadlocks(), 50);  // re-reported every pass, as before
}

TEST(DetectorEquivalence, IdleNetworkSkipsEveryPass) {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  auto net = std::make_unique<Network>(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
  DeadlockDetector det(DetectorConfig{.interval = 1}, 1);
  for (int i = 0; i < 25; ++i) {
    net->step();
    EXPECT_EQ(det.tick(*net), 0);
  }
  // Nothing is ever blocked, so the zero-blocked fast path answers each pass.
  EXPECT_EQ(det.invocations(), 25);
  EXPECT_EQ(det.skipped_passes(), 25);
}

// --- The message-level search on hand-built wait-for graphs ---------------

TEST(KnotSearch, CycleWithAnEscapeIsNoKnot) {
  // 0 -> 1 -> 2 -> 3 -> 0 is a cycle, but m2 also requests the free VC 5.
  const Cwg cwg(6, {{.id = 1, .held = {0, 1}, .requests = {2}},
                    {.id = 2, .held = {2, 3}, .requests = {0, 5}}});
  const KnotSearchStats stats = check_hand_built(cwg);
  EXPECT_EQ(stats.knots, 0);
  EXPECT_EQ(stats.largest_scc, 4);
  EXPECT_EQ(stats.closure_size, 5);
}

TEST(KnotSearch, FreeVcRequestedByTwoMessagesCountsOnce) {
  const Cwg cwg(6, {{.id = 1, .held = {0}, .requests = {4}},
                    {.id = 2, .held = {1, 2}, .requests = {4}},
                    {.id = 3, .held = {3}, .requests = {4, 1}}});
  const KnotSearchStats stats = check_hand_built(cwg);
  EXPECT_EQ(stats.knots, 0);
  EXPECT_EQ(stats.largest_scc, 1);
  EXPECT_EQ(stats.closure_size, 5);  // {0}, {1, 2}, {3} and VC 4 once
}

TEST(KnotSearch, SelfRequestKnotStartsWhereItsOwnRequestLands) {
  // m1 requests its own VC 1: the knot is {1, 2}. m2's request lands deeper,
  // on VC 0, which joins the closure but lies on no cycle.
  const Cwg cwg(6, {{.id = 1, .held = {0, 1, 2}, .requests = {1}},
                    {.id = 2, .held = {4}, .requests = {0}}});
  KnotSearch search;
  const std::vector<Knot> knots = search.run(cwg);
  ASSERT_EQ(knots.size(), 1u);
  EXPECT_EQ(knots[0].knot_vcs, (std::vector<VcId>{1, 2}));
  EXPECT_EQ(knots[0].deadlock_set, (std::vector<MessageId>{1}));
  EXPECT_EQ(knots[0].resource_set, (std::vector<VcId>{0, 1, 2}));
  EXPECT_EQ(knots[0].dependent_messages, (std::vector<MessageId>{2}));
  const KnotSearchStats stats = check_hand_built(cwg);
  EXPECT_EQ(stats.largest_scc, 2);
  EXPECT_EQ(stats.closure_size, 4);
}

TEST(KnotSearch, TipRequestingItselfIsAOneVcKnot) {
  const Cwg cwg(4, {{.id = 7, .held = {0, 1}, .requests = {1}}});
  const KnotSearchStats stats = check_hand_built(cwg);
  EXPECT_EQ(stats.knots, 1);
  EXPECT_EQ(stats.largest_scc, 1);
  EXPECT_EQ(stats.closure_size, 1);
}

TEST(KnotSearch, DependentsListedOncePerKnotInMessageOrder) {
  // Two knots ({0,1} and {4,5}); m9 waits on both (twice on the first), m8
  // on the second through a chain, m3 only on a non-knot chain.
  const Cwg cwg(12, {{.id = 9, .held = {8}, .requests = {0, 1, 5}},
                     {.id = 1, .held = {0}, .requests = {1}},
                     {.id = 2, .held = {1}, .requests = {0}},
                     {.id = 8, .held = {6, 7}, .requests = {4}},
                     {.id = 4, .held = {4}, .requests = {5}},
                     {.id = 5, .held = {5}, .requests = {4}},
                     {.id = 3, .held = {10}, .requests = {7}}});
  KnotSearch search;
  const std::vector<Knot> knots = search.run(cwg);
  ASSERT_EQ(knots.size(), 2u);
  EXPECT_EQ(knots[0].dependent_messages, (std::vector<MessageId>{9}));
  EXPECT_EQ(knots[1].dependent_messages, (std::vector<MessageId>{9, 8}));
  const KnotSearchStats stats = check_hand_built(cwg);
  EXPECT_EQ(stats.knots, 2);
}

/// Records what a capture hook sees of each knot: its density, its shape
/// hash, and the size of the CWG it was handed.
struct HashingHook : KnotCaptureHook {
  struct Seen {
    std::int64_t density = -1;
    std::uint64_t hash = 0;
    int cwg_arcs = 0;

    bool operator==(const Seen&) const = default;
  };
  std::vector<Seen> seen;

  void on_knot(const Network&, const Cwg& cwg, const Knot& knot,
               const DeadlockRecord& record) override {
    seen.push_back({record.knot_cycle_density, canonical_knot_hash(cwg, knot),
                    cwg.graph().num_edges()});
  }
};

/// A 4-ary 2-cube, unidirectional, with rows 0 and 2 wedged into two knots
/// of different shapes: four two-hop messages around row 0, and two
/// three-hop messages, each holding two links, around row 2.
std::unique_ptr<Network> two_knot_network(int shards) {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.topology.bidirectional = false;
  cfg.routing = RoutingKind::DOR;
  cfg.message_length = 8;
  cfg.buffer_depth = 2;
  auto net = std::make_unique<Network>(
      cfg, NetworkDeps{nullptr, make_routing(cfg), make_selection(cfg.selection)});
  net->set_shards(shards);
  for (NodeId x = 0; x < 4; ++x) net->enqueue_message(x, (x + 2) % 4, 8);
  net->enqueue_message(8, 11, 8);
  net->enqueue_message(10, 9, 8);
  for (int i = 0; i < 100; ++i) net->step();
  return net;
}

TEST(DetectorEquivalence, FirstVictimLeavesTheSecondKnotIntact) {
  // Both knots are confirmed in one pass; the first one's victim is removed
  // before the second knot's density is measured and its hook fires. Both
  // must still see the second knot, and the whole CWG, exactly as they
  // stood before the pass.
  for (const int shards : kShardCounts) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    auto inc_net = two_knot_network(shards);
    auto oracle_net = two_knot_network(shards);
    const Cwg before = Cwg::from_network(*inc_net);
    const std::vector<Knot> knots = find_knots(before);
    ASSERT_EQ(knots.size(), 2u);
    std::vector<HashingHook::Seen> expected;
    for (const Knot& knot : knots) {
      expected.push_back({knot_cycle_density(before, knot, 100000).count,
                          canonical_knot_hash(before, knot),
                          before.graph().num_edges()});
    }
    ASSERT_NE(expected[0].hash, expected[1].hash);

    DetectorConfig det_cfg;
    det_cfg.interval = 1;
    DetectorConfig oracle_cfg = det_cfg;
    oracle_cfg.full_rebuild = true;
    DeadlockDetector inc_det(det_cfg, 3);
    DeadlockDetector oracle_det(oracle_cfg, 3);
    HashingHook inc_hook;
    HashingHook oracle_hook;
    inc_det.set_capture(&inc_hook);
    oracle_det.set_capture(&oracle_hook);
    EXPECT_EQ(inc_det.run_detection(*inc_net), 2);
    EXPECT_EQ(oracle_det.run_detection(*oracle_net), 2);
    EXPECT_EQ(inc_hook.seen, expected);
    EXPECT_EQ(oracle_hook.seen, expected);
    expect_same_records(inc_det, oracle_det);
  }
}

}  // namespace
}  // namespace flexnet
