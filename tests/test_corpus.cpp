// Replays the committed deadlock corpus (tests/corpus/*.snap): every capture
// must decode, restore, and re-produce the recorded knot — same canonical
// CWG hash, same deadlock/resource set sizes — when detection is re-run on
// the restored network. This pins the snapshot format AND the detector's
// verdict against regressions. The captures at the top level are format v1;
// corpus/v3 holds a v3 capture, and the replay test adds a fresh v4 one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "exp/experiment.hpp"
#include "sim/network.hpp"
#include "snapshot/corpus.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/injection.hpp"
#include "util/binio.hpp"

#ifndef FLEXNET_CORPUS_DIR
#error "FLEXNET_CORPUS_DIR must point at the committed tests/corpus directory"
#endif

namespace flexnet {
namespace {

std::vector<std::string> corpus_files(
    const std::string& dir = FLEXNET_CORPUS_DIR) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CommittedCorpus, HoldsAtLeastThreeCaptures) {
  EXPECT_GE(corpus_files().size(), 3u);
}

/// A deadlock capture written at the current format version.
Snapshot fresh_capture() {
  const std::string dir = ::testing::TempDir() + "flexnet_corpus_v4";
  std::filesystem::remove_all(dir);
  ExperimentConfig cfg;
  cfg.sim.topology = {4, 2, false, true};
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.message_length = 8;
  cfg.sim.seed = 7;
  cfg.traffic.load = 0.8;
  cfg.detector.interval = 50;
  cfg.run.warmup = 200;
  cfg.run.measure = 800;
  cfg.snapshot.capture_dir = dir;
  cfg.snapshot.capture_limit = 1;
  (void)run_experiment(cfg);
  const std::vector<std::string> files = corpus_files(dir);
  EXPECT_EQ(files.size(), 1u);
  Snapshot snap = read_snapshot_file(files.at(0));
  std::filesystem::remove_all(dir);
  return snap;
}

/// Encodes a restored simulation at the current format version.
std::vector<std::uint8_t> save(const RestoredSim& r) {
  return encode_snapshot(capture_snapshot(r.meta, r.sim, r.traffic,
                                          r.detector_config, r.workload,
                                          *r.net, *r.injection, *r.detector,
                                          r.metrics));
}

std::vector<std::uint8_t> net_bytes(const Network& net) {
  BinWriter out;
  net.save_state(out);
  return out.bytes();
}

// Every format version is one more input: the v1 captures at the top
// level, the v3 capture under corpus/v3 (written while the network payload
// still carried a selection-RNG position) and a v4 capture made here. Each
// replays to its recorded verdict, re-encodes stably at the current version
// (save -> load -> save is byte-identical) and resumes stepping.
TEST(CommittedCorpus, EveryCaptureReplaysWithMatchingVerdict) {
  std::vector<std::string> files = corpus_files();
  ASSERT_FALSE(files.empty());
  for (const std::string& path : corpus_files(FLEXNET_CORPUS_DIR "/v3")) {
    files.push_back(path);
  }
  std::vector<Snapshot> snaps;
  for (const std::string& path : files) {
    snaps.push_back(read_snapshot_file(path));
  }
  snaps.push_back(fresh_capture());
  std::set<std::uint32_t> versions;
  for (const Snapshot& snap : snaps) versions.insert(snap.version);
  EXPECT_EQ(versions, (std::set<std::uint32_t>{1, 3, kSnapshotVersion}));

  for (const Snapshot& snap : snaps) {
    SCOPED_TRACE(snap.meta.cwg_hash);
    SCOPED_TRACE(snap.version);
    EXPECT_EQ(snap.meta.kind, SnapshotKind::DeadlockCapture);
    EXPECT_GT(snap.meta.deadlock_set_size, 0);
    EXPECT_GE(snap.meta.resource_set_size, snap.meta.knot_size);
    const ReplayResult replay = replay_capture(snap);
    EXPECT_TRUE(replay.knot_found) << "no knot in restored network";
    EXPECT_TRUE(replay.matches) << replay.detail;
    EXPECT_EQ(replay.cwg_hash, snap.meta.cwg_hash);
    EXPECT_EQ(replay.deadlock_set_size, snap.meta.deadlock_set_size);
    EXPECT_EQ(replay.resource_set_size, snap.meta.resource_set_size);

    const std::vector<std::uint8_t> saved = save(restore_snapshot(snap));
    const Snapshot loaded = decode_snapshot(saved.data(), saved.size());
    EXPECT_EQ(loaded.version, kSnapshotVersion);
    EXPECT_EQ(save(restore_snapshot(loaded)), saved);
    if (snap.version == kSnapshotVersion) {
      EXPECT_EQ(encode_snapshot(snap), saved);
    }

    // The original file and its re-encoding step identically and keep
    // making progress.
    RestoredSim original = restore_snapshot(snap);
    RestoredSim reencoded = restore_snapshot(loaded);
    const std::int64_t done_before = original.net->counters().delivered +
                                     original.net->counters().recovered;
    for (RestoredSim* r : {&original, &reencoded}) {
      for (int i = 0; i < 300; ++i) {
        r->injection->tick(*r->net);
        r->net->step();
        r->detector->tick(*r->net);
      }
      r->net->check_invariants();
    }
    EXPECT_EQ(net_bytes(*original.net), net_bytes(*reencoded.net));
    EXPECT_GT(original.net->counters().delivered +
                  original.net->counters().recovered,
              done_before);
  }
}

}  // namespace
}  // namespace flexnet
