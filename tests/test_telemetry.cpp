#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "exp/experiment.hpp"
#include "obs/obs.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "telemetry/manifest.hpp"
#include "util/json.hpp"

namespace flexnet {
namespace {

std::unique_ptr<Network> make_network(SimConfig cfg) {
  return std::make_unique<Network>(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
}

SimConfig torus_4x4() {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.message_length = 4;
  cfg.routing = RoutingKind::DOR;
  return cfg;
}

Cycle run_until_delivered(Network& net, Cycle limit = 1000) {
  while (net.counters().delivered == 0 && net.now() < limit) net.step();
  return net.now();
}

// --- the interval sample (ObsCollector) ---------------------------------

TEST(Telemetry, RejectsNonPositiveInterval) {
  auto net = make_network(torus_4x4());
  TelemetryConfig cfg;
  cfg.interval = 0;
  EXPECT_THROW(Telemetry(cfg, *net), std::invalid_argument);
}

TEST(MetricsSample, SamplesCountIntervalFlow) {
  auto net = make_network(torus_4x4());
  DeadlockDetector detector(DetectorConfig{}, 1);
  ObsCollector collector(ObsConfig{}, *net);

  net->enqueue_message(0, 5, 4);
  run_until_delivered(*net);
  while (net->now() < 100) net->step();
  collector.sample(*net, detector);

  ASSERT_EQ(collector.samples_recorded(), 1u);
  const ObsSample first = collector.last_sample();
  EXPECT_EQ(first.cycle, 100);
  EXPECT_EQ(first.delivered, 1);
  EXPECT_EQ(first.flits_delivered, 4);
  EXPECT_GT(first.delivered_latency_sum, 0);
  EXPECT_EQ(first.in_network, 0);
  EXPECT_EQ(first.blocked, 0);
  EXPECT_EQ(first.ownership_arcs, 0);

  // The next sample covers an idle interval: no deliveries, and the
  // cumulative flit counter does not move.
  while (net->now() < 200) net->step();
  collector.sample(*net, detector);
  EXPECT_EQ(collector.last_sample().delivered, 0);
  EXPECT_EQ(collector.last_sample().flits_delivered - first.flits_delivered, 0);
}

// --- SpatialHeatmap --------------------------------------------------------

TEST(SpatialHeatmap, CountsTraversalsForSingleMessage) {
  auto net = make_network(torus_4x4());
  SpatialHeatmap heatmap(*net);
  NetworkHooks hooks;
  hooks.heatmap = &heatmap;
  net->install_hooks(hooks);

  const int length = 4;
  const MessageId id = net->enqueue_message(0, 5, length);
  run_until_delivered(*net);
  ASSERT_EQ(net->counters().delivered, 1);
  const int hops = net->message(id).hops;
  EXPECT_EQ(hops, 2);  // (0,0) -> (1,1) under DOR

  // Every channel along the route (injection + hops network channels +
  // ejection) carries each of the message's flits exactly once.
  EXPECT_EQ(heatmap.total_traversals(),
            static_cast<std::int64_t>(hops + 2) * length);
  int hot_network_channels = 0;
  for (std::size_t c = 0; c < net->num_network_channels(); ++c) {
    const std::int64_t t = heatmap.channel(static_cast<ChannelId>(c)).traversals;
    if (t == 0) continue;
    EXPECT_EQ(t, length);
    ++hot_network_channels;
  }
  EXPECT_EQ(hot_network_channels, hops);
  EXPECT_EQ(heatmap.channel(net->injection_channel(0)).traversals, length);
  EXPECT_EQ(heatmap.channel(net->ejection_channel(5)).traversals, length);

  EXPECT_EQ(heatmap.total_injection_stalls(), 0);
  EXPECT_EQ(heatmap.total_blocked_cycles(), 0);  // never sampled
}

TEST(SpatialHeatmap, OccupancySamplingChargesOwnedVcs) {
  auto net = make_network(torus_4x4());
  SpatialHeatmap heatmap(*net);
  NetworkHooks hooks;
  hooks.heatmap = &heatmap;
  net->install_hooks(hooks);

  net->enqueue_message(0, 5, 4);
  net->step();
  net->step();  // header has acquired at least the injection VC

  std::int64_t owned = 0;
  for (const MessageId id : net->active_messages()) {
    owned += static_cast<std::int64_t>(net->message(id).held.size());
  }
  ASSERT_GT(owned, 0);

  heatmap.sample_occupancy(*net, 10);
  std::int64_t busy = 0;
  for (std::size_t c = 0; c < net->num_channels(); ++c) {
    busy += heatmap.channel(static_cast<ChannelId>(c)).busy_cycles;
  }
  EXPECT_EQ(busy, owned * 10);
}

TEST(SpatialHeatmap, CountsInjectionStalls) {
  SimConfig cfg = torus_4x4();
  cfg.injection_vcs = 1;
  auto net = make_network(cfg);
  SpatialHeatmap heatmap(*net);
  NetworkHooks hooks;
  hooks.heatmap = &heatmap;
  net->install_hooks(hooks);

  // Two messages at the same node: the second waits for the injection VC.
  net->enqueue_message(0, 5, 4);
  net->enqueue_message(0, 6, 4);
  for (int i = 0; i < 100; ++i) net->step();
  EXPECT_EQ(net->counters().delivered, 2);
  EXPECT_GT(heatmap.injection_stall_cycles(0), 0);
  EXPECT_EQ(heatmap.injection_stall_cycles(1), 0);
}

TEST(SpatialHeatmap, AsciiGridFor2DAndFallbackTable) {
  auto net2d = make_network(torus_4x4());
  SpatialHeatmap heat2d(*net2d);
  const std::string grid =
      heat2d.ascii_grid(*net2d, SpatialHeatmap::Field::Traversals);
  ASSERT_FALSE(grid.empty());
  EXPECT_NE(grid.find("4x4"), std::string::npos);

  // Non-2-D topologies get the degree-ordered per-node table instead.
  SimConfig cfg3 = torus_4x4();
  cfg3.topology.n = 3;
  auto net3d = make_network(cfg3);
  SpatialHeatmap heat3d(*net3d);
  const std::string table =
      heat3d.ascii_grid(*net3d, SpatialHeatmap::Field::Traversals);
  ASSERT_FALSE(table.empty());
  EXPECT_NE(table.find("degree-ordered"), std::string::npos);
  EXPECT_NE(table.find("node  degree"), std::string::npos);
  // 64 nodes -> 64 data rows plus the two header lines.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 66);
}

TEST(SpatialHeatmap, CsvHasFixedSchemaAndAllRows) {
  auto net = make_network(torus_4x4());
  SpatialHeatmap heatmap(*net);
  std::ostringstream out;
  heatmap.write_csv(out, *net);
  std::istringstream in(out.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "row,id,kind,src,dst,dim,dir,channel,vc_index,traversals,"
            "busy_cycles,blocked_cycles,stall_cycles");
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, net->num_channels() + net->num_vcs() +
                      static_cast<std::size_t>(net->topology().num_nodes()));
}

// --- PhaseProfiler ---------------------------------------------------------

TEST(PhaseProfiler, ScopedPhaseAccumulates) {
  PhaseProfiler profiler;
  for (int i = 0; i < 3; ++i) {
    ScopedPhase scope(&profiler, SimPhase::Route);
  }
  { ScopedPhase scope(nullptr, SimPhase::Route); }  // null target: no-op
  EXPECT_EQ(profiler.stats(SimPhase::Route).calls, 3);
  EXPECT_EQ(profiler.stats(SimPhase::Deliver).calls, 0);
  profiler.reset();
  EXPECT_EQ(profiler.stats(SimPhase::Route).calls, 0);
}

TEST(PhaseProfiler, NestedPhasesStayOutOfTheTotal) {
  EXPECT_TRUE(is_nested(SimPhase::Recovery));
  EXPECT_TRUE(is_nested(SimPhase::KnotDensity));
  EXPECT_TRUE(is_nested(SimPhase::KnotSearch));
  EXPECT_TRUE(is_nested(SimPhase::CwgBuild));
  EXPECT_TRUE(is_nested(SimPhase::KnotHook));
  EXPECT_FALSE(is_nested(SimPhase::Detector));
  EXPECT_FALSE(is_nested(SimPhase::Transmit));
  EXPECT_EQ(to_string(SimPhase::KnotDensity), "knot_density");
  EXPECT_EQ(to_string(SimPhase::KnotSearch), "knot_search");
  EXPECT_EQ(to_string(SimPhase::CwgBuild), "cwg_build");
  EXPECT_EQ(to_string(SimPhase::KnotHook), "knot_hook");
  // Every phase has its own name.
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumSimPhases; ++i) {
    names.insert(to_string(static_cast<SimPhase>(i)));
  }
  EXPECT_EQ(names.size(), kNumSimPhases);

  PhaseProfiler profiler;
  profiler.record(SimPhase::Transmit, 300);
  profiler.record(SimPhase::Detector, 1000);
  profiler.record(SimPhase::Recovery, 100);
  profiler.record(SimPhase::KnotDensity, 600);
  profiler.record(SimPhase::KnotSearch, 150);
  profiler.record(SimPhase::CwgBuild, 40);
  profiler.record(SimPhase::KnotHook, 10);
  // The nested 900 ns is inside Detector.
  EXPECT_EQ(profiler.total_ns(), 1300);
  const std::string table = profiler.table();
  for (const char* nested :
       {"knot_density", "knot_search", "cwg_build", "knot_hook"}) {
    const std::size_t row = table.find(nested);
    ASSERT_NE(row, std::string::npos) << nested;
    EXPECT_NE(table.find("(in detector)", row), std::string::npos) << nested;
  }
}

TEST(PhaseProfiler, DetectorStagesAreTimedInsideAPass) {
  // A saturated 1-VC unidirectional torus: passes search for knots, and a
  // capture hook plus total-cycle samples make some of them build a CWG.
  ExperimentConfig cfg;
  cfg.sim = torus_4x4();
  cfg.sim.topology.bidirectional = false;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.8;
  cfg.detector.interval = 10;
  cfg.detector.count_total_cycles = true;
  cfg.run.warmup = 0;
  cfg.run.measure = 1000;
  cfg.telemetry.collect = true;
  const std::string capture_dir = ::testing::TempDir() + "flexnet_knot_hook";
  std::filesystem::remove_all(capture_dir);
  cfg.snapshot.capture_dir = capture_dir;
  cfg.snapshot.capture_limit = 2;
  Simulation sim(cfg);
  const ExperimentResult result = sim.run();
  std::filesystem::remove_all(capture_dir);
  ASSERT_GT(result.window.deadlocks, 0);
  const PhaseProfiler& profiler = sim.telemetry()->profiler();
  const auto& detector = profiler.stats(SimPhase::Detector);
  const auto& search = profiler.stats(SimPhase::KnotSearch);
  const auto& build = profiler.stats(SimPhase::CwgBuild);
  const auto& hook = profiler.stats(SimPhase::KnotHook);
  EXPECT_GT(search.calls, 0);
  EXPECT_LE(search.calls, detector.calls);
  EXPECT_GT(build.calls, 0);  // every fifth pass is due a total-cycle sample
  // The capture hook runs once per confirmed knot, past the capture limit
  // too (it still hashes the knot to count duplicates and drops).
  EXPECT_EQ(hook.calls, sim.detector().total_deadlocks());
  EXPECT_LE(search.total_ns + build.total_ns + hook.total_ns +
                profiler.stats(SimPhase::KnotDensity).total_ns +
                profiler.stats(SimPhase::Recovery).total_ns,
            detector.total_ns);
}

// --- end-to-end: Simulation + manifest ------------------------------------

ExperimentConfig telemetry_config() {
  ExperimentConfig cfg;
  cfg.sim = torus_4x4();
  cfg.sim.vcs = 2;
  cfg.traffic.load = 0.4;
  cfg.run.warmup = 200;
  cfg.run.measure = 1000;
  cfg.telemetry.collect = true;
  cfg.telemetry.interval = 50;
  cfg.obs.interval = 50;
  return cfg;
}

std::string run_and_write_manifest(const ExperimentConfig& cfg) {
  Simulation sim(cfg);
  const ExperimentResult result = sim.run();
  std::ostringstream out;
  write_manifest_json(out, sim.config(), result, *sim.telemetry(),
                      sim.network(), sim.obs());
  return out.str();
}

TEST(Telemetry, DisabledByDefaultEnabledByAnyPath) {
  TelemetryConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.manifest_path = "x.json";
  EXPECT_TRUE(cfg.enabled());
  const TelemetryConfig p = cfg.with_point_suffix(3);
  EXPECT_EQ(p.manifest_path, "x.json.p3");
}

TEST(Telemetry, SimulationCollectsSeriesAndProfile) {
  Simulation sim(telemetry_config());
  ASSERT_NE(sim.telemetry(), nullptr);
  EXPECT_EQ(sim.network().hooks().heatmap, &sim.telemetry()->heatmap());
  EXPECT_EQ(sim.network().hooks().profiler, &sim.telemetry()->profiler());
  // Telemetry alone turns the interval sampler on, without a stream.
  ASSERT_NE(sim.obs(), nullptr);
  EXPECT_EQ(sim.network().hooks().obs, sim.obs());

  const ExperimentResult result = sim.run();
  EXPECT_TRUE(result.telemetry.enabled);
  // 1200 cycles at interval 50 -> 24 samples.
  EXPECT_TRUE(result.obs.enabled);
  EXPECT_EQ(result.obs.samples, 24u);
  EXPECT_TRUE(result.obs.metrics_path.empty());
  EXPECT_FALSE(result.telemetry.heatmap_ascii.empty());
  EXPECT_NE(result.telemetry.profile_table.find("transmit"),
            std::string::npos);
  EXPECT_GT(sim.telemetry()->heatmap().total_traversals(), 0);
  EXPECT_GT(sim.telemetry()->profiler().stats(SimPhase::Transmit).calls, 0);
}

TEST(Telemetry, KnotDensityIsTimedInsideTheDetector) {
  // A unidirectional DOR ring with one VC deadlocks quickly, and every
  // confirmed knot has its cycle density measured.
  ExperimentConfig cfg = telemetry_config();
  cfg.sim.topology.bidirectional = false;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.8;
  Simulation sim(cfg);
  const ExperimentResult result = sim.run();
  ASSERT_GT(result.window.deadlocks, 0);

  const PhaseProfiler& profiler = sim.telemetry()->profiler();
  const PhaseProfiler::PhaseStats& density = profiler.stats(SimPhase::KnotDensity);
  const PhaseProfiler::PhaseStats& detector = profiler.stats(SimPhase::Detector);
  EXPECT_GT(density.calls, 0);
  EXPECT_LE(density.total_ns, detector.total_ns);

  std::ostringstream out;
  write_manifest_json(out, sim.config(), result, *sim.telemetry(), sim.network());
  const JsonValue root = JsonValue::parse(out.str());
  const auto& phases = root.at("profile").at("phases").array;
  const auto entry = std::find_if(phases.begin(), phases.end(), [](const JsonValue& p) {
    return p.at("name").string == "knot_density";
  });
  ASSERT_NE(entry, phases.end());
  EXPECT_EQ(entry->at("calls").as_int(), density.calls);
}

TEST(Telemetry, DisabledSimulationHasNoProbes) {
  ExperimentConfig cfg = telemetry_config();
  cfg.telemetry = TelemetryConfig{};
  Simulation sim(cfg);
  EXPECT_EQ(sim.telemetry(), nullptr);
  EXPECT_EQ(sim.network().hooks().heatmap, nullptr);
  EXPECT_EQ(sim.network().hooks().profiler, nullptr);
  EXPECT_EQ(sim.obs(), nullptr);
  const ExperimentResult result = sim.run();
  EXPECT_FALSE(result.telemetry.enabled);
  EXPECT_FALSE(result.obs.enabled);
}

TEST(Telemetry, ManifestParsesWithFullSchema) {
  const JsonValue root =
      JsonValue::parse(run_and_write_manifest(telemetry_config()));
  EXPECT_EQ(root.at("schema").string, kManifestSchema);
  EXPECT_FALSE(root.at("build").at("git_sha").string.empty());
  EXPECT_EQ(root.at("config").at("sim").at("k").as_int(), 4);
  EXPECT_DOUBLE_EQ(root.at("config").at("traffic").at("load").number, 0.4);
  EXPECT_EQ(root.at("config").at("detector").at("full_rebuild").boolean, false);
  EXPECT_GT(root.at("result").at("window").at("delivered").as_int(), 0);

  // Detection-cost accounting: every scheduled pass is an invocation; the
  // skipped count is how many the incremental pipeline answered for free.
  const JsonValue& det = root.at("result").at("detector");
  EXPECT_GT(det.at("invocations").as_int(), 0);
  EXPECT_GE(det.at("skipped_passes").as_int(), 0);
  EXPECT_LE(det.at("skipped_passes").as_int(), det.at("invocations").as_int());

  // One series, in the metrics stream: the manifest carries its summary
  // and no second copy.
  EXPECT_EQ(root.find("series"), nullptr);
  EXPECT_EQ(root.at("config").find("telemetry"), nullptr);
  const JsonValue& metrics = root.at("metrics");
  EXPECT_EQ(metrics.find("path"), nullptr);  // telemetry-only: no stream
  EXPECT_EQ(metrics.at("interval").as_int(), 50);
  EXPECT_EQ(metrics.at("samples").as_int(), 24);

  EXPECT_GT(root.at("heatmap").at("total_traversals").as_int(), 0);
  EXPECT_FALSE(root.at("heatmap").at("hot_channels").array.empty());
  EXPECT_EQ(root.at("profile").at("phases").array.size(), kNumSimPhases);
}

TEST(Telemetry, ManifestSeedAndTopologyHashReadBackExactly) {
  // Both are full 64-bit values; a double would round them above 2^53.
  ExperimentConfig cfg = telemetry_config();
  cfg.sim.seed = 10905525725756348110ULL;
  cfg.run.measure = 200;
  Simulation sim(cfg);
  const ExperimentResult result = sim.run();
  std::ostringstream out;
  write_manifest_json(out, sim.config(), result, *sim.telemetry(),
                      sim.network(), sim.obs());
  const JsonValue root = JsonValue::parse(out.str());
  EXPECT_EQ(root.at("config").at("sim").at("seed").as_uint(), cfg.sim.seed);
  const std::uint64_t hash = sim.network().topology().content_hash();
  ASSERT_GT(hash, std::uint64_t{1} << 53);  // a hash this test can tell apart
  EXPECT_EQ(root.at("topology").at("content_hash").as_uint(), hash);
}

TEST(Telemetry, StreamRecordsDeriveTheWindowFlow) {
  // The v2 record carries cumulative counters; diffing the records that
  // bracket the measured window [200, 1200] must reproduce WindowMetrics
  // exactly, with the formulas DESIGN.md gives.
  const std::string path = ::testing::TempDir() + "flexnet_telemetry_flow.ndjson";
  ExperimentConfig cfg = telemetry_config();
  cfg.obs.metrics_path = path;
  const ExperimentResult result = run_experiment(cfg);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = JsonValue::parse(line);
  std::vector<JsonValue> records;
  while (std::getline(in, line)) {
    JsonValue rec = JsonValue::parse(line);
    if (rec.find("final") == nullptr) records.push_back(std::move(rec));
  }
  ASSERT_EQ(records.size(), 24u);
  const JsonValue& start = records[3];  // cycle 200, end of warmup
  const JsonValue& end = records.back();
  ASSERT_EQ(start.at("cycle").as_int(), 200);
  ASSERT_EQ(end.at("cycle").as_int(), 1200);

  const auto diff = [&](const char* field) {
    return end.at(field).as_int() - start.at(field).as_int();
  };
  std::int64_t delivered = 0;
  for (std::size_t i = 4; i < records.size(); ++i) {
    delivered += records[i].at("delivered").as_int();
  }
  const WindowMetrics& w = result.window;
  EXPECT_EQ(diff("generated"), w.generated);
  EXPECT_EQ(diff("injected"), w.injected);
  EXPECT_EQ(delivered, w.delivered);
  EXPECT_EQ(diff("flits_delivered"), w.flits_delivered);
  const double throughput =
      static_cast<double>(diff("flits_delivered")) /
      (header.at("nodes").number * static_cast<double>(diff("cycle")));
  EXPECT_DOUBLE_EQ(throughput, w.throughput_flits_per_node);
  ASSERT_GT(delivered, 0);
  EXPECT_DOUBLE_EQ(static_cast<double>(diff("delivered_latency_sum")) /
                       static_cast<double>(delivered),
                   w.avg_latency);
  // The detector's verdict counters restart at the end of warmup, so the
  // last record holds the window's totals.
  EXPECT_EQ(end.at("deadlocks").as_int(), w.deadlocks);
  EXPECT_GT(diff("invocations"), 0);
  std::remove(path.c_str());
}

TEST(Telemetry, ManifestDeterministicModuloProfile) {
  const ExperimentConfig cfg = telemetry_config();
  const std::string a = run_and_write_manifest(cfg);
  const std::string b = run_and_write_manifest(cfg);
  // Everything up to the wall-clock "profile" section must match bytewise.
  const std::size_t cut_a = a.find("\"profile\"");
  const std::size_t cut_b = b.find("\"profile\"");
  ASSERT_NE(cut_a, std::string::npos);
  EXPECT_EQ(a.substr(0, cut_a), b.substr(0, cut_b));
}

}  // namespace
}  // namespace flexnet
