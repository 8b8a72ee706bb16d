// Workload subsystem: flexnet-trace-v1 strict parsing, pace profile specs
// and files, capture -> replay determinism (bit-exact windows, byte-identical
// metrics streams, manifests identical modulo the workload/profile blocks),
// mid-trace checkpoint/resume bit-exactness, serial vs parallel pace sweep
// equality, and per-class telemetry consistency.
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/sweep.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "util/json.hpp"
#include "workload/pace.hpp"
#include "workload/replay.hpp"
#include "workload/trace_file.hpp"

namespace flexnet {
namespace {

// ---------------------------------------------------------------- helpers

std::string valid_trace_text() {
  return "flexnet-trace-v1\n"
         "nodes 16\n"
         "pattern Uniform\n"
         "load 0.5\n"
         "hotspots 0\n"
         "hotspot_fraction 0\n"
         "hybrid_fraction 0\n"
         "hybrid_with Uniform\n"
         "avg_distance 2\n"
         "capacity 2\n"
         "offered 1\n"
         "# a comment line\n"
         "msg 0 0 5 8 bulk\n"
         "msg 0 3 9 8 burst\n"
         "msg 7 1 2 4 interactive\n"
         "end 3\n";
}

TraceData parse_text(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in, "test");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Removes the fields a capture run and its replay legitimately disagree on:
// the workload config block, the wall-clock profile section, and the metrics
// stream path. Everything else must match byte-for-byte.
void strip_manifest(JsonValue& manifest) {
  std::erase_if(manifest.object,
                [](const auto& m) { return m.first == "profile"; });
  for (auto& [key, value] : manifest.object) {
    if (key == "config") {
      std::erase_if(value.object,
                    [](const auto& m) { return m.first == "workload"; });
    }
    if (key == "metrics") {
      std::erase_if(value.object,
                    [](const auto& m) { return m.first == "path"; });
    }
  }
}

bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case JsonValue::Type::Null:
      return true;
    case JsonValue::Type::Bool:
      return a.boolean == b.boolean;
    case JsonValue::Type::Number:
      return a.number == b.number;
    case JsonValue::Type::String:
      return a.string == b.string;
    case JsonValue::Type::Array:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!same_json(a.array[i], b.array[i])) return false;
      }
      return true;
    case JsonValue::Type::Object:
      if (a.object.size() != b.object.size()) return false;
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first) return false;
        if (!same_json(a.object[i].second, b.object[i].second)) return false;
      }
      return true;
  }
  return false;
}

void expect_same_window(const WindowMetrics& a, const WindowMetrics& b) {
  EXPECT_EQ(a.window_cycles, b.window_cycles);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.deadlocks, b.deadlocks);
  for (const MessageClass cls : all_message_classes()) {
    const std::size_t k = class_index(cls);
    EXPECT_EQ(a.classes[k].generated, b.classes[k].generated);
    EXPECT_EQ(a.classes[k].delivered, b.classes[k].delivered);
    EXPECT_EQ(a.classes[k].recovered, b.classes[k].recovered);
    EXPECT_EQ(a.classes[k].avg_latency, b.classes[k].avg_latency);
    EXPECT_EQ(a.classes[k].deadlock_participants,
              b.classes[k].deadlock_participants);
  }
}

SimConfig small_sim_config() {
  SimConfig cfg;
  cfg.topology.k = 4;
  cfg.topology.n = 2;
  cfg.message_length = 8;
  cfg.routing = RoutingKind::DOR;
  return cfg;
}

std::unique_ptr<Network> make_network(const SimConfig& cfg) {
  return std::make_unique<Network>(
      cfg, NetworkDeps{nullptr, make_routing(cfg),
                       make_selection(cfg.selection)});
}

// ---------------------------------------------------------------- trace file

TEST(TraceFormat, WriteReadRoundTrip) {
  const TraceData data = parse_text(valid_trace_text());
  ASSERT_EQ(data.records.size(), 3u);
  EXPECT_EQ(data.header.nodes, 16);
  EXPECT_EQ(data.header.traffic.pattern, TrafficKind::Uniform);
  EXPECT_EQ(data.header.traffic.load, 0.5);
  EXPECT_EQ(data.header.avg_distance, 2.0);
  EXPECT_EQ(data.records[1],
            (TraceRecord{0, 3, 9, 8, MessageClass::Burst}));
  EXPECT_EQ(data.records[2].cls, MessageClass::Interactive);

  std::ostringstream out;
  write_trace(out, data);
  const TraceData again = parse_text(out.str());
  EXPECT_EQ(again.records, data.records);
  EXPECT_EQ(again.content_hash(), data.content_hash());
}

TEST(TraceFormat, ContentHashSeesEveryField) {
  TraceData a = parse_text(valid_trace_text());
  TraceData b = a;
  b.records[0].cls = MessageClass::Control;
  EXPECT_NE(a.content_hash(), b.content_hash());
  TraceData c = a;
  c.header.traffic.load = 0.25;
  EXPECT_NE(a.content_hash(), c.content_hash());
}

TEST(TraceFormat, RejectsBadMagic) {
  EXPECT_THROW(parse_text("flexnet-trace-v9\nend 0\n"), std::runtime_error);
  EXPECT_THROW(parse_text(""), std::runtime_error);
}

TEST(TraceFormat, RejectsDecreasingCycles) {
  std::string text = valid_trace_text();
  const std::size_t at = text.find("msg 7");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 5, "msg 0");  // after a cycle-0 record this is fine...
  (void)parse_text(text);        // ...nondecreasing is allowed
  text = valid_trace_text();
  text.replace(text.find("msg 0 3"), 7, "msg 9 3");  // 0,9,7 decreases
  EXPECT_THROW(parse_text(text), std::runtime_error);
}

TEST(TraceFormat, RejectsTruncation) {
  std::string text = valid_trace_text();
  text.erase(text.find("end 3"));  // trailer gone
  EXPECT_THROW(parse_text(text), std::runtime_error);
}

TEST(TraceFormat, RejectsMiscountedTrailer) {
  std::string text = valid_trace_text();
  text.replace(text.find("end 3"), 5, "end 2");
  EXPECT_THROW(parse_text(text), std::runtime_error);
}

TEST(TraceFormat, RejectsBadClass) {
  std::string text = valid_trace_text();
  text.replace(text.find("bulk"), 4, "bogo");
  EXPECT_THROW(parse_text(text), std::runtime_error);
}

TEST(TraceFormat, RejectsUnknownDirective) {
  std::string text = valid_trace_text();
  text.insert(text.find("# a comment"), "turbo on\n");
  EXPECT_THROW(parse_text(text), std::runtime_error);
}

TEST(TraceFormat, RejectsMsgBeforeCompleteHeader) {
  EXPECT_THROW(parse_text("flexnet-trace-v1\n"
                          "nodes 16\n"
                          "msg 0 0 5 8 bulk\n"
                          "end 1\n"),
               std::runtime_error);
}

TEST(TraceFormat, RejectsOutOfRangeNodesAndSelfTraffic) {
  std::string text = valid_trace_text();
  text.replace(text.find("msg 0 0 5"), 9, "msg 0 0 16");  // dst == nodes
  EXPECT_THROW(parse_text(text), std::runtime_error);
  text = valid_trace_text();
  text.replace(text.find("msg 0 0 5"), 9, "msg 0 5 5");  // src == dst
  EXPECT_THROW(parse_text(text), std::runtime_error);
}

TEST(TraceFormat, RejectsNonFiniteHeaderValues) {
  // "load nan" used to parse, run, and print the load as "-".
  for (const char* bad : {"load nan", "load inf", "load 1e999"}) {
    std::string text = valid_trace_text();
    text.replace(text.find("load 0.5"), 8, bad);
    try {
      (void)parse_text(text);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("test:4: ", 0), 0u) << e.what();
    }
  }
}

TEST(TraceFormat, RejectsContentAfterTrailer) {
  EXPECT_THROW(parse_text(valid_trace_text() + "msg 8 0 5 8 bulk\n"),
               std::runtime_error);
}

TEST(TraceFormat, CaptureWriterEnforcesOrderAndSingleFinish) {
  std::ostringstream out;
  TraceHeader header = parse_text(valid_trace_text()).header;
  TraceCaptureWriter writer(out, header);
  writer.record(3, 0, 5, 8, MessageClass::Bulk);
  EXPECT_THROW(writer.record(2, 0, 5, 8, MessageClass::Bulk),
               std::logic_error);
  writer.finish();
  EXPECT_THROW(writer.finish(), std::logic_error);
  EXPECT_THROW(writer.record(9, 0, 5, 8, MessageClass::Bulk),
               std::logic_error);
  const TraceData data = parse_text(out.str());
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records[0], (TraceRecord{3, 0, 5, 8, MessageClass::Bulk}));
}

// ---------------------------------------------------------------- pace

TEST(PaceSpec, BurstIsMeanNormalizedAndTagged) {
  const PaceProfile p = parse_pace_spec("burst(100,0.2,4)");
  EXPECT_NEAR(p.mean_multiplier(), 1.0, 1e-9);
  EXPECT_EQ(p.max_multiplier(), 4.0);
  MessageClass cls = MessageClass::Bulk;
  EXPECT_EQ(p.multiplier_at(0, &cls), 4.0);  // ON phase first
  EXPECT_EQ(cls, MessageClass::Burst);
  EXPECT_LT(p.multiplier_at(50, &cls), 1.0);  // OFF baseline < mean
  EXPECT_EQ(cls, MessageClass::Bulk);
  // Repeats: cycle 100 looks like cycle 0.
  EXPECT_EQ(p.multiplier_at(100), p.multiplier_at(0));
}

TEST(PaceSpec, OnoffAndRamp) {
  const PaceProfile onoff = parse_pace_spec("onoff(50,0.5)");
  EXPECT_NEAR(onoff.mean_multiplier(), 1.0, 1e-9);
  EXPECT_EQ(onoff.multiplier_at(0), 2.0);   // peak = 1/duty
  EXPECT_EQ(onoff.multiplier_at(30), 0.0);  // OFF is exactly silent

  const PaceProfile ramp = parse_pace_spec("ramp(100)");
  EXPECT_NEAR(ramp.mean_multiplier(), 1.0, 1e-9);
  EXPECT_EQ(ramp.max_multiplier(), 2.0);
  EXPECT_LT(ramp.multiplier_at(1), ramp.multiplier_at(99));
}

TEST(PaceSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_pace_spec("zigzag(10)"), std::invalid_argument);
  EXPECT_THROW(parse_pace_spec("burst(100,1.5,2)"), std::invalid_argument);
  EXPECT_THROW(parse_pace_spec("burst(100,0.2,9)"), std::invalid_argument);
  EXPECT_THROW(parse_pace_spec("burst(100,0.2)"), std::invalid_argument);
  EXPECT_THROW(parse_pace_spec("onoff(1,0.5)"), std::invalid_argument);
}

TEST(PaceFile, RoundTripAndStrictness) {
  const PaceProfile p = parse_pace_spec("burst(80,0.25,3)");
  std::ostringstream out;
  write_pace(out, p);
  std::istringstream in(out.str());
  const PaceProfile again = read_pace(in, "test");
  EXPECT_EQ(again, p);
  EXPECT_EQ(again.content_hash(), p.content_hash());

  std::istringstream bad_magic("flexnet-pace-v9\nphase 10 1 1 bulk\n");
  EXPECT_THROW((void)read_pace(bad_magic, "test"), std::runtime_error);
  std::istringstream bad_phase("flexnet-pace-v1\nphase 0 1 1 bulk\n");
  EXPECT_THROW((void)read_pace(bad_phase, "test"), std::runtime_error);
}

TEST(PacedInjection, RejectsBurstsBeyondOneMessagePerCycle) {
  const SimConfig cfg = small_sim_config();
  const auto net = make_network(cfg);
  TrafficConfig traffic;
  traffic.load = 0.9;  // probability 0.225/node/cycle at length 8
  EXPECT_THROW(
      PacedInjection(*net, traffic, 1, parse_pace_spec("onoff(100,0.2)")),
      std::invalid_argument);
  // A gentle profile is fine.
  PacedInjection ok(*net, traffic, 1, parse_pace_spec("ramp(100)"));
  EXPECT_EQ(ok.kind(), WorkloadKind::Paced);
}

// ---------------------------------------------------------------- spec/config

TEST(WorkloadSpec, ParsesAllKinds) {
  EXPECT_EQ(parse_workload_spec("bernoulli").kind, WorkloadKind::Bernoulli);
  const WorkloadConfig trace = parse_workload_spec("trace:/tmp/x.trace");
  EXPECT_EQ(trace.kind, WorkloadKind::Trace);
  EXPECT_EQ(trace.trace_path, "/tmp/x.trace");
  const WorkloadConfig pace = parse_workload_spec("pace:burst(100,0.2,4)");
  EXPECT_EQ(pace.kind, WorkloadKind::Paced);
  EXPECT_EQ(pace.pace_spec, "burst(100,0.2,4)");
  EXPECT_FALSE(pace.pace.empty());
  EXPECT_THROW(parse_workload_spec("poisson"), std::invalid_argument);
  EXPECT_THROW(parse_workload_spec("trace:"), std::invalid_argument);
}

TEST(WorkloadSpec, PointSuffixOnlyRenamesTheCaptureOutput) {
  WorkloadConfig cfg = parse_workload_spec("trace:shared.trace");
  cfg.capture_path = "out.trace";
  const WorkloadConfig p2 = cfg.with_point_suffix(2);
  EXPECT_EQ(p2.trace_path, "shared.trace");
  EXPECT_EQ(p2.capture_path, "out.trace.p2");
}

// ---------------------------------------------------------------- replay unit

TEST(TraceReplay, ReplaysRecordsAtTheirCyclesThenExhausts) {
  const std::string dir = temp_dir("flexnet_wl_replay_unit");
  const std::string path = dir + "/small.trace";
  {
    std::ofstream out(path);
    out << valid_trace_text();
  }
  const SimConfig cfg = small_sim_config();
  const auto net = make_network(cfg);
  TraceReplayInjection replay(*net, path, 1);
  EXPECT_EQ(replay.kind(), WorkloadKind::Trace);
  EXPECT_EQ(replay.num_records(), 3u);
  EXPECT_EQ(replay.header().traffic.load, 0.5);
  for (int i = 0; i < 20 && !replay.exhausted(); ++i) {
    replay.tick(*net);
    net->step();
  }
  EXPECT_TRUE(replay.exhausted());
  EXPECT_EQ(replay.cursor(), 3u);
  EXPECT_EQ(net->counters().generated, 3);
  EXPECT_EQ(net->counters().class_generated[class_index(MessageClass::Burst)],
            1);
}

TEST(TraceReplay, RejectsTraceFromDifferentTopologySize) {
  const std::string dir = temp_dir("flexnet_wl_replay_nodes");
  const std::string path = dir + "/big.trace";
  {
    std::ofstream out(path);
    std::string text = valid_trace_text();
    text.replace(text.find("nodes 16"), 8, "nodes 64");
    out << text;
  }
  const auto net = make_network(small_sim_config());  // 16 nodes
  EXPECT_THROW(TraceReplayInjection(*net, path, 1), std::runtime_error);
}

// ------------------------------------------------- capture -> replay e2e

ExperimentConfig capture_base_config() {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 4;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.message_length = 8;
  cfg.sim.seed = 11;
  cfg.traffic.load = 0.6;
  cfg.detector.interval = 50;
  cfg.run.warmup = 300;
  cfg.run.measure = 900;
  return cfg;
}

TEST(CaptureReplay, ReplayReproducesManifestAndMetricsByteExactly) {
  const std::string dir = temp_dir("flexnet_wl_replay_e2e");

  ExperimentConfig cap = capture_base_config();
  cap.workload.capture_path = dir + "/run.trace";
  cap.telemetry.manifest_path = dir + "/cap.json";
  cap.obs.metrics_path = dir + "/cap.ndjson";
  const ExperimentResult captured = run_experiment(cap);
  EXPECT_GT(captured.window.generated, 0);

  ExperimentConfig rep = capture_base_config();
  rep.traffic.load = 0.1;  // ignored: the replay adopts the header's traffic
  rep.workload = parse_workload_spec("trace:" + dir + "/run.trace");
  rep.telemetry.manifest_path = dir + "/rep.json";
  rep.obs.metrics_path = dir + "/rep.ndjson";
  const ExperimentResult replayed = run_experiment(rep);

  expect_same_window(captured.window, replayed.window);
  EXPECT_EQ(captured.normalized_throughput, replayed.normalized_throughput);
  EXPECT_EQ(captured.load, replayed.load);
  EXPECT_EQ(captured.avg_distance, replayed.avg_distance);

  // The observability stream is byte-identical with no exceptions.
  EXPECT_EQ(read_file(dir + "/cap.ndjson"), read_file(dir + "/rep.ndjson"));

  // Manifests agree everywhere but the workload block, the wall-clock
  // profile, and the metrics path.
  JsonValue a = JsonValue::parse(read_file(dir + "/cap.json"));
  JsonValue b = JsonValue::parse(read_file(dir + "/rep.json"));
  EXPECT_FALSE(same_json(a, b));  // the workload blocks differ by design
  strip_manifest(a);
  strip_manifest(b);
  EXPECT_TRUE(same_json(a, b));
}

TEST(CaptureReplay, MidTraceResumeIsBitExact) {
  const std::string dir = temp_dir("flexnet_wl_resume");

  ExperimentConfig cap = capture_base_config();
  cap.workload.capture_path = dir + "/run.trace";
  (void)run_experiment(cap);

  ExperimentConfig rep = capture_base_config();
  rep.workload = parse_workload_spec("trace:" + dir + "/run.trace");
  rep.snapshot.checkpoint_every = 500;
  rep.snapshot.checkpoint_dir = dir + "/ckpt";
  const ExperimentResult full = run_experiment(rep);

  // Cycle 500 is mid-trace and mid-warmup; 1000 is mid-measurement.
  for (const Cycle at : {Cycle{500}, Cycle{1000}}) {
    ExperimentConfig resume;
    resume.snapshot.resume_path =
        dir + "/ckpt/ckpt-" + std::to_string(at) + ".snap";
    const ExperimentResult resumed = run_experiment(resume);
    expect_same_window(full.window, resumed.window);
    EXPECT_EQ(full.normalized_throughput, resumed.normalized_throughput);
    EXPECT_EQ(resumed.resumed_at_cycle, at);
  }
}

TEST(CaptureReplay, ResumeRejectsAMutatedTrace) {
  const std::string dir = temp_dir("flexnet_wl_resume_tamper");

  ExperimentConfig cap = capture_base_config();
  cap.workload.capture_path = dir + "/run.trace";
  (void)run_experiment(cap);

  ExperimentConfig rep = capture_base_config();
  rep.workload = parse_workload_spec("trace:" + dir + "/run.trace");
  rep.snapshot.checkpoint_every = 500;
  rep.snapshot.checkpoint_dir = dir + "/ckpt";
  (void)run_experiment(rep);

  // Flip one record's class: the file still parses, but the content hash
  // stored in the snapshot must notice the workload changed.
  std::string text = read_file(dir + "/run.trace");
  const std::size_t at = text.find(" bulk\n");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, " burst\n");
  {
    std::ofstream out(dir + "/run.trace");
    out << text;
  }
  ExperimentConfig resume;
  resume.snapshot.resume_path = dir + "/ckpt/ckpt-500.snap";
  EXPECT_THROW((void)run_experiment(resume), std::runtime_error);
}

// -------------------------------------------------------- paced run e2e

TEST(PacedRun, SerialAndParallelSweepsMatch) {
  ExperimentConfig base = capture_base_config();
  base.run.warmup = 200;
  base.run.measure = 400;
  base.workload = parse_workload_spec("pace:burst(100,0.2,4)");
  const std::vector<double> loads{0.2, 0.4, 0.6};

  const auto serial = sweep_loads(base, loads, /*parallel=*/false);
  const auto parallel = sweep_loads(base, loads, /*parallel=*/true);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_window(serial[i].window, parallel[i].window);
    EXPECT_EQ(serial[i].normalized_throughput,
              parallel[i].normalized_throughput);
  }
}

TEST(PacedRun, ClassTotalsSumToScalarCounters) {
  ExperimentConfig cfg = capture_base_config();
  cfg.workload = parse_workload_spec("pace:burst(100,0.2,4)");
  const ExperimentResult r = run_experiment(cfg);

  std::int64_t generated = 0, delivered = 0, recovered = 0;
  for (const MessageClass cls : all_message_classes()) {
    const auto& cm = r.window.classes[class_index(cls)];
    generated += cm.generated;
    delivered += cm.delivered;
    recovered += cm.recovered;
  }
  EXPECT_EQ(generated, r.window.generated);
  EXPECT_EQ(delivered, r.window.delivered);
  EXPECT_EQ(recovered, r.window.recovered);
  // A burst profile actually produces both classes.
  EXPECT_GT(r.window.classes[class_index(MessageClass::Bulk)].generated, 0);
  EXPECT_GT(r.window.classes[class_index(MessageClass::Burst)].generated, 0);
}

TEST(BernoulliRun, EverythingStaysBulk) {
  const ExperimentResult r = run_experiment(capture_base_config());
  const auto& bulk = r.window.classes[class_index(MessageClass::Bulk)];
  EXPECT_EQ(bulk.generated, r.window.generated);
  EXPECT_EQ(bulk.delivered, r.window.delivered);
  for (const MessageClass cls :
       {MessageClass::Burst, MessageClass::Interactive, MessageClass::Control}) {
    EXPECT_EQ(r.window.classes[class_index(cls)].generated, 0);
    EXPECT_EQ(r.window.classes[class_index(cls)].delivered, 0);
  }
}

}  // namespace
}  // namespace flexnet
