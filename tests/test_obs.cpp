// Observability layer: LogHistogram units, the ObsCollector's
// flexnet-metrics-v2 NDJSON stream contract, its snapshot codec, and the
// degree-ordered ASCII heatmap fallback for irregular topologies (golden
// against the committed examples/topologies/irregular-16.topo).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "telemetry/heatmap.hpp"
#include "util/binio.hpp"
#include "util/json.hpp"

#ifndef FLEXNET_TOPO_DIR
#error "FLEXNET_TOPO_DIR must point at examples/topologies"
#endif

namespace flexnet {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

ExperimentConfig small_torus_cfg() {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 8;
  cfg.sim.topology.n = 2;
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.seed = 11;
  cfg.traffic.load = 0.4;
  cfg.run.warmup = 200;
  cfg.run.measure = 800;
  return cfg;
}

// --- LogHistogram ----------------------------------------------------------

TEST(LogHistogram, BucketIndexingMatchesPowerOfTwoBounds) {
  EXPECT_EQ(LogHistogram::bucket_of(-5), 0);
  EXPECT_EQ(LogHistogram::bucket_of(0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(1), 1);
  EXPECT_EQ(LogHistogram::bucket_of(2), 2);
  EXPECT_EQ(LogHistogram::bucket_of(3), 2);
  EXPECT_EQ(LogHistogram::bucket_of(4), 3);
  EXPECT_EQ(LogHistogram::bucket_of(INT64_MAX), 63);
  // Every bucket's range is consistent with its index.
  for (int b = 1; b < LogHistogram::kBuckets; ++b) {
    EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_lo(b)), b);
    EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_hi(b)), b);
  }
  EXPECT_EQ(LogHistogram::bucket_lo(0), 0);
  EXPECT_EQ(LogHistogram::bucket_hi(0), 0);
}

TEST(LogHistogram, QuantilesInterpolateAndClampToMax) {
  LogHistogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0);  // Empty -> 0.

  for (std::int64_t v = 1; v <= 100; ++v) hist.record(v);
  EXPECT_EQ(hist.count(), 100);
  EXPECT_EQ(hist.max(), 100);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
  // The 50th sample lands in bucket [32, 63]; interpolation stays inside.
  EXPECT_GE(hist.p50(), 32.0);
  EXPECT_LE(hist.p50(), 63.0);
  // Upper quantiles are clamped by the recorded maximum, never beyond it.
  EXPECT_LE(hist.p99(), 100.0);
  EXPECT_LE(hist.p999(), 100.0);
  EXPECT_LE(hist.quantile(1.0), 100.0);
  EXPECT_GE(hist.p999(), hist.p99());
  EXPECT_GE(hist.p99(), hist.p50());
}

TEST(LogHistogram, MergeAddsAndSnapshotRoundTrips) {
  LogHistogram a, b;
  for (std::int64_t v = 0; v < 50; ++v) a.record(v);
  for (std::int64_t v = 1000; v < 1010; ++v) b.record(v);
  LogHistogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), a.count() + b.count());
  EXPECT_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_EQ(merged.max(), 1009);

  BinWriter out;
  merged.save_state(out);
  LogHistogram restored;
  BinReader in(out.bytes().data(), out.bytes().size());
  restored.restore_state(in);
  EXPECT_EQ(restored, merged);
}

// --- ObsConfig -------------------------------------------------------------

TEST(ObsConfig, EnabledAndValidation) {
  ObsConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.collect = true;
  EXPECT_TRUE(cfg.enabled());
  cfg.collect = false;
  cfg.metrics_path = "m.ndjson";
  EXPECT_TRUE(cfg.enabled());

  ExperimentConfig exp = small_torus_cfg();
  exp.sim.validate();
  Simulation sim(exp);
  ObsConfig bad;
  bad.collect = true;
  bad.interval = 0;
  EXPECT_THROW(ObsCollector(bad, sim.network()), std::invalid_argument);
  bad.interval = 100;
  bad.stall_ref = 0;
  EXPECT_THROW(ObsCollector(bad, sim.network()), std::invalid_argument);
}

TEST(ObsConfig, PointSuffixMatchesSweepConvention) {
  ObsConfig cfg;
  cfg.metrics_path = "m.ndjson";
  EXPECT_EQ(cfg.with_point_suffix(2).metrics_path, "m.ndjson.p2");
  ObsConfig no_path;
  no_path.collect = true;
  EXPECT_TRUE(no_path.with_point_suffix(1).metrics_path.empty());
}

// --- NDJSON stream contract ------------------------------------------------

TEST(ObsStream, WellFormedHeaderSamplesAndFinalRecord) {
  const std::string path = ::testing::TempDir() + "flexnet_obs_stream.ndjson";
  ExperimentConfig cfg = small_torus_cfg();
  cfg.obs.metrics_path = path;
  cfg.obs.interval = 100;
  const ExperimentResult result = run_experiment(cfg);

  ASSERT_TRUE(result.obs.enabled);
  EXPECT_EQ(result.obs.metrics_path, path);

  const std::vector<std::string> lines = split_lines(read_file(path));
  ASSERT_GE(lines.size(), 3u);  // header + >=1 sample + final

  const JsonValue header = JsonValue::parse(lines.front());
  EXPECT_EQ(header.at("schema").string, kMetricsSchema);
  EXPECT_EQ(header.at("interval").number, 100.0);
  EXPECT_EQ(header.at("nodes").number, 64.0);

  Cycle prev_cycle = 0;
  std::int64_t prev_generated = 0;
  std::size_t samples = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const JsonValue rec = JsonValue::parse(lines[i]);
    const auto cycle = static_cast<Cycle>(rec.at("cycle").number);
    // Strictly advancing sample cycles on the configured stride.
    EXPECT_EQ(cycle, prev_cycle + 100) << "line " << i + 1;
    prev_cycle = cycle;
    EXPECT_NE(rec.find("score"), nullptr);
    EXPECT_NE(rec.find("active_routers"), nullptr);
    // v2 run counters are cumulative: they never go down.
    EXPECT_GE(rec.at("generated").as_int(), prev_generated) << "line " << i + 1;
    prev_generated = rec.at("generated").as_int();
    for (const char* field : {"injected", "flits_delivered",
                              "delivered_latency_sum", "invocations",
                              "deadlocks", "transient_knots", "livelocks"}) {
      EXPECT_NE(rec.find(field), nullptr) << field;
    }
    ++samples;
  }
  EXPECT_GT(prev_generated, 0);
  EXPECT_EQ(samples, result.obs.samples);
  EXPECT_EQ(samples, 10u);  // 1000 cycles / 100-cycle stride.

  const JsonValue final_record = JsonValue::parse(lines.back());
  EXPECT_TRUE(final_record.at("final").boolean);
  EXPECT_EQ(final_record.at("schema").string, kMetricsSchema);
  EXPECT_EQ(static_cast<std::uint64_t>(final_record.at("samples").number),
            result.obs.samples);
  EXPECT_EQ(static_cast<std::int64_t>(final_record.at("warnings").number),
            result.obs.warnings);
}

/// MetricsStreamReader's error text for `text`, or "" when every record reads.
std::string stream_error(const std::string& text) {
  std::istringstream in(text);
  MetricsStreamReader reader(in, "m.ndjson");
  JsonValue rec;
  try {
    while (reader.next(rec)) {
    }
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ObsStream, ReaderValidatesEveryRecord) {
  const std::string path = ::testing::TempDir() + "flexnet_obs_reader.ndjson";
  ExperimentConfig cfg = small_torus_cfg();
  cfg.obs.metrics_path = path;
  cfg.obs.interval = 100;
  const ExperimentResult result = run_experiment(cfg);
  const std::string text = read_file(path);
  const std::vector<std::string> lines = split_lines(text);

  // A live stream grows: the reader stops at the end so far, then reads on.
  using Record = MetricsStreamReader::Record;
  std::stringstream live;
  live << lines[0] << '\n';
  MetricsStreamReader reader(live, "m.ndjson");
  JsonValue rec;
  EXPECT_EQ(reader.next(rec), Record::Header);
  EXPECT_EQ(reader.next(rec), std::nullopt);
  for (std::size_t i = 1; i < lines.size(); ++i) live << lines[i] << '\n';
  std::size_t samples = 0;
  std::optional<Record> record;
  while ((record = reader.next(rec)) == Record::Sample) ++samples;
  EXPECT_EQ(samples, result.obs.samples);
  EXPECT_EQ(record, Record::Final);
  EXPECT_TRUE(reader.finished());
  EXPECT_EQ(reader.next(rec), std::nullopt);

  EXPECT_EQ(stream_error(text), "");
  const std::size_t last = lines.size();
  EXPECT_EQ(stream_error(text + lines[1] + "\n"),
            "m.ndjson:" + std::to_string(last + 1) +
                ": record after the final summary record");
  EXPECT_EQ(stream_error("{\"schema\":\"flexnet-metrics-v1\"}\n"),
            "m.ndjson:1: missing or unknown schema (want flexnet-metrics-v2 "
            "header record)");
  EXPECT_EQ(stream_error(lines[0] + "\n{\"score\":1}\n"),
            "m.ndjson:2: sample record has no \"cycle\" field");
  EXPECT_EQ(stream_error(lines[0] + "\n[1]\n"),
            "m.ndjson:2: record is not a JSON object");
  EXPECT_EQ(stream_error(text.substr(0, lines[0].size() + 20)).rfind(
                "m.ndjson:2: JSON parse error", 0),
            0u);
}

TEST(ObsStream, CollectorSnapshotRoundTripsByteExactly) {
  ExperimentConfig cfg = small_torus_cfg();
  cfg.obs.collect = true;
  Simulation sim(cfg);
  sim.run_cycles(500);

  BinWriter first;
  sim.obs()->save_state(first);

  // A fresh collector restored from those bytes re-serializes identically.
  ObsCollector restored(cfg.obs, sim.network());
  BinReader in(first.bytes().data(), first.bytes().size());
  restored.restore_state(in);
  BinWriter second;
  restored.save_state(second);
  ASSERT_EQ(first.bytes().size(), second.bytes().size());
  EXPECT_EQ(first.bytes(), second.bytes());
}

// --- degree-ordered heatmap fallback ---------------------------------------

TEST(HeatmapFallback, GoldenDegreeOrderedTableOnIrregular16) {
  ExperimentConfig cfg;
  cfg.sim.topo_kind = TopoKind::File;
  cfg.sim.topo_file = FLEXNET_TOPO_DIR "/irregular-16.topo";
  cfg.sim.routing = RoutingKind::TableUpDown;
  cfg.sim.validate();
  Simulation sim(cfg);
  SpatialHeatmap heat(sim.network());

  // Zero traffic: every value 0, rows ordered by descending degree then id.
  const std::string golden =
      "heatmap traversals (per-node, degree-ordered, peak=0)\n"
      "  node  degree       value  bar\n"
      "     7       5           0  \n"
      "    13       5           0  \n"
      "     0       4           0  \n"
      "     2       4           0  \n"
      "     6       4           0  \n"
      "    10       4           0  \n"
      "     4       3           0  \n"
      "     5       3           0  \n"
      "     8       3           0  \n"
      "     9       3           0  \n"
      "    11       3           0  \n"
      "     3       2           0  \n"
      "    12       2           0  \n"
      "     1       1           0  \n"
      "    14       1           0  \n"
      "    15       1           0  \n";
  EXPECT_EQ(heat.ascii_grid(sim.network(), SpatialHeatmap::Field::Traversals),
            golden);
}

TEST(HeatmapFallback, RunOnIrregularTopologyRendersBars) {
  ExperimentConfig cfg;
  cfg.sim.topo_kind = TopoKind::File;
  cfg.sim.topo_file = FLEXNET_TOPO_DIR "/irregular-16.topo";
  cfg.sim.routing = RoutingKind::TableUpDown;
  cfg.sim.seed = 7;
  cfg.traffic.load = 0.5;
  cfg.run.warmup = 200;
  cfg.run.measure = 800;
  cfg.telemetry.collect = true;
  const ExperimentResult result = run_experiment(cfg);

  const std::string& table = result.telemetry.heatmap_ascii;
  ASSERT_FALSE(table.empty());
  EXPECT_NE(table.find("degree-ordered"), std::string::npos);
  // Traffic flowed, so the peak is nonzero and at least one bar rendered.
  EXPECT_EQ(table.find("peak=0"), std::string::npos);
  EXPECT_NE(table.find('#'), std::string::npos);
}

}  // namespace
}  // namespace flexnet
