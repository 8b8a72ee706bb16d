#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "exp/cli.hpp"
#include "exp/experiment.hpp"
#include "trace/forensics.hpp"
#include "trace/sinks.hpp"
#include "util/rng.hpp"

namespace flexnet {
namespace {

TraceEvent make_event(Cycle cycle, TraceEventKind kind, MessageId msg = 7,
                      VcId vc = 3, VcId vc2 = kInvalidVc) {
  TraceEvent e;
  e.cycle = cycle;
  e.kind = kind;
  e.message = msg;
  e.vc = vc;
  e.vc2 = vc2;
  e.node = 1;
  e.arg = 42;
  return e;
}

/// A deadlock-prone configuration: unidirectional 4-ary 2-cube, unrestricted
/// DOR, one VC (the paper's most deadlock-heavy corner).
ExperimentConfig deadlocky_config() {
  ExperimentConfig cfg;
  cfg.sim.topology.k = 4;
  cfg.sim.topology.bidirectional = false;
  cfg.sim.routing = RoutingKind::DOR;
  cfg.sim.vcs = 1;
  cfg.traffic.load = 0.6;
  cfg.run.warmup = 500;
  cfg.run.measure = 2000;
  return cfg;
}

TEST(TraceEventKindNames, RoundTrip) {
  for (std::size_t i = 0; i < kNumTraceEventKinds; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    EXPECT_EQ(parse_trace_event_kind(to_string(kind)), kind);
  }
  EXPECT_EQ(parse_trace_event_kind("NotAKind"), TraceEventKind::kCount_);
}

TEST(RingBufferSink, RetainsNewestEventsInOrder) {
  RingBufferSink ring(4);
  for (Cycle t = 0; t < 10; ++t) {
    ring.on_event(make_event(t, TraceEventKind::FlitHopped));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_seen(), 10u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].cycle, static_cast<Cycle>(6 + i));
  }
}

TEST(RingBufferSink, FiltersByMessageAndFindsLastProgress) {
  RingBufferSink ring(16);
  ring.on_event(make_event(1, TraceEventKind::VcAllocated, 5));
  ring.on_event(make_event(2, TraceEventKind::FlitHopped, 6));
  ring.on_event(make_event(3, TraceEventKind::FlitHopped, 5));
  ring.on_event(make_event(4, TraceEventKind::MessageBlocked, 5));
  EXPECT_EQ(ring.events_for_message(5).size(), 3u);
  // The blocked event at cycle 4 is not progress; the hop at 3 is.
  EXPECT_EQ(ring.last_progress_cycle(5), 3);
  EXPECT_EQ(ring.last_progress_cycle(6), 2);
  EXPECT_EQ(ring.last_progress_cycle(99), -1);
}

TEST(Tracer, FansOutToEverySink) {
  RingBufferSink a(8);
  RingBufferSink b(8);
  Tracer tracer;
  EXPECT_FALSE(tracer.has_sinks());
  tracer.add_sink(&a);
  tracer.add_sink(&b);
  tracer.emit(make_event(1, TraceEventKind::FlitInjected));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.snapshot().front(), b.snapshot().front());
}

TEST(BinaryEncoding, RoundTripsEveryField) {
  TraceEvent e = make_event(123456789012345, TraceEventKind::DeadlockDetected,
                            -1, kInvalidVc, 17);
  e.node = kInvalidNode;
  e.arg = -7;
  std::array<std::uint8_t, kBinaryTraceEventSize> buf{};
  encode_trace_event(e, buf.data());
  EXPECT_EQ(decode_trace_event(buf.data()), e);
}

TEST(BinaryTraceSink, StreamRoundTripAndTruncationDetection) {
  std::ostringstream out(std::ios::binary);
  BinaryTraceSink sink(out);
  std::vector<TraceEvent> sent;
  for (Cycle t = 0; t < 5; ++t) {
    sent.push_back(make_event(t, TraceEventKind::VcFreed, t));
    sink.on_event(sent.back());
  }
  sink.flush();
  EXPECT_EQ(sink.events_written(), 5u);

  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_EQ(read_binary_trace(in), sent);

  std::istringstream truncated(out.str().substr(0, out.str().size() - 1),
                               std::ios::binary);
  EXPECT_THROW(read_binary_trace(truncated), std::runtime_error);
}

/// read_binary_trace's error text for `bytes`, or "" when it loads.
std::string binary_trace_error(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)read_binary_trace(in, "t.bin");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BinaryTraceSink, HeaderAnnouncesTheFormat) {
  std::ostringstream out(std::ios::binary);
  BinaryTraceSink sink(out);
  sink.flush();
  const std::string empty = out.str();
  ASSERT_EQ(empty.size(), kBinaryTraceHeaderSize);
  EXPECT_EQ(empty.substr(0, 14), "flexnet-btrace");
  std::istringstream in(empty, std::ios::binary);
  EXPECT_TRUE(read_binary_trace(in).empty());
}

TEST(BinaryTraceSink, RejectsGarbageNamingTheByteOffset) {
  // Bytes that are not a trace: random data, and a text file cut to a
  // whole number of records, both used to load as events.
  Pcg32 rng(7);
  std::string noise(330, '\0');
  for (char& c : noise) c = static_cast<char>(rng.bounded(256));
  EXPECT_EQ(binary_trace_error(noise),
            "t.bin: byte 0: bad magic (not a flexnet-btrace file)");
  EXPECT_EQ(binary_trace_error(std::string(20 * kBinaryTraceEventSize, '#')),
            "t.bin: byte 0: bad magic (not a flexnet-btrace file)");
  EXPECT_EQ(binary_trace_error(""),
            "t.bin: byte 0: bad magic (not a flexnet-btrace file)");
  EXPECT_EQ(binary_trace_error("flexnet-btr"),
            "t.bin: byte 0: bad magic (not a flexnet-btrace file)");

  std::ostringstream out(std::ios::binary);
  BinaryTraceSink sink(out);
  sink.on_event(make_event(1, TraceEventKind::VcFreed, 3));
  sink.on_event(make_event(2, TraceEventKind::VcFreed, 4));
  sink.flush();
  const std::string good = out.str();
  ASSERT_EQ(binary_trace_error(good), "");

  std::string version = good;
  version[14] = 2;
  EXPECT_EQ(binary_trace_error(version),
            "t.bin: byte 14: unsupported version 2 (expected 1)");

  std::string kind = good;
  const std::size_t second = kBinaryTraceHeaderSize + kBinaryTraceEventSize;
  kind[second + 32] = static_cast<char>(kNumTraceEventKinds);
  EXPECT_EQ(binary_trace_error(kind),
            "t.bin: byte " + std::to_string(second + 32) +
                ": unknown event kind " + std::to_string(kNumTraceEventKinds));

  EXPECT_EQ(binary_trace_error(good.substr(0, second + 5)),
            "t.bin: byte " + std::to_string(second) +
                ": truncated record (5 of 33 bytes)");
}

TEST(ChromeTraceSink, EmitsLoadableJson) {
  std::ostringstream out;
  {
    ChromeTraceSink sink(out);
    sink.on_event(make_event(10, TraceEventKind::FlitInjected));
    TraceEvent blocked = make_event(20, TraceEventKind::MessageBlocked, 9);
    sink.on_event(blocked);
    TraceEvent unblocked = make_event(35, TraceEventKind::MessageUnblocked, 9);
    sink.on_event(unblocked);
    sink.flush();
  }
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  EXPECT_NE(json.find("\"FlitInjected\""), std::string::npos);
  // The blocked episode collapses into one complete slice with its duration.
  EXPECT_NE(json.find("\"MessageBlocked\",\"ph\":\"X\",\"ts\":20"),
            std::string::npos);
  EXPECT_NE(json.find("\"dur\":15"), std::string::npos);
  EXPECT_EQ(json.find("MessageUnblocked"), std::string::npos);
}

TEST(LiveTracing, EventCountsMatchNetworkCounters) {
  ExperimentConfig cfg = deadlocky_config();
  Simulation sim(cfg);
  RingBufferSink ring(1 << 20);
  Tracer tracer;
  tracer.add_sink(&ring);
  NetworkHooks hooks = sim.network().hooks();
  hooks.tracer = &tracer;
  sim.network().install_hooks(hooks);
  sim.run_cycles(1500);

  std::array<std::int64_t, kNumTraceEventKinds> counts{};
  Cycle prev = -1;
  for (const TraceEvent& e : ring.snapshot()) {
    ++counts[static_cast<std::size_t>(e.kind)];
    EXPECT_GE(e.cycle, prev);  // emitted in causal (cycle) order
    prev = e.cycle;
  }
  const auto count = [&](TraceEventKind k) {
    return counts[static_cast<std::size_t>(k)];
  };
  const Network::Counters& c = sim.network().counters();
  EXPECT_EQ(count(TraceEventKind::MessageInjected), c.injected);
  EXPECT_EQ(count(TraceEventKind::MessageDelivered), c.delivered);
  EXPECT_EQ(count(TraceEventKind::MessageRemoved), c.recovered);
  EXPECT_EQ(count(TraceEventKind::FlitDelivered), c.flits_delivered);
  EXPECT_GT(count(TraceEventKind::FlitHopped), 0);
  EXPECT_GT(count(TraceEventKind::DeadlockDetected), 0);
  EXPECT_EQ(count(TraceEventKind::DeadlockRecovered),
            count(TraceEventKind::DeadlockDetected));
  // Every blocked episode that ended produced exactly one unblock or removal.
  EXPECT_GE(count(TraceEventKind::MessageBlocked),
            count(TraceEventKind::MessageUnblocked));
  // Dashed arcs are balanced up to the ones still open at the end.
  EXPECT_GE(count(TraceEventKind::CwgArcAdded),
            count(TraceEventKind::CwgArcRemoved));
}

TEST(LiveTracing, DisabledTracerChangesNothing) {
  ExperimentConfig cfg = deadlocky_config();
  const ExperimentResult untraced = run_experiment(cfg);
  cfg.trace.forensics = true;
  const ExperimentResult traced = run_experiment(cfg);
  EXPECT_EQ(untraced.window.generated, traced.window.generated);
  EXPECT_EQ(untraced.window.delivered, traced.window.delivered);
  EXPECT_EQ(untraced.window.deadlocks, traced.window.deadlocks);
}

TEST(Forensics, RecordsFormationOfRealDeadlocks) {
  ExperimentConfig cfg = deadlocky_config();
  cfg.trace.forensics = true;
  const ExperimentResult result = run_experiment(cfg);
  ASSERT_GT(result.window.deadlocks, 0);
  ASSERT_FALSE(result.forensics.empty());

  for (const ForensicsReport& report : result.forensics) {
    EXPECT_GT(report.detected_at, 0);
    EXPECT_GT(report.knot_size, 0);
    ASSERT_FALSE(report.members.empty());
    EXPECT_NE(report.victim, kInvalidMessage);
    // Closure order is sorted by when each member's blocked episode began.
    for (std::size_t i = 1; i < report.members.size(); ++i) {
      EXPECT_LE(report.members[i - 1].blocked_since,
                report.members[i].blocked_since);
    }
    bool victim_in_set = false;
    for (const ForensicsMember& m : report.members) {
      EXPECT_FALSE(m.held.empty());
      EXPECT_FALSE(m.requests.empty());
      // The default ring is deep enough to cover each member's history.
      EXPECT_GE(m.last_progress, 0);
      EXPECT_LE(m.last_progress, report.detected_at);
      victim_in_set |= (m.id == report.victim);
    }
    EXPECT_TRUE(victim_in_set);
    EXPECT_NE(report.dot.find("digraph"), std::string::npos);

    const std::string text = format_forensics_report(report);
    EXPECT_NE(text.find("formation forensics"), std::string::npos);
    EXPECT_NE(text.find("last progress"), std::string::npos);
  }
}

TEST(TraceConfig, PointSuffixKeepsFilesDistinct) {
  TraceConfig base;
  base.chrome_path = "out.json";
  base.binary_path = "out.bin";
  base.forensics_dot_prefix = "dl_";
  const TraceConfig p2 = base.with_point_suffix(2);
  EXPECT_EQ(p2.chrome_path, "out.json.p2");
  EXPECT_EQ(p2.binary_path, "out.bin.p2");
  EXPECT_EQ(p2.forensics_dot_prefix, "dl_.p2.");
  EXPECT_FALSE(TraceConfig{}.enabled());
  EXPECT_TRUE(p2.enabled());
}

TEST(TraceCli, FlagsReachTraceConfig) {
  const char* argv[] = {"prog",  "--trace-chrome", "t.json", "--trace-bin",
                        "t.bin", "--forensics"};
  const auto opts = Options::parse(6, argv);
  ASSERT_TRUE(opts.has_value());
  const ExperimentConfig cfg = experiment_from_options(*opts);
  EXPECT_EQ(cfg.trace.chrome_path, "t.json");
  EXPECT_EQ(cfg.trace.binary_path, "t.bin");
  EXPECT_TRUE(cfg.trace.forensics);
}

}  // namespace
}  // namespace flexnet
