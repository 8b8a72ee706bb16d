// flexnet-inspect FILE...: one reader for every file flexnet writes. Each
// file is sniffed by its magic and shown by its format's view; a flag that no
// given file's format reads is an error. With no file, --topology describes
// a generated topology and --spec a built-in pace spec. Exits 1 when a file
// fails to read (or, with --replay, a capture fails to reproduce its verdict
// or to stay frozen), printing "path: what" or "path:line: what".
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flexnet.hpp"

namespace {

using namespace flexnet;

enum class FileFormat : std::uint8_t {
  Snapshot,
  BinaryTrace,
  Manifest,
  Metrics,
  Trace,
  Pace,
  Topology,
  kCount_,
};

/// Each format's magic, which is its name, and the flags its view reads.
constexpr std::pair<std::string_view, std::string_view> kFileFormatInfo[] = {
    {kSnapshotMagic, "--replay"},
    {kBinaryTraceMagic, "--stats --message M --kind K --from C --to C --tail N"},
    {kManifestSchema, "--hot"},
    {kMetricsSchema, "--follow --summary --idle-limit SECONDS"},
    {kTraceMagic, "--head N"},
    {kPaceMagic, ""},
    {kTopoFileMagic, "--dot FILE --emit FILE"},
};
constexpr std::size_t kNumFileFormats = std::size(kFileFormatInfo);
static_assert(kNumFileFormats == static_cast<std::size_t>(FileFormat::kCount_));

constexpr std::string_view to_string(FileFormat format) noexcept {
  return kFileFormatInfo[static_cast<std::size_t>(format)].first;
}

constexpr std::array<FileFormat, kNumFileFormats> all_file_formats() noexcept {
  std::array<FileFormat, kNumFileFormats> all{};
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<FileFormat>(i);
  }
  return all;
}

/// printf arguments: %s of a to_string() view; %lld and %llu/%llx of the
/// (u)int64_t counters and hashes, which need not be (unsigned) long long.
std::string name(auto value) { return std::string(to_string(value)); }
constexpr long long lld(std::int64_t v) noexcept { return v; }
constexpr unsigned long long llu(std::uint64_t v) noexcept { return v; }

/// The "schema" string of a JSON document's opening record, or "". `text`
/// holds a file's first two lines: a metrics stream's header record is line
/// 1; a manifest is pretty-printed, its schema on line 2.
std::string schema_of(std::string_view text) {
  const std::size_t open = text.find_first_not_of(" \t\r\n");
  const std::size_t key = text.find("\"schema\"");
  if (open == text.npos || text[open] != '{' || key == text.npos) return "";
  const std::size_t quote = text.find_first_not_of(" \t:", key + 8);
  const std::size_t end = text.find('"', quote + 1);
  if (quote == text.npos || text[quote] != '"' || end == text.npos) return "";
  return std::string(text.substr(quote + 1, end - quote - 1));
}

FileFormat sniff(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open");
  std::string head(kBinaryTraceHeaderSize, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(in.gcount()));
  for (const FileFormat f : {FileFormat::Snapshot, FileFormat::BinaryTrace}) {
    if (head.starts_with(to_string(f))) return f;
  }
  in.clear();
  in.seekg(0);
  std::string line1, line2, magic;
  std::getline(in, line1);
  std::getline(in, line2);
  std::istringstream(line1) >> magic;
  const std::string schema = schema_of(line1 + "\n" + line2);
  std::string expected;
  for (const FileFormat f : all_file_formats()) {
    if (magic == to_string(f) || schema == to_string(f)) return f;
    expected += (expected.empty() ? "" : ", ") + name(f);
  }
  throw std::runtime_error("unknown format (expected one of " + expected + ")");
}

/// The views' flags, read once for every file of their format.
struct Flags {
  bool replay = false, stats = false, hot = false, follow = false;
  bool summary = false;
  TraceEventKind kind = TraceEventKind::kCount_;
  long long message = -1, from = -1, to = -1, tail = -1, idle_limit = 30;
  long long head = 0;
  std::string dot, emit;
};

void read_flags(const Options& opts, FileFormat format, Flags& f) {
  switch (format) {
    case FileFormat::Snapshot: f.replay = opts.get_bool("replay", false); break;
    case FileFormat::BinaryTrace:
      if (opts.has("kind")) {
        f.kind = parse_trace_event_kind(opts.get("kind"));
        if (f.kind == TraceEventKind::kCount_) {
          throw std::invalid_argument("unknown event kind: " +
                                      opts.get("kind"));
        }
      }
      f.message = opts.get_int("message", -1);
      f.from = opts.get_int("from", -1);
      f.to = opts.get_int("to", -1);
      f.tail = opts.get_int("tail", -1);
      f.stats = opts.get_bool("stats", false);
      break;
    case FileFormat::Manifest: f.hot = opts.get_bool("hot", false); break;
    case FileFormat::Metrics:
      f.follow = opts.get_bool("follow", false);
      f.summary = opts.get_bool("summary", false);
      f.idle_limit = opts.get_int("idle-limit", 30);
      break;
    case FileFormat::Trace: f.head = opts.get_int("head", 0); break;
    case FileFormat::Topology:
      f.dot = opts.get("dot");
      f.emit = opts.get("emit");
      break;
    default: break;
  }
}

// --- flexnet-snap ------------------------------------------------------------
constexpr int kFreezeCycles = 5000;  // the window EXPERIMENTS D1 cites

void print_snapshot(const std::string& path, const Snapshot& snap) {
  const SnapshotMeta& m = snap.meta;
  const SimConfig& sim = snap.sim;
  std::printf("%s\n", path.c_str());
  std::printf("  version     %u\n", snap.version);
  const bool capture = m.kind == SnapshotKind::DeadlockCapture;
  std::printf("  kind        %s\n",
              capture ? "deadlock-capture" : "checkpoint");
  std::printf("  cycle       %lld (%s; warmup %lld, measure %lld)\n",
              lld(m.cycle), m.measuring ? "measuring" : "warmup",
              lld(m.warmup), lld(m.measure));
  if (sim.topo_kind == TopoKind::Torus) {
    std::printf("  topology    %d-ary %d-cube %s %s, %d VC(s), depth %d\n",
                sim.topology.k, sim.topology.n,
                sim.topology.bidirectional ? "bidirectional" : "unidirectional",
                sim.topology.wrap ? "torus" : "mesh", sim.vcs,
                sim.buffer_depth);
  } else {
    std::printf("  topology    %s", snap.topo.name.c_str());
    if (snap.topo.present) {
      std::printf(" (%d nodes, %zu links embedded, hash %016llx)",
                  snap.topo.nodes, snap.topo.links.size(),
                  llu(snap.topo.content_hash));
    }
    std::printf(", %d VC(s), depth %d\n", sim.vcs, sim.buffer_depth);
  }
  std::printf("  routing     %s / %s, recovery %s\n", name(sim.routing).c_str(),
              name(sim.selection).c_str(),
              name(snap.detector.recovery).c_str());
  std::printf("  traffic     %s load %.3f seed %llu\n",
              name(snap.traffic.pattern).c_str(), snap.traffic.load,
              llu(sim.seed));
  if (snap.workload.kind == WorkloadKind::Trace) {
    std::printf("  workload    trace:%s\n", snap.workload.trace_path.c_str());
  } else if (snap.workload.kind == WorkloadKind::Paced) {
    std::printf("  workload    pace:%s\n", snap.workload.pace_spec.c_str());
  }
  std::printf("  state bytes net %zu / inj %zu / det %zu / metrics %zu\n",
              snap.network_state.size(), snap.injection_state.size(),
              snap.detector_state.size(), snap.metrics_state.size());
  if (capture) {
    std::printf("  knot        set %d, resources %d, VCs %d, density %lld, "
                "hash %016llx\n",
                m.deadlock_set_size, m.resource_set_size, m.knot_size,
                lld(m.knot_cycle_density), llu(m.cwg_hash));
  }
}

/// --replay re-detects each capture's knot, then steps the restored network
/// kFreezeCycles cycles with no injection and no recovery: a true deadlock's
/// members never acquire, release, send or deliver again.
void view_snapshot(const std::string& path, const Flags& f) {
  const Snapshot snap = read_snapshot_file(path);
  print_snapshot(path, snap);
  if (!f.replay) return;
  if (snap.meta.kind != SnapshotKind::DeadlockCapture) {
    std::printf("  replay      skipped (not a deadlock capture)\n");
    return;
  }
  const ReplayResult r = replay_capture(snap);
  if (!r.matches) throw std::runtime_error("replay MISMATCH: " + r.detail);
  std::printf("  replay      OK: set %d, resources %d, VCs %d, hash %016llx\n",
              r.deadlock_set_size, r.resource_set_size, r.knot_size,
              llu(r.cwg_hash));
  RestoredSim sim = restore_snapshot(snap);
  std::vector<Message> before;
  for (const MessageId id : r.deadlock_set) {
    before.push_back(sim.net->message(id));
  }
  for (int cycle = 1; cycle <= kFreezeCycles; ++cycle) {
    sim.net->step();
    for (const Message& was : before) {
      const Message& m = sim.net->message(was.id);
      if (m.status != was.status || m.held != was.held ||
          m.flits_sent != was.flits_sent ||
          m.flits_delivered != was.flits_delivered) {
        throw std::runtime_error("freeze check: message " +
                                 std::to_string(was.id) + " moved in cycle " +
                                 std::to_string(cycle));
      }
    }
  }
  std::printf("  freeze      frozen %d cycles\n", kFreezeCycles);
}

// --- flexnet-btrace ----------------------------------------------------------
void view_binary_trace(const std::string& path, const Flags& f) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<TraceEvent> events = read_binary_trace(in, path);
  std::vector<TraceEvent> selected;
  for (const TraceEvent& e : events) {
    if ((f.kind == TraceEventKind::kCount_ || e.kind == f.kind) &&
        (f.message < 0 || e.message == f.message) &&
        (f.from < 0 || e.cycle >= f.from) && (f.to < 0 || e.cycle <= f.to)) {
      selected.push_back(e);
    }
  }
  if (f.tail >= 0 && selected.size() > static_cast<std::size_t>(f.tail)) {
    selected.erase(selected.begin(),
                   selected.end() - static_cast<std::ptrdiff_t>(f.tail));
  }
  std::printf("%s: %zu events total, %zu selected\n", path.c_str(),
              events.size(), selected.size());
  if (f.stats) {
    std::array<long long, kNumTraceEventKinds> counts{};
    for (const TraceEvent& e : selected) ++counts[static_cast<int>(e.kind)];
    const bool none = selected.empty();
    std::printf("cycles [%lld, %lld]\n",
                lld(none ? -1 : selected.front().cycle),
                lld(none ? -1 : selected.back().cycle));
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      std::printf("  %-18s %lld\n",
                  name(static_cast<TraceEventKind>(i)).c_str(), counts[i]);
    }
    return;
  }
  for (const TraceEvent& e : selected) {
    std::printf("@%-8lld %-18s", lld(e.cycle), name(e.kind).c_str());
    if (e.message != kInvalidMessage) std::printf(" m%lld", lld(e.message));
    if (e.vc != kInvalidVc) std::printf(" vc%d", e.vc);
    if (e.vc2 != kInvalidVc) std::printf(" <-vc%d", e.vc2);
    if (e.node != kInvalidNode) std::printf(" @n%d", e.node);
    if (e.arg != 0) std::printf(" arg=%d", e.arg);
    std::printf("\n");
  }
}

// --- flexnet-telemetry-v1 manifests and flexnet-metrics-v2 streams -----------
double num(const JsonValue& o, std::string_view k) { return o[k].number; }
long long integer(const JsonValue& o, std::string_view k) {
  return o[k].as_int();
}
std::string str(const JsonValue& o, std::string_view k) {
  return o[k].is_string() ? o[k].string : "?";
}

void print_manifest(const JsonValue& root) {
  const JsonValue& sim = root.at("config").at("sim");
  const JsonValue& traffic = root.at("config").at("traffic");
  const JsonValue& topology = root["topology"];
  const JsonValue& result = root.at("result");
  const JsonValue& window = result.at("window");
  const JsonValue& heatmap = root.at("heatmap");
  std::printf("schema    %s  (build %s)\n", str(root, "schema").c_str(),
              str(root["build"], "git_sha").c_str());
  std::printf("network   %s (%lld nodes, hash %016llx), %lld VC(s), "
              "depth %lld, %s\n",
              str(topology, "name").c_str(), integer(topology, "nodes"),
              llu(topology["content_hash"].as_uint()),
              integer(sim, "vcs"), integer(sim, "buffer_depth"),
              str(sim, "routing").c_str());
  std::printf("traffic   %s @ load %.4f (seed %llu)\n",
              str(traffic, "pattern").c_str(), num(traffic, "load"),
              llu(sim["seed"].as_uint()));
  std::printf("result    norm throughput %.4f, accepted %.4f%s\n",
              num(result, "normalized_throughput"),
              num(result, "accepted_ratio"),
              result.at("saturated").boolean ? ", SATURATED" : "");
  std::printf("          deadlocks %lld, avg latency %.1f\n",
              integer(window, "deadlocks"), num(window, "avg_latency"));
  if (const JsonValue* m = root.find("metrics")) {
    std::printf("metrics   %lld samples every %lld cycles, %lld warning(s)"
                "%s%s\n",
                integer(*m, "samples"), integer(*m, "interval"),
                integer(*m, "warnings"), m->find("path") ? ", stream " : "",
                (*m)["path"].string.c_str());
  }
  std::printf("heatmap   %lld traversals, %lld blocked cycles, "
              "%lld injection-stall cycles\n",
              integer(heatmap, "total_traversals"),
              integer(heatmap, "total_blocked_cycles"),
              integer(heatmap, "total_injection_stall_cycles"));
  std::printf("profile   %.3f ms total\n",
              num(root.at("profile"), "total_ns") / 1e6);
}

void print_hot_channels(const JsonValue& root) {
  std::printf("%8s %6s %6s %4s %4s %12s %12s %12s\n", "channel", "src", "dst",
              "dim", "dir", "traversals", "busy", "blocked");
  for (const JsonValue& c : root.at("heatmap").at("hot_channels").array) {
    std::printf("%8lld %6lld %6lld %4lld %4lld %12lld %12lld %12lld\n",
                integer(c, "channel"), integer(c, "src"), integer(c, "dst"),
                integer(c, "dim"), integer(c, "dir"), integer(c, "traversals"),
                integer(c, "busy_cycles"), integer(c, "blocked_cycles"));
  }
}

/// Manifests after the first are set off by a blank line; `headed` puts
/// each one's path above it.
void view_manifest(const std::string& path, const Flags& f, bool headed,
                   int& shown) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = JsonValue::parse(text.str());
  if (shown++ > 0) std::printf("\n");
  if (headed) std::printf("== %s ==\n", path.c_str());
  f.hot ? print_hot_channels(root) : print_manifest(root);
}

void print_metrics_header(const JsonValue& header) {
  std::printf("# interval %lld, warn threshold %g, stall ref %lld, "
              "%lld node(s) / %lld VC(s)\n",
              integer(header, "interval"), num(header, "warn_threshold"),
              integer(header, "stall_ref"), integer(header, "nodes"),
              integer(header, "vcs"));
  std::printf("%10s %9s %5s %9s %9s %7s %7s %7s %9s %9s %6s %5s  %s\n",
              "cycle", "score", "warn", "stall_max", "stall_hwm", "blocked",
              "reqarc", "comp", "delivered", "lat_p99", "active", "knots",
              "classes");
}

void print_metrics_sample(const JsonValue& rec) {
  // Nonzero per-class deliveries, e.g. "bulk=41 burst=9"; class_delivered
  // is in class_index order.
  const JsonValue& delivered = rec["class_delivered"];
  std::string classes;
  for (const MessageClass cls : all_message_classes()) {
    const std::size_t k = class_index(cls);
    if (k >= delivered.array.size()) break;
    const long long n = delivered.array[k].as_int();
    if (n == 0) continue;
    classes += (classes.empty() ? "" : " ") + name(cls) + "=" +
               std::to_string(n);
  }
  std::printf("%10lld %9.4f %5s %9lld %9lld %7lld %7lld %7lld %9lld %9.1f "
              "%6lld %5lld  %s\n",
              integer(rec, "cycle"), num(rec, "score"),
              rec["warning"].boolean ? "WARN" : "",
              integer(rec, "max_stall_age"), integer(rec, "stall_hwm"),
              integer(rec, "blocked"), integer(rec, "request_arcs"),
              integer(rec, "largest_component"), integer(rec, "delivered"),
              num(rec, "latency_p99"), integer(rec, "active_routers"),
              integer(rec, "det_knots"), classes.c_str());
}

void print_metrics_final(const JsonValue& rec) {
  std::printf("final: %lld sample(s), %lld warning(s), peak score %.4f\n",
              integer(rec, "samples"), integer(rec, "warnings"),
              num(rec, "peak_score"));
  std::printf("       first warning @ %lld, first confirmation @ %lld, "
              "lead %lld cycle(s)\n",
              integer(rec, "first_warning_cycle"),
              integer(rec, "first_confirmation_cycle"),
              integer(rec, "lead_cycles"));
  if (const JsonValue* latency = rec.find("latency")) {
    std::printf("       latency p50 %.1f / p99 %.1f / p999 %.1f / max %lld "
                "(%lld delivered)\n",
                num(*latency, "p50"), num(*latency, "p99"),
                num(*latency, "p999"), integer(*latency, "max"),
                integer(*latency, "count"));
  }
  if (const JsonValue* stall = rec.find("stall_age")) {
    std::printf("       stall age p50 %.1f / p99 %.1f / max %lld, hwm %lld\n",
                num(*stall, "p50"), num(*stall, "p99"), integer(*stall, "max"),
                integer(rec, "stall_hwm"));
  }
  for (const auto& [cls_name, cls] : rec["classes"].object) {
    if (integer(cls, "delivered") == 0) continue;
    std::printf("       class %-11s %lld delivered, latency p50 %.1f / "
                "p99 %.1f / max %lld\n",
                cls_name.c_str(), integer(cls, "delivered"),
                num(cls, "latency_p50"), num(cls, "latency_p99"),
                integer(cls, "latency_max"));
  }
}

/// --follow polls for growth until the final record, or gives up after
/// --idle-limit seconds without growth (0 = never).
void view_metrics(const std::string& path, const Flags& f) {
  using Record = MetricsStreamReader::Record;
  std::ifstream in(path, std::ios::binary);
  MetricsStreamReader reader(in, path);
  JsonValue rec, last_sample;
  long long idle_polls = 0;
  for (;;) {
    const std::optional<Record> record = reader.next(rec);
    if (!record) {  // the end of the stream so far
      if (!f.follow) break;
      if (f.idle_limit > 0 && ++idle_polls > f.idle_limit * 5) {
        std::fprintf(stderr, "%s: no growth for %llds, giving up\n",
                     path.c_str(), f.idle_limit);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    idle_polls = 0;
    if (*record == Record::Header) {
      if (!f.summary) print_metrics_header(rec);
    } else if (*record == Record::Sample && f.summary) {
      last_sample = std::move(rec);
    } else if (*record == Record::Sample) {
      print_metrics_sample(rec);
    } else {
      print_metrics_final(rec);
      if (f.follow) break;
    }
  }
  if (f.summary && !reader.finished() && last_sample.is_object()) {
    std::printf("(no final record yet) last sample:\n");
    print_metrics_header(JsonValue{});
    print_metrics_sample(last_sample);
  }
}

// --- flexnet-trace-v1 and flexnet-pace-v1 ------------------------------------
void view_trace(const std::string& path, const Flags& f) {
  const TraceData data = read_trace_file(path);
  const TraceHeader& h = data.header;
  std::printf("flexnet-trace-v1: %s\n", path.c_str());
  std::printf("  nodes           %d\n", h.nodes);
  std::printf("  pattern         %s (load %g)\n",
              name(h.traffic.pattern).c_str(), h.traffic.load);
  if (h.traffic.hybrid_fraction > 0.0) {
    std::printf("  hybrid          %.0f%% %s\n",
                h.traffic.hybrid_fraction * 100.0,
                name(h.traffic.hybrid_with).c_str());
  }
  std::printf("  avg distance    %g\n", h.avg_distance);
  std::printf("  capacity        %g flits/node/cycle\n", h.capacity);
  std::printf("  offered         %g flits/node/cycle\n", h.offered);
  std::printf("  records         %zu\n", data.records.size());
  std::printf("  content hash    %016llx\n", llu(data.content_hash()));
  if (!data.records.empty()) {
    const Cycle first = data.records.front().cycle;
    const Cycle last = data.records.back().cycle;
    double flits = 0;
    long long by_class[kNumMessageClasses] = {};
    for (const TraceRecord& r : data.records) {
      flits += r.length;
      ++by_class[class_index(r.cls)];
    }
    std::printf("  cycle span      %lld..%lld\n", lld(first), lld(last));
    if (last > first) {
      const double cycles = static_cast<double>(last - first + 1);
      std::printf("  mean rate       %.4f msg/cycle, %.4f flits/node/cycle\n",
                  static_cast<double>(data.records.size()) / cycles,
                  flits / cycles / h.nodes);
    }
    std::printf("  class mix      ");
    for (const MessageClass cls : all_message_classes()) {
      const long long n = by_class[class_index(cls)];
      if (n > 0) std::printf(" %s=%lld", name(cls).c_str(), n);
    }
    std::printf("\n");
  }
  const std::size_t shown = static_cast<std::size_t>(
      std::clamp<long long>(f.head, 0, data.records.size()));
  for (std::size_t i = 0; i < shown; ++i) {
    const TraceRecord& r = data.records[i];
    std::printf("  msg %lld %d -> %d len %d %s\n", lld(r.cycle), r.src, r.dst,
                r.length, name(r.cls).c_str());
  }
}

void print_pace(const PaceProfile& profile, const std::string& origin) {
  std::printf("flexnet-pace-v1: %s\n", origin.c_str());
  std::printf("  phases          %zu (%s)\n", profile.phases().size(),
              profile.repeat() ? "repeating" : "clamp at end");
  std::printf("  mean multiplier %.4f\n", profile.mean_multiplier());
  std::printf("  max multiplier  %.4f\n", profile.max_multiplier());
  std::printf("  content hash    %016llx\n", llu(profile.content_hash()));
  Cycle at = 0;
  for (const PacePhase& p : profile.phases()) {
    std::printf("  phase @%-8lld %lld cycle(s), rate %g -> %g, class %s\n",
                lld(at), lld(p.cycles), p.rate0, p.rate1, name(p.cls).c_str());
    at += p.cycles;
  }
}

// --- flexnet-topo-v1 files and generated topologies --------------------------
void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
}

/// Counts, average distance, content hash and out-degree histogram. --dot
/// writes Graphviz; --emit writes flexnet-topo-v1 text (any family, torus
/// included, so generated networks can be committed as files).
void view_topology(const SimConfig& cfg, const Flags& f) {
  const auto topo = make_topology(cfg);
  std::printf("%s\n", topo->name().c_str());
  std::printf("  kind          %s\n", name(topo->kind()).c_str());
  std::printf("  nodes         %d\n", topo->num_nodes());
  std::printf("  channels      %zu\n", topo->channels().size());
  std::printf("  avg distance  %.4f\n", topo->average_distance());
  std::printf("  content hash  %016llx\n", llu(topo->content_hash()));
  std::map<std::size_t, int> histogram;  // out-degree -> node count
  for (NodeId v = 0; v < topo->num_nodes(); ++v) {
    ++histogram[topo->out_channels(v).size()];
  }
  std::printf("  degree histogram (out)\n");
  for (const auto& [degree, count] : histogram) {
    std::printf("    %3zu: %d node(s)\n", degree, count);
  }
  if (!f.dot.empty()) {
    write_file(f.dot, topology_to_dot(*topo));
    std::printf("DOT written to %s\n", f.dot.c_str());
  }
  if (!f.emit.empty()) {
    GraphTopology::Spec spec;
    spec.kind = topo->kind() == TopoKind::Torus ? TopoKind::File : topo->kind();
    spec.name = topo->name();
    spec.nodes = topo->num_nodes();
    for (const ChannelDesc& ch : topo->channels()) {
      spec.links.push_back({ch.src, ch.dst, ch.width});
    }
    write_file(f.emit, write_topology_text(spec));
    std::printf("flexnet-topo-v1 written to %s\n", f.emit.c_str());
  }
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: flexnet-inspect FILE... [flags of its format]\n"
               "       flexnet-inspect --topology KIND [generator flags] "
               "[--dot FILE] [--emit FILE]\n"
               "       flexnet-inspect --spec 'burst(period,duty,peak)'\n");
  for (const auto& [magic, flags] : kFileFormatInfo) {
    std::fprintf(out, "  %-21s %s\n", std::string(magic).c_str(),
                 std::string(flags).c_str());
  }
}

/// "path: what", unless the reader already located `what` in `path`.
std::string located(const std::string& path, const std::string& what) {
  return what.starts_with(path + ":") ? what : path + ": " + what;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto opts = Options::parse(argc, argv, &error);
  if (!opts) {
    std::fprintf(stderr, "argument error: %s\n", error.c_str());
    return 1;
  }
  // Sniff every file first: the flags read are those of the formats present.
  const std::vector<std::string>& paths = opts->positional();
  std::array<bool, kNumFileFormats> present{};
  for (const std::string& path : paths) {
    try {
      present[static_cast<std::size_t>(sniff(path))] = true;
    } catch (const std::exception&) {}  // reported in the file's turn
  }
  Flags flags;
  SimConfig generated;  // --topology with no file
  try {
    for (const FileFormat format : all_file_formats()) {
      if (present[static_cast<std::size_t>(format)]) {
        read_flags(*opts, format, flags);
      }
    }
    if (paths.empty() && opts->has("topology")) {
      topology_from_options(*opts, generated);
      read_flags(*opts, FileFormat::Topology, flags);
    } else if (paths.empty() && !opts->has("spec")) {
      const bool help = opts->get_bool("help", false);
      print_usage(help ? stdout : stderr);
      return help ? 0 : 1;
    }
    opts->reject_unread();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  bool ok = true;
  const auto guarded = [&ok](const std::string& path, const auto& view) {
    try {
      view();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", located(path, e.what()).c_str());
      ok = false;
    }
  };
  if (paths.empty()) {  // a generated input has no path: "error: what"
    guarded("error", [&] {
      if (opts->has("spec")) {
        print_pace(parse_pace_spec(opts->get("spec")), opts->get("spec"));
      } else {
        view_topology(generated, flags);
      }
    });
  }
  int manifests = 0;
  for (const std::string& path : paths) {
    guarded(path, [&] {
      SimConfig file;
      switch (sniff(path)) {
        case FileFormat::Snapshot: return view_snapshot(path, flags);
        case FileFormat::BinaryTrace: return view_binary_trace(path, flags);
        case FileFormat::Manifest:
          return view_manifest(path, flags, paths.size() > 1, manifests);
        case FileFormat::Metrics: return view_metrics(path, flags);
        case FileFormat::Trace: return view_trace(path, flags);
        case FileFormat::Pace: return print_pace(load_pace_file(path), path);
        case FileFormat::Topology:
          file.topo_kind = TopoKind::File;
          file.topo_file = path;
          return view_topology(file, flags);
        case FileFormat::kCount_: break;
      }
    });
  }
  return ok ? 0 : 1;
}
