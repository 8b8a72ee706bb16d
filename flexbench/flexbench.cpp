// flexbench — end-to-end and per-layer benchmark program for flexnet.
//
// Runs one named workload repeatedly for a host-time budget and prints one
// JSON object per line on stdout. An untraced operation goes through
// Simulation::run(), exactly as sweep_cli does, and yields the end-to-end
// timings. A traced operation builds the same simulation from public parts,
// drives the cycle loop of Simulation::run_cycles itself and records a span
// around every call into a layer. The spans stay in memory and are written
// out when the run ends. Before each untraced operation the program times a
// fixed reference kernel, which tracks how fast the shared host runs it right
// now; run.py scales the operation's times by it. Every operation is checked
// (invariants, counter conservation, knots confirmed, capture replays), and
// with --trace 1 each traced operation must reproduce the digest of the
// untraced operation of the same seed.
//
//   flexbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--smoke] [--interval N] [--spans FILE]
//   flexbench replay FILE...
//
// flexbench/run.py builds this program, turns its lines into the benchmark's
// metrics and prints the result; flexbench/README.md describes both.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "exp/cli.hpp"
#include "exp/experiment.hpp"
#include "metrics/metrics.hpp"
#include "obs/obs.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"
#include "snapshot/corpus.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/telemetry.hpp"
#include "topo/factory.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace fs = std::filesystem;
using namespace flexnet;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of every thread of this process.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- host speed --------------------------------------------------------------

/// Fixed work that shares no code with flexnet: fill 100,000 keys from a fixed
/// xorshift stream and sort them (about 10 ms). The host this benchmark runs on
/// is shared, and for tens of seconds at a time it runs the same process up to
/// 1.5x slower; the kernel slows with it. run.py scales every operation's
/// times by the kernel's time just before the operation.
double reference_kernel_s() {
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> keys(100000);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t& key : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  const double s = seconds_since(t0);
  if (!std::is_sorted(keys.begin(), keys.end())) {
    throw std::logic_error("reference kernel: keys not sorted");
  }
  return s;
}

/// Median of `reps` reference_kernel_s() calls.
double reference_s(int reps) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) times.push_back(reference_kernel_s());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// --- workloads ---------------------------------------------------------------

// Why each workload exists, and which layers it exercises or bypasses, is in
// flexbench/README.md. The flags are sweep_cli's spelling.
struct Workload {
  std::string_view name;
  std::vector<std::string> flags;
  Cycle warmup;
  Cycle measure;
  Cycle smoke_measure;  ///< --smoke: this many cycles, no warmup.
  /// Host seconds of one untraced operation (replays included) on the 4-vCPU
  /// host the benchmark was sized on. A run of S seconds does S / op_s
  /// operations whatever the host's speed, so every host runs the same seeds.
  double op_s;
  /// Reference kernel calls before each untraced operation (their median is
  /// the operation's ref_s): one for short operations, more for long ones.
  int ref_reps;
  int shards;          ///< 0 = serial engine; capped at the host's cores - 1.
  bool expect_knots;   ///< Every run must confirm at least one knot.
  bool capture;        ///< Knot capture + metrics stream + manifest + replay.
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"paper-16x2-sat",
       {"--k", "16", "--n", "2", "--routing", "TFAR", "--vcs", "1", "--buffer",
        "2", "--length", "32", "--traffic", "Uniform", "--load", "0.5",
        "--interval", "50", "--recovery", "RemoveOldest"},
       500, 2000, 1000, 0.3, 1, 0, true, false},
      {"torus-32x3-shards3",
       {"--k", "32", "--n", "3", "--routing", "TFAR", "--vcs", "2", "--traffic",
        "Uniform", "--load", "0.5", "--interval", "50"},
       100, 200, 50, 5.5, 9, 3, false, false},
      {"burst-32x3-capture",
       {"--k", "32", "--n", "3", "--uni", "--routing", "DOR", "--vcs", "1",
        "--workload", "pace:burst(200,0.2,4)", "--load", "0.1", "--interval",
        "50", "--capture-limit", "4", "--metrics-interval", "50"},
       200, 1200, 300, 2.8, 5, 3, true, true},
  };
  return table;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  long long interval = -1;  ///< Detector interval override (-1 = workload's).
  std::string work_dir;
  std::string spans_path;
};

ExperimentConfig make_config(const Workload& w, const Args& args,
                             int shards) {
  std::vector<std::string> argv = {"flexbench"};
  argv.insert(argv.end(), w.flags.begin(), w.flags.end());
  auto add = [&](std::string key, std::string value) {
    argv.push_back("--" + std::move(key));
    argv.push_back(std::move(value));
  };
  add("seed", std::to_string(args.seed));
  add("warmup", std::to_string(args.smoke ? 0 : w.warmup));
  add("measure", std::to_string(args.smoke ? w.smoke_measure : w.measure));
  if (args.interval >= 0) add("interval", std::to_string(args.interval));
  if (w.capture) {
    add("capture-deadlocks", args.work_dir + "/corpus");
    add("metrics", args.work_dir + "/metrics.ndjson");
    add("telemetry-json", args.work_dir + "/manifest.json");
  }
  std::vector<const char*> ptrs;
  for (const std::string& s : argv) ptrs.push_back(s.c_str());
  std::string error;
  const auto opts =
      Options::parse(static_cast<int>(ptrs.size()), ptrs.data(), &error);
  if (!opts) throw std::invalid_argument("workload flags: " + error);
  ExperimentConfig cfg = experiment_from_options(*opts);
  cfg.run.shards = shards;
  return cfg;
}

// --- checks ------------------------------------------------------------------

/// FNV-1a over the deterministic outcome of a run: network counters, detector
/// totals and every deadlock record. Equal for any two runs of one config and
/// seed, traced or not, at any shard count >= 1.
class Digest {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= (u >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string run_digest(const Network& net, const DeadlockDetector& det) {
  Digest d;
  const Network::Counters& c = net.counters();
  d.add(net.now());
  for (const std::int64_t v :
       {c.generated, c.injected, c.delivered, c.recovered, c.flits_delivered,
        c.delivered_latency_sum, c.delivered_hops_sum}) {
    d.add(v);
  }
  for (std::size_t k = 0; k < kNumMessageClasses; ++k) {
    d.add(c.class_generated[k]);
    d.add(c.class_delivered[k]);
    d.add(c.class_recovered[k]);
    d.add(c.class_latency_sum[k]);
    d.add(det.class_participation()[k]);
  }
  for (const std::int64_t v :
       {det.total_deadlocks(), det.transient_knots(), det.livelocks(),
        det.invocations(), det.skipped_passes()}) {
    d.add(v);
  }
  for (const DeadlockRecord& r : det.records()) {
    for (const std::int64_t v :
         {std::int64_t{r.detected_at}, std::int64_t{r.deadlock_set_size},
          std::int64_t{r.resource_set_size}, std::int64_t{r.knot_size},
          std::int64_t{r.dependent_count}, r.knot_cycle_density,
          std::int64_t{r.density_capped}, std::int64_t{r.victim}}) {
      d.add(v);
    }
  }
  return d.hex();
}

/// Checks that hold for every correct run whatever the simulated values are;
/// none pins an output to a golden number. Returns the failures found.
std::vector<std::string> check_run(const Network& net,
                                   const DeadlockDetector& det,
                                   const Workload& w, int captured) {
  std::vector<std::string> failures;
  try {
    net.check_invariants();
  } catch (const std::exception& e) {
    failures.push_back(std::string("invariants: ") + e.what());
  }
  // Every generated message is queued or injected; every injected one is
  // delivered, recovered or still in the network.
  const Network::Counters& c = net.counters();
  const auto in_network =
      static_cast<std::int64_t>(net.active_messages().size());
  if (c.generated != c.injected + net.queued_message_count()) {
    failures.push_back("conservation: generated != injected + queued");
  }
  if (c.injected != c.delivered + c.recovered + in_network) {
    failures.push_back(
        "conservation: injected != delivered + recovered + in network");
  }
  std::int64_t gen = 0, del = 0, rec = 0;
  for (std::size_t k = 0; k < kNumMessageClasses; ++k) {
    gen += c.class_generated[k];
    del += c.class_delivered[k];
    rec += c.class_recovered[k];
  }
  if (gen != c.generated || del != c.delivered || rec != c.recovered) {
    failures.push_back("conservation: per-class counters do not sum");
  }
  if (w.expect_knots && det.total_deadlocks() < 1) {
    failures.push_back("knots: no knot confirmed in the measurement window");
  }
  if (w.capture && captured < 1) {
    failures.push_back("capture: no knot captured");
  }
  return failures;
}

// --- spans -------------------------------------------------------------------

enum class Layer : std::uint8_t {
  TopoBuild,
  Partition,
  Inject,
  Step,
  Detect,
  Capture,
  Telemetry,
  Obs,
  Metrics,
  Finalize,
  Replay,
  kCount
};

constexpr std::array<std::string_view, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"make_topology",         "Network::set_shards",
                   "InjectionProcess::tick", "Network::step",
                   "DeadlockDetector::tick", "DeadlockCorpus::on_knot",
                   "Telemetry::tick",        "ObsCollector::tick",
                   "MetricsCollector::sample", "finalize",
                   "replay_capture"};

struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< Index of the enclosing span, -1 at top level.
  Layer layer;
};

class SpanLog {
 public:
  void clear() {
    spans_.clear();
    open_ = -1;
    origin_ = Clock::now();
  }
  std::int32_t open(Layer layer) {
    spans_.push_back({now_ns(), 0, open_, layer});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  void close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome(std::ostream& out) const {
    JsonWriter json(out, 0);
    json.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.begin_object()
          .field("name", kLayerNames[static_cast<std::size_t>(s.layer)])
          .field("ph", "X")
          .field("ts", 1e-3 * static_cast<double>(s.start_ns))
          .field("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns))
          .field("pid", 1)
          .field("tid", 1)
          .key("args")
          .begin_object()
          .field("id", static_cast<std::int64_t>(i))
          .field("parent", s.parent)
          .end_object()
          .end_object();
    }
    json.end_array().end_object();
    out << '\n';
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  Clock::time_point origin_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer) : log_(log), id_(log.open(layer)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

struct SpanSummary {
  /// Self time per layer: a span's duration minus the spans nested in it.
  std::array<double, static_cast<std::size_t>(Layer::kCount)> busy_s{};
  std::vector<double> step_ms;  ///< Each Network::step.
  std::vector<double> pass_ms;  ///< Each detection pass, capture excluded.
  double loop_s = 0.0;          ///< Top-level spans of the cycle loop.
};

SpanSummary summarize(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  SpanSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self_s =
        1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    out.busy_s[static_cast<std::size_t>(s.layer)] += self_s;
    if (s.layer == Layer::Step) out.step_ms.push_back(1e3 * self_s);
    if (s.layer == Layer::Detect) out.pass_ms.push_back(1e3 * self_s);
    switch (s.layer) {
      case Layer::Inject:
      case Layer::Step:
      case Layer::Detect:
      case Layer::Telemetry:
      case Layer::Obs:
      case Layer::Metrics:
        if (s.parent < 0) {
          out.loop_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
        }
        break;
      default:
        break;
    }
  }
  return out;
}

/// Forwards knot captures to the corpus inside a span, and remembers how long
/// each call that wrote a snapshot took.
class TimedCapture final : public KnotCaptureHook {
 public:
  TimedCapture(DeadlockCorpus& corpus, SpanLog& log)
      : corpus_(corpus), log_(log) {}
  void on_knot(const Network& net, const Cwg& cwg, const Knot& knot,
               const DeadlockRecord& record) override {
    const int before = corpus_.captured();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(log_, Layer::Capture);
      corpus_.on_knot(net, cwg, knot, record);
    }
    if (corpus_.captured() > before) {
      write_ms.push_back(1e3 * seconds_since(t0));
    }
  }
  std::vector<double> write_ms;

 private:
  DeadlockCorpus& corpus_;
  SpanLog& log_;
};

// --- operations --------------------------------------------------------------

/// Prints one JSON line: {"op": kind, <fields>}.
template <typename Fill>
void emit(std::string_view kind, Fill&& fill) {
  std::ostringstream line;
  JsonWriter json(line, 0);
  json.begin_object().field("op", kind);
  fill(json);
  json.end_object();
  std::cout << line.str() << '\n' << std::flush;
}

void write_failures(JsonWriter& json,
                    const std::vector<std::string>& failures) {
  json.key("failures").begin_array();
  for (const std::string& f : failures) json.value(f);
  json.end_array();
}

std::vector<std::string> capture_files(const std::string& dir) {
  std::vector<std::string> files;
  if (!fs::is_directory(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Reads and re-verifies every capture, one operation each. Returns the
/// per-replay milliseconds.
std::vector<double> replay_all(const std::string& dir, SpanLog* log) {
  std::vector<double> ms;
  for (const std::string& path : capture_files(dir)) {
    std::vector<std::string> failures;
    const auto t0 = Clock::now();
    const std::int32_t span = log != nullptr ? log->open(Layer::Replay) : -1;
    try {
      const ReplayResult r = replay_capture(read_snapshot_file(path));
      if (!r.matches) failures.push_back("replay: " + r.detail);
    } catch (const std::exception& e) {
      failures.push_back(std::string("replay: ") + e.what());
    }
    if (log != nullptr) log->close(span);
    ms.push_back(1e3 * seconds_since(t0));
    emit("replay", [&](JsonWriter& json) {
      json.field("file", fs::path(path).filename().string())
          .field("ms", ms.back());
      write_failures(json, failures);
    });
  }
  return ms;
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// One untraced operation through Simulation::run(); returns its digest. The
/// replays that follow are operations of their own.
std::string untraced_op(const Workload& w, const ExperimentConfig& cfg,
                        bool replay) {
  if (w.capture) reset_dir(cfg.snapshot.capture_dir);
  const double ref_s = reference_s(w.ref_reps);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  auto sim = std::make_unique<Simulation>(cfg);
  const double setup_s = seconds_since(t0);
  const ExperimentResult result = sim->run();
  const double wall_s = seconds_since(t0);
  const double cpu_s = process_cpu_s() - cpu0;

  const std::vector<std::string> failures = check_run(
      sim->network(), sim->detector(), w, result.deadlocks_captured);
  const std::string digest = run_digest(sim->network(), sim->detector());
  const Cycle cycles = sim->network().now();
  sim.reset();
  emit("run", [&](JsonWriter& json) {
    json.field("traced", false)
        .field("seed", cfg.sim.seed)
        .field("ref_s", ref_s)
        .field("setup_s", setup_s)
        .field("wall_s", wall_s)
        .field("cpu_s", cpu_s)
        .field("cycles", std::int64_t{cycles})
        .field("digest", digest);
    write_failures(json, failures);
  });
  if (replay && w.capture) replay_all(cfg.snapshot.capture_dir, nullptr);
  return digest;
}

/// Only the construction of a Simulation, for more setup samples.
void setup_op(const Workload& w, const ExperimentConfig& cfg) {
  const double ref_s = reference_s(w.ref_reps);
  const auto t0 = Clock::now();
  auto sim = std::make_unique<Simulation>(cfg);
  const double setup_s = seconds_since(t0);
  sim.reset();
  emit("setup", [&](JsonWriter& json) {
    json.field("ref_s", ref_s).field("setup_s", setup_s);
  });
}

/// One traced operation: Simulation's construction, run() and run_cycles()
/// re-driven from public calls with a span around each call into a layer. Its
/// digest must equal `untraced_digest`, the untraced run of the same config.
void traced_op(const Workload& w, const ExperimentConfig& cfg, SpanLog& log,
               const std::string& untraced_digest) {
  if (w.capture) reset_dir(cfg.snapshot.capture_dir);
  log.clear();
  const auto t0 = Clock::now();

  std::shared_ptr<const Topology> topo;
  {
    ScopedSpan span(log, Layer::TopoBuild);
    topo = make_topology(cfg.sim);
  }
  NetworkDeps deps;
  deps.topology = topo;
  deps.routing = make_routing(cfg.sim);
  deps.selection = make_selection(cfg.sim.selection);
  auto net = std::make_unique<Network>(cfg.sim, std::move(deps));
  auto injection =
      make_injection(*net, cfg.traffic, cfg.workload, cfg.sim.seed);
  auto det = std::make_unique<DeadlockDetector>(cfg.detector, cfg.sim.seed);
  MetricsCollector metrics(cfg.run.sample_every);

  std::unique_ptr<DeadlockCorpus> corpus;
  std::unique_ptr<TimedCapture> capture;
  auto sync_corpus = [&](bool measuring) {
    if (corpus) {
      corpus->set_run_state(cfg.run.warmup, cfg.run.measure,
                            cfg.run.sample_every, measuring);
    }
  };
  if (!cfg.snapshot.capture_dir.empty()) {
    corpus = std::make_unique<DeadlockCorpus>(
        cfg.snapshot.capture_dir, cfg.snapshot.capture_limit, cfg.sim,
        cfg.traffic, cfg.workload, cfg.detector, injection.get(), det.get(),
        &metrics);
    sync_corpus(false);
    capture = std::make_unique<TimedCapture>(*corpus, log);
    det->set_capture(capture.get());
  }
  std::unique_ptr<Telemetry> telemetry;
  if (cfg.telemetry.enabled()) {
    telemetry = std::make_unique<Telemetry>(cfg.telemetry, *net);
  }
  std::unique_ptr<ObsCollector> obs;
  if (cfg.obs.enabled()) obs = std::make_unique<ObsCollector>(cfg.obs, *net);
  NetworkHooks hooks;
  if (telemetry) telemetry->contribute_hooks(hooks, *det);
  if (obs) obs->contribute_hooks(hooks);
  net->install_hooks(hooks);
  net->set_step_dense(cfg.run.step_dense);
  if (cfg.run.shards > 0) {
    // set_shards runs make_shard_plan, rebuilds the active sets per shard and
    // starts the worker pool; the span holds all three.
    ScopedSpan span(log, Layer::Partition);
    net->set_shards(cfg.run.shards);
  }
  const double setup_s = seconds_since(t0);

  // The loop body is Simulation::run_cycles with its checkpoint and invariant
  // hooks, which no workload enables; the reads between calls are observers.
  const Cycle interval = cfg.detector.interval;
  double active_sum = 0.0;
  double blocked_sum = 0.0;
  double pass_cpu_s = 0.0;
  std::int64_t knots = 0;
  std::vector<double> closure;
  auto run_cycles = [&](Cycle n, bool measuring) {
    for (Cycle i = 0; i < n; ++i) {
      {
        ScopedSpan span(log, Layer::Inject);
        injection->tick(*net);
      }
      active_sum += static_cast<double>(net->active_channels());
      {
        ScopedSpan span(log, Layer::Step);
        net->step();
      }
      blocked_sum += net->blocked_message_count();
      if (interval > 0 && net->now() % interval == 0) {
        const double cpu0 = process_cpu_s();
        {
          ScopedSpan span(log, Layer::Detect);
          knots += det->tick(*net);
        }
        pass_cpu_s += process_cpu_s() - cpu0;
        if (det->pressure().valid) {
          closure.push_back(static_cast<double>(det->pressure().closure_size));
        }
      } else {
        knots += det->tick(*net);
      }
      if (telemetry) {
        ScopedSpan span(log, Layer::Telemetry);
        telemetry->tick(*net, *det);
      }
      if (obs) {
        ScopedSpan span(log, Layer::Obs);
        obs->tick(*net, *det);
      }
      if (measuring) {
        ScopedSpan span(log, Layer::Metrics);
        metrics.sample(*net);
      }
    }
  };

  // Simulation::run() on a fresh simulation.
  const auto loop0 = Clock::now();
  run_cycles(cfg.run.warmup, false);
  const std::int64_t warmup_transients = det->transient_knots();
  det->reset_statistics();
  metrics.begin_window(*net);
  sync_corpus(true);
  run_cycles(cfg.run.measure, true);
  sync_corpus(false);
  const double loop_s = seconds_since(loop0);
  {
    ScopedSpan span(log, Layer::Finalize);
    ExperimentResult result;
    result.load = cfg.traffic.load;
    result.capacity_flits_per_node = injection->capacity_flits_per_node();
    result.offered_flit_rate = injection->offered_flit_rate();
    result.avg_distance = injection->average_distance();
    result.window =
        metrics.finish(*net, *det, cfg.count_recovered_as_delivered);
    if (result.capacity_flits_per_node > 0) {
      result.normalized_throughput = result.window.throughput_flits_per_node /
                                     result.capacity_flits_per_node;
    }
    if (result.offered_flit_rate > 0) {
      result.accepted_ratio =
          result.window.throughput_flits_per_node / result.offered_flit_rate;
    }
    result.saturated = result.accepted_ratio < 0.95;
    if (corpus) {
      result.deadlocks_captured = corpus->captured();
      result.capture_duplicates = corpus->duplicates();
      result.capture_dropped = corpus->dropped();
    }
    result.detector_invocations = det->invocations();
    result.detector_skipped_passes = det->skipped_passes();
    if (obs) {
      obs->finalize(*net, *det);
      result.obs = obs->artifacts();
    }
    if (telemetry) {
      telemetry->finalize(*net, *det);
      result.telemetry.enabled = true;
      result.telemetry.heatmap_ascii = telemetry->heatmap().ascii_grid(
          *net, SpatialHeatmap::Field::Traversals);
      result.telemetry.profile_table = telemetry->profiler().table();
      if (!cfg.telemetry.manifest_path.empty()) {
        std::ofstream manifest(cfg.telemetry.manifest_path, std::ios::trunc);
        if (!manifest) {
          throw std::runtime_error("cannot open " +
                                   cfg.telemetry.manifest_path);
        }
        write_manifest_json(manifest, cfg, result, *telemetry, *net, obs.get());
      }
    }
  }
  const double wall_s = seconds_since(t0);

  const int captured = corpus ? corpus->captured() : 0;
  std::vector<std::string> failures = check_run(*net, *det, w, captured);
  const std::string digest = run_digest(*net, *det);
  if (digest != untraced_digest) {
    failures.push_back("digest: traced " + digest + " != untraced " +
                       untraced_digest);
  }

  const SpanSummary sum = summarize(log.spans());
  auto layer_s = [&](Layer l) {
    return sum.busy_s[static_cast<std::size_t>(l)];
  };
  const double cycles = static_cast<double>(net->now());
  double bytes = 0.0;
  const std::vector<std::string> files =
      corpus ? capture_files(cfg.snapshot.capture_dir)
             : std::vector<std::string>{};
  for (const std::string& f : files) {
    bytes += static_cast<double>(fs::file_size(f));
  }
  const double pass_wall_s = layer_s(Layer::Detect) + layer_s(Layer::Capture);

  // Replays come after the run's own wall time, as operations of their own.
  const std::vector<double> replay_ms =
      corpus ? replay_all(cfg.snapshot.capture_dir, &log)
             : std::vector<double>{};
  double replay_s = 0.0;
  for (const double ms : replay_ms) replay_s += 1e-3 * ms;

  emit("run", [&](JsonWriter& json) {
    json.field("traced", true)
        .field("seed", cfg.sim.seed)
        .field("setup_s", setup_s)
        .field("wall_s", wall_s)
        .field("loop_s", loop_s)
        .field("cycles", std::int64_t{net->now()})
        .field("digest", digest);
    write_failures(json, failures);
    json.key("layers").begin_object();
    json.field("sim.step_s", layer_s(Layer::Step))
        .field("sim.step_ms_p50", quantile(sum.step_ms, 0.5))
        .field("sim.step_ms_p99", quantile(sum.step_ms, 0.99))
        .field("sim.active_channels_mean", active_sum / cycles)
        .field("sim.blocked_mean", blocked_sum / cycles)
        .field("sim.flits_delivered",
               static_cast<double>(net->counters().flits_delivered))
        .field("sim.ns_per_active_channel",
               active_sum > 0 ? 1e9 * layer_s(Layer::Step) / active_sum : 0.0)
        .field("core.detect_s", layer_s(Layer::Detect))
        .field("core.pass_ms_p50", quantile(sum.pass_ms, 0.5))
        .field("core.pass_ms_p90", quantile(sum.pass_ms, 0.9))
        .field("core.invocations", static_cast<double>(det->invocations()))
        .field("core.skipped_ratio",
               det->invocations() > 0
                   ? static_cast<double>(det->skipped_passes()) /
                         static_cast<double>(det->invocations())
                   : 0.0)
        .field("core.knots", static_cast<double>(knots))
        .field("core.transient_knots",
               static_cast<double>(warmup_transients + det->transient_knots()))
        .field("core.closure_mean", mean(closure))
        .field("core.detect_share", layer_s(Layer::Detect) / loop_s)
        .field("core.pass_cpu_ratio",
               pass_wall_s > 0 ? pass_cpu_s / pass_wall_s : 0.0)
        .field("traffic.inject_s", layer_s(Layer::Inject))
        .field("traffic.generated",
               static_cast<double>(net->counters().generated))
        .field("metrics.sample_s", layer_s(Layer::Metrics))
        .field("obs.sample_s", layer_s(Layer::Obs))
        .field("obs.samples",
               obs ? static_cast<double>(obs->samples_recorded()) : 0.0)
        .field("telemetry.tick_s", layer_s(Layer::Telemetry))
        .field("snapshot.captures", static_cast<double>(captured))
        .field("snapshot.capture_ms_p50",
               capture ? quantile(capture->write_ms, 0.5) : 0.0)
        .field("snapshot.bytes_mean",
               files.empty() ? 0.0 : bytes / static_cast<double>(files.size()))
        .field("snapshot.replay_ms_p50", quantile(replay_ms, 0.5))
        .field("snapshot.replay_s", replay_s)
        .field("topo.build_s", layer_s(Layer::TopoBuild))
        .field("topo.partition_s", layer_s(Layer::Partition))
        .field("bench.loop_coverage", sum.loop_s / loop_s);
    json.end_object();
  });
}

// --- commands ----------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--interval") {
      args.interval = std::stoll(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (args.work_dir.empty()) {
    throw std::invalid_argument("--work-dir is required");
  }
  return args;
}

int command_run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : workloads()) {
    if (candidate.name == args.workload) w = &candidate;
  }
  if (w == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // The pool's workers spin at barriers, so a shard whose thread loses its
  // core stalls every other; one core is left for the rest of the host.
  const int shards = std::min(w->shards, std::max(1, cores - 1));
  fs::create_directories(args.work_dir);
  const ExperimentConfig cfg = make_config(*w, args, shards);

  emit("start", [&](JsonWriter& json) {
    json.field("workload", w->name)
        .field("seed", args.seed)
        .field("trace", args.trace)
        .field("smoke", args.smoke)
        .field("shards", shards)
        .field("cycles", std::int64_t{cfg.run.warmup + cfg.run.measure})
        .field("build_type", FLEXBENCH_BUILD_TYPE)
        .field("compiler", FLEXBENCH_COMPILER);
  });

  // Operation i simulates its own seed derived from the run's seed, so a run
  // averages over several traffic realizations instead of timing one. With
  // --trace 1 each untraced operation is followed by a traced one of the same
  // seed, which must reproduce its digest; the pair costs about twice as
  // much, so there are half as many. A smoke run does one round.
  const double per_op_s = args.trace ? 2.0 * w->op_s : w->op_s;
  const int ops =
      args.smoke ? 1
                 : std::max(1, static_cast<int>(args.seconds / per_op_s));
  SpanLog log;
  int setups = 0;
  for (int i = 0; i < ops; ++i) {
    ExperimentConfig op = cfg;
    op.sim.seed = splitmix64((args.seed << 16) + static_cast<std::uint64_t>(i));
    const std::string digest = untraced_op(*w, op, !args.trace);
    ++setups;
    if (args.trace) traced_op(*w, op, log, digest);
  }
  // setup_s is a median over at least five constructions.
  for (; !args.trace && setups < 5; ++setups) setup_op(*w, cfg);

  if (args.trace && !args.spans_path.empty()) {
    std::ofstream out(args.spans_path, std::ios::trunc);
    log.write_chrome(out);
    if (!out) throw std::runtime_error("cannot write " + args.spans_path);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  emit("end", [&](JsonWriter& json) {
    json.field("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
  });
  return 0;
}

int command_replay(int argc, char** argv) {
  int mismatches = 0;
  for (int i = 2; i < argc; ++i) {
    std::string detail;
    bool matches = false;
    try {
      const ReplayResult r = replay_capture(read_snapshot_file(argv[i]));
      matches = r.matches;
      detail = r.detail;
    } catch (const std::exception& e) {
      detail = e.what();
    }
    if (!matches) ++mismatches;
    emit("replay", [&](JsonWriter& json) {
      json.field("file", argv[i])
          .field("matches", matches)
          .field("detail", detail);
    });
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string_view command = argc > 1 ? argv[1] : "";
    if (command == "run") return command_run(parse_args(argc, argv));
    if (command == "replay") return command_replay(argc, argv);
    std::cerr << "usage: flexbench run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--smoke] [--interval N] "
                 "[--spans FILE]\n       flexbench replay FILE...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "flexbench: " << e.what() << '\n';
    return 1;
  }
}
