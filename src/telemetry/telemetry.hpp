// Run-scoped telemetry: one object bundling two collectors — SpatialHeatmap
// (where congestion sits) and PhaseProfiler (where wall-clock time goes) —
// plus the configuration that turns them on. The time series lives in the
// metrics stream (obs/obs.hpp): Simulation runs an ObsCollector whenever
// telemetry is on. Simulation owns a Telemetry when TelemetryConfig::enabled()
// and wires its probes into the network and detector; with telemetry off the
// simulator pays exactly the tracer's price: one null-pointer branch per
// instrumentation point.
#pragma once

#include <string>

#include "sim/network.hpp"
#include "sim/types.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/profiler.hpp"

namespace flexnet {

class DeadlockDetector;

struct TelemetryConfig {
  /// Master switch; any output path below also enables collection.
  bool collect = false;
  /// Heatmap occupancy stride in cycles. experiment_from_options sets it
  /// from --metrics-interval, so it matches the metrics stream's cadence.
  Cycle interval = 100;
  /// Write the JSON run manifest here (--telemetry-json).
  std::string manifest_path;
  /// Write the heatmap counter CSV here (--heatmap).
  std::string heatmap_csv_path;

  [[nodiscard]] bool enabled() const noexcept {
    return collect || !manifest_path.empty() || !heatmap_csv_path.empty();
  }

  /// Per-point file names for sweeps: "out.json" -> "out.json.p<i>", same
  /// convention as TraceConfig so parallel points never share a stream.
  [[nodiscard]] TelemetryConfig with_point_suffix(std::size_t point) const;
};

/// What a telemetry-enabled run leaves behind in its ExperimentResult:
/// cheap, preformatted summaries plus the paths of any files written.
struct TelemetryArtifacts {
  bool enabled = false;
  std::string manifest_path;     ///< Empty when no manifest was written.
  std::string heatmap_csv_path;  ///< Empty when no CSV was written.
  std::string heatmap_ascii;     ///< Traversal grid; empty unless 2D.
  std::string profile_table;     ///< PhaseProfiler::table().
};

class Telemetry {
 public:
  /// `config.interval` < 1 throws; the network fixes the counter shapes.
  Telemetry(const TelemetryConfig& config, const Network& net);

  /// Contributes the hot-path probes — heatmap + profiler — to the network
  /// observer surface being assembled, and wires the profiler into the
  /// detector. Pointers are non-owning; this Telemetry must outlive every
  /// consumer (Simulation guarantees it).
  void contribute_hooks(NetworkHooks& hooks, DeadlockDetector& detector);

  /// Per-cycle driver hook (call after Network::step() + detector tick);
  /// integrates heatmap occupancy whenever the configured interval elapses.
  /// The detector is unused; the driver calls every collector alike.
  void tick(const Network& net, const DeadlockDetector& /*detector*/) {
    if (net.now() < next_sample_) return;
    sample_now(net);
  }

  /// Forces a final sample covering any residual partial interval, so
  /// heatmap occupancy accounts for every cycle of the run.
  void finalize(const Network& net, const DeadlockDetector& /*detector*/) {
    if (net.now() > last_sample_) sample_now(net);
  }

  [[nodiscard]] const TelemetryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const SpatialHeatmap& heatmap() const noexcept {
    return heatmap_;
  }
  [[nodiscard]] SpatialHeatmap& heatmap() noexcept { return heatmap_; }
  [[nodiscard]] const PhaseProfiler& profiler() const noexcept {
    return profiler_;
  }
  [[nodiscard]] PhaseProfiler& profiler() noexcept { return profiler_; }

 private:
  void sample_now(const Network& net);

  TelemetryConfig config_;
  SpatialHeatmap heatmap_;
  PhaseProfiler profiler_;
  Cycle next_sample_;
  Cycle last_sample_ = 0;
};

}  // namespace flexnet
