#include "telemetry/telemetry.hpp"

#include <stdexcept>

#include "core/detector.hpp"
#include "sim/network.hpp"

namespace flexnet {

TelemetryConfig TelemetryConfig::with_point_suffix(std::size_t point) const {
  TelemetryConfig out = *this;
  const std::string suffix = ".p" + std::to_string(point);
  if (!out.manifest_path.empty()) out.manifest_path += suffix;
  if (!out.heatmap_csv_path.empty()) out.heatmap_csv_path += suffix;
  return out;
}

Telemetry::Telemetry(const TelemetryConfig& config, const Network& net)
    : config_(config),
      heatmap_(net),
      next_sample_(net.now() + config.interval) {
  if (config.interval < 1) {
    throw std::invalid_argument("telemetry interval must be >= 1");
  }
  last_sample_ = net.now();
}

void Telemetry::contribute_hooks(NetworkHooks& hooks,
                                 DeadlockDetector& detector) {
  hooks.heatmap = &heatmap_;
  hooks.profiler = &profiler_;
  detector.set_profiler(&profiler_);
}

void Telemetry::sample_now(const Network& net) {
  heatmap_.sample_occupancy(net, net.now() - last_sample_);
  last_sample_ = net.now();
  next_sample_ = net.now() + config_.interval;
}

}  // namespace flexnet
