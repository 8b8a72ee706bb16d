// The JSON run manifest: one machine-readable artifact per experiment
// capturing everything needed to interpret (and re-run) it — configuration
// and seed, window metrics, a heatmap summary, the phase profile, the metrics
// stream's summary with a pointer to the stream, and build provenance. Schema "flexnet-telemetry-v1"; field
// names are stable and documented in DESIGN.md. Identical (config, seed)
// runs produce byte-identical manifests except under "profile", whose
// wall-clock numbers are inherently non-deterministic.
#pragma once

#include <iosfwd>
#include <string_view>

namespace flexnet {

struct ExperimentConfig;
struct ExperimentResult;
class ObsCollector;
class Telemetry;
class Network;

inline constexpr std::string_view kManifestSchema = "flexnet-telemetry-v1";

/// Git revision baked in at configure time ("unknown" outside a checkout).
[[nodiscard]] std::string_view build_git_sha() noexcept;

/// When `obs` is non-null (a finalized ObsCollector), the manifest gains a
/// "metrics" block carrying the same cumulative summary as the NDJSON
/// stream's final record.
void write_manifest_json(std::ostream& out, const ExperimentConfig& config,
                         const ExperimentResult& result,
                         const Telemetry& telemetry, const Network& net,
                         const ObsCollector* obs = nullptr);

}  // namespace flexnet
