// Command-line construction of experiment configurations, shared by the
// sweep_cli example and tests. Every knob of SimConfig / TrafficConfig /
// DetectorConfig / RunConfig is reachable by name.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "util/options.hpp"

namespace flexnet {

/// Parse enum spellings (exact, as printed by to_string; traffic patterns
/// parse with traffic/traffic.hpp's parse_traffic_kind). Throws
/// std::invalid_argument on unknown names.
[[nodiscard]] RoutingKind parse_routing(std::string_view name);
[[nodiscard]] SelectionKind parse_selection(std::string_view name);
[[nodiscard]] RecoveryKind parse_recovery(std::string_view name);
/// "torus" | "mesh" | "fullmesh" | "dragonfly" | "random" | "file:<path>"
/// (lowercase family names; "mesh" maps to Torus with wrap=false).
[[nodiscard]] TopoKind parse_topology(std::string_view name);

/// Reads the topology family and its generator knobs into `sim`:
///   --topology torus|mesh|fullmesh|dragonfly|random|file:<path>
///   --k --n --uni --mesh --nodes --degree --df-routers --df-globals
///   --topo-seed
void topology_from_options(const Options& opts, SimConfig& sim);

/// Builds a full experiment configuration from options: the topology flags
/// above, plus
///   --route-table --vcs --buffer --ivcs --evcs --length
///   --short-length --short-fraction --routing --selection --misroutes
///   --faults --queue-limit --seed
///   --traffic --load --hotspots --hotspot-fraction --hybrid --hybrid-fraction
///   --interval --recovery --no-quiescence --count-cycles --cycle-cap
///   --warmup --measure --check --step-dense
///   --trace-chrome FILE --trace-bin FILE --forensics
///   --forensics-dot PREFIX
///   --telemetry --telemetry-json FILE --heatmap FILE --profile --heatmap-ascii
///   --metrics FILE --metrics-collect --metrics-interval N --warn-threshold X
///   --warn-stall-ref N
/// Unspecified options keep the paper's defaults.
[[nodiscard]] ExperimentConfig experiment_from_options(const Options& opts);

/// Parses a comma-separated load list ("0.1,0.2,0.5") or, when absent, an
/// even sweep from --load-min/--load-max/--load-steps.
[[nodiscard]] std::vector<double> loads_from_options(const Options& opts);

}  // namespace flexnet
