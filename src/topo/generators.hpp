// Built-in explicit-graph topology generators. Each returns a
// GraphTopology::Spec (node count + link list) so callers can either build
// the topology or write the spec out as a flexnet-topo-v1 file
// (flexnet-inspect --emit). All generators are deterministic: the same parameters (and seed,
// for the random family) always produce the identical canonical link list.
#pragma once

#include <cstdint>

#include "topo/graph_topology.hpp"

namespace flexnet {

/// Every ordered pair of nodes directly linked (Cano et al.'s HOTI 2025
/// subject: deadlock-free by construction under 1-hop minimal routing).
[[nodiscard]] GraphTopology::Spec full_mesh_spec(NodeId nodes);

/// Canonical dragonfly: `routers_per_group` routers per group (a), each with
/// `global_links_per_router` global links (h), giving g = a*h + 1 groups and
/// a*(a*h + 1) nodes. Groups are internally fully meshed; global links use
/// the consecutive arrangement. All links bidirectional.
[[nodiscard]] GraphTopology::Spec dragonfly_spec(int routers_per_group,
                                                 int global_links_per_router);

/// Random connected irregular graph: a random spanning tree guarantees
/// connectivity, then extra random edges are added until the average
/// undirected degree reaches `degree`. All links bidirectional; fully
/// deterministic in (nodes, degree, seed).
[[nodiscard]] GraphTopology::Spec random_irregular_spec(NodeId nodes,
                                                        int degree,
                                                        std::uint64_t seed);

}  // namespace flexnet
