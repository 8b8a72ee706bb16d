// The flexnet-topo-v1 text format: a topology as a node count plus a link
// list, one directive per line.
//
//   flexnet-topo-v1            # magic, must be the first line
//   # comments and blank lines are ignored
//   nodes 16                   # required, exactly once, before any link
//   link 0 1                   # directed link 0 -> 1
//   link 1 2 width=2           # optional width (multiplies the VC count)
//   bilink 3 4                 # shorthand for link 3 4 + link 4 3
//
// The parser is strict and fails loud: bad magic, unknown directives,
// malformed or trailing tokens, out-of-range/dangling node ids, self-loops,
// duplicate links or a missing nodes declaration throw std::runtime_error
// naming origin:line (util/parse.hpp holds the lexical rules). A graph that
// is not strongly connected is rejected when GraphTopology is built.
#pragma once

#include <iosfwd>
#include <string>

#include "topo/graph_topology.hpp"

namespace flexnet {

inline constexpr std::string_view kTopoFileMagic = "flexnet-topo-v1";

/// Parses topology text (the stream form backs tests; `origin` names the
/// source in errors and the topology name).
[[nodiscard]] GraphTopology::Spec parse_topology_text(std::istream& in,
                                                      const std::string& origin);

/// Reads and parses `path`; throws std::runtime_error when the file cannot
/// be opened or its content is malformed.
[[nodiscard]] GraphTopology::Spec load_topology_file(const std::string& path);

/// Serializes a spec back to flexnet-topo-v1 text (antiparallel link pairs
/// of equal width collapse into bilink lines). parse(write(spec)) rebuilds a
/// topology with the identical content hash.
[[nodiscard]] std::string write_topology_text(const GraphTopology::Spec& spec);

}  // namespace flexnet
