// Simple (elementary) cycle counting via Johnson's algorithm.
//
// The paper uses two cycle statistics: the total number of unique resource
// dependency cycles in the CWG (Figs. 6a, 7b) and the "knot cycle density" —
// the number of unique cycles inside a knot. Cycle counts explode
// exponentially at saturation ("hundreds of thousands"), so enumeration takes
// a hard cap: once `cap` cycles have been found the result is flagged capped
// and reported as a lower bound, which preserves the growth shape the paper
// plots at a bounded cost.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/graph.hpp"

namespace flexnet {

struct CycleEnumeration {
  std::int64_t count = 0;
  bool capped = false;
  /// Up to `store_limit` concrete cycles (vertex sequences), for reporting.
  std::vector<std::vector<int>> cycles;
};

/// The graph to enumerate plus the enumeration's working storage. The graph
/// is held in compressed sparse rows: vertex v's out-edges are
/// targets[offsets[v] .. offsets[v + 1]), in order. Reusing one instance
/// keeps every array at its high-water capacity, so a warm enumeration
/// allocates nothing beyond the cycles it stores.
struct CycleScratch {
  std::vector<int> offsets;
  std::vector<int> targets;

  // Working storage (see cycles.cpp).
  std::vector<int> label;      ///< vertex -> its component's first slot in `order`
  std::vector<int> range_end;  ///< first slot -> one past the component's last
  std::vector<int> order;      ///< vertices, grouped by component
  std::vector<int> starts;     ///< the component being searched, ascending
  std::vector<int> roots;      ///< the vertices a re-split visits
  std::vector<std::pair<int, int>> edges;  ///< vertex -> its out-edge range
  std::vector<int> comp_targets;  ///< the searched component's own edges
  std::vector<int> index;
  std::vector<int> lowlink;
  std::vector<int> stack;
  /// One level of an explicit DFS: the vertex, its next and end edge, and
  /// (Johnson's search) whether a circuit was found below it.
  struct Frame {
    int vertex = 0;
    int cursor = 0;
    int end = 0;
    bool found = false;
  };
  std::vector<Frame> frames;
  std::vector<std::uint8_t> blocked;
  std::vector<std::vector<int>> b_sets;

  [[nodiscard]] int num_vertices() const noexcept {
    return offsets.empty() ? 0 : static_cast<int>(offsets.size()) - 1;
  }

  /// Replaces the graph with `graph`, keeping each vertex's edge order.
  void load(const Digraph& graph);
};

/// Counts elementary cycles of the graph loaded in `scratch`, stopping at
/// `cap`. When `store_limit` > 0, that many cycles are also materialized.
/// Self-loops are stripped from scratch's graph as they are counted.
[[nodiscard]] CycleEnumeration enumerate_simple_cycles(CycleScratch& scratch,
                                                       std::int64_t cap,
                                                       std::size_t store_limit = 0);

/// Same, for `graph`, with a fresh scratch.
[[nodiscard]] CycleEnumeration enumerate_simple_cycles(const Digraph& graph,
                                                       std::int64_t cap,
                                                       std::size_t store_limit = 0);

}  // namespace flexnet
