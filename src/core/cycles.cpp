#include "core/cycles.hpp"

#include <algorithm>

namespace flexnet {

namespace {

constexpr int kUnsplit = -2;  // label before the first SCC pass
constexpr int kRemoved = -1;  // label of a start already searched

/// Johnson's elementary-circuit search on the CSR graph in a CycleScratch
/// (self-loops already counted and stripped).
///
/// Johnson searches from each start s in ascending order, in the SCC of s
/// within the subgraph induced by the vertices >= s; that keeps s the least
/// vertex of every circuit found. Those SCCs are kept as a partition of the
/// not-yet-removed vertices: each component is one range of `order`, and
/// label[v] is the first slot of v's range. Removing s can only split
/// comp(s), since any path between two vertices of another component that
/// ran through s would put s in that component. So after searching from s,
/// only comp(s) \ {s} is re-split; every later start sees exactly the
/// restricted graph of the textbook algorithm, with the same out-edge order,
/// and so finds the same circuits in the same order.
class JohnsonSearch {
 public:
  JohnsonSearch(CycleScratch& s, std::int64_t cap, std::size_t store_limit,
                CycleEnumeration& out)
      : s_(s), cap_(cap), store_limit_(store_limit), out_(out) {}

  void run() {
    const int n = s_.num_vertices();
    const auto size = static_cast<std::size_t>(n);
    s_.label.assign(size, kUnsplit);
    s_.range_end.resize(size);
    s_.order.resize(size);
    s_.index.assign(size, -1);
    s_.lowlink.resize(size);
    s_.stack.resize(size);
    s_.frames.resize(size);
    s_.blocked.resize(size);
    if (s_.b_sets.size() < size) s_.b_sets.resize(size);

    // One Tarjan pass: components land in `order` in Tarjan's numbering
    // (reverse topological), which fixes the order they are searched in.
    s_.edges.resize(size);
    s_.roots.resize(size);
    for (int v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      s_.edges[vi] = {s_.offsets[vi], s_.offsets[vi + 1]};
      s_.roots[vi] = v;
    }
    split(s_.targets.data(), kUnsplit, 0);

    for (int first = 0; first < n && !out_.capped;) {
      const int last = s_.range_end[static_cast<std::size_t>(first)];
      // A single vertex has no cycle (self-loops are gone); a larger
      // component is searched from each of its vertices, ascending.
      if (last - first >= 2) {
        const auto begin = s_.order.begin();
        std::sort(begin + first, begin + last);
        s_.starts.assign(begin + first, begin + last);
        for (const int start : s_.starts) {
          if (out_.capped) break;
          search_from(start);
        }
      }
      first = last;
    }
  }

 private:
  /// Searches circuits through `start` (the least vertex of its current
  /// component), then removes it and re-splits the rest of the component.
  void search_from(int start) {
    const int first = s_.label[static_cast<std::size_t>(start)];
    const int last = s_.range_end[static_cast<std::size_t>(first)];
    if (last - first < 2) return;
    // The component's own edges, compacted so neither the search nor the
    // re-split walks an edge that leaves it.
    s_.comp_targets.clear();
    for (int i = first; i < last; ++i) {
      const auto v = static_cast<std::size_t>(s_.order[static_cast<std::size_t>(i)]);
      s_.blocked[v] = 0;
      s_.b_sets[v].clear();
      const int begin = static_cast<int>(s_.comp_targets.size());
      for (int e = s_.offsets[v]; e < s_.offsets[v + 1]; ++e) {
        const int w = s_.targets[static_cast<std::size_t>(e)];
        if (s_.label[static_cast<std::size_t>(w)] == first) s_.comp_targets.push_back(w);
      }
      s_.edges[v] = {begin, static_cast<int>(s_.comp_targets.size())};
    }
    circuit(start);
    if (out_.capped) return;

    s_.roots.clear();
    for (int i = first; i < last; ++i) {
      const int v = s_.order[static_cast<std::size_t>(i)];
      if (v == start) continue;
      s_.roots.push_back(v);
      s_.index[static_cast<std::size_t>(v)] = -1;
    }
    s_.order[static_cast<std::size_t>(first)] = start;
    s_.label[static_cast<std::size_t>(start)] = kRemoved;
    split(s_.comp_targets.data(), first, first + 1);
  }

  /// Iterative Tarjan over the vertices labelled `from`, rooted at
  /// s_.roots in order (their index must be -1), with v's out-edges at
  /// targets[edges[v].first .. edges[v].second). Each SCC is written to
  /// `order` from slot `write` on and relabelled with its first slot, so a
  /// vertex keeps label `from` exactly while it is unvisited or on the
  /// stack; edges to any other label are outside the subset or into a
  /// finished SCC, and Tarjan ignores both alike.
  void split(const int* targets, int from, int write) {
    const std::pair<int, int>* edges = s_.edges.data();
    int* label = s_.label.data();
    int* index = s_.index.data();
    int* lowlink = s_.lowlink.data();
    int* order = s_.order.data();
    int* stack = s_.stack.data();
    CycleScratch::Frame* frames = s_.frames.data();
    int top = 0;
    int depth = 0;
    int next_index = 0;
    const auto visit = [&](int v) {
      index[v] = lowlink[v] = next_index++;
      stack[top++] = v;
      frames[depth++] = {v, edges[v].first, edges[v].second, false};
    };
    for (const int root : s_.roots) {
      if (label[root] != from) continue;
      visit(root);
      while (depth > 0) {
        auto& [v, cursor, end, unused] = frames[depth - 1];
        if (cursor < end) {
          const int w = targets[cursor++];
          if (label[w] != from) continue;
          if (index[w] == -1) {
            visit(w);
          } else {
            lowlink[v] = std::min(lowlink[v], index[w]);
          }
          continue;
        }
        if (lowlink[v] == index[v]) {
          const int first = write;
          int w = 0;
          do {
            w = stack[--top];
            label[w] = first;
            order[write++] = w;
          } while (w != v);
          s_.range_end[static_cast<std::size_t>(first)] = write;
        }
        --depth;
        if (depth > 0) {
          const int parent = frames[depth - 1].vertex;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }

  /// Johnson's CIRCUIT(start) on an explicit stack, over the compacted
  /// edges of start's component. The top frame lives in `top`; the frames
  /// below it are written back only when a child is pushed. A frame's
  /// `found` is its vertex's return value in the recursive form. A vertex is
  /// blocked while on the path, so the frames never hold it twice and the
  /// path is the frames' vertices.
  void circuit(int start) {
    const std::pair<int, int>* edges = s_.edges.data();
    const int* targets = s_.comp_targets.data();
    std::uint8_t* blocked = s_.blocked.data();
    CycleScratch::Frame* frames = s_.frames.data();
    std::vector<int>* b_sets = s_.b_sets.data();
    bool capped = false;
    const auto enter = [&](int v) {
      blocked[v] = 1;
      return CycleScratch::Frame{v, edges[v].first, edges[v].second, false};
    };
    CycleScratch::Frame top = enter(start);
    frames[0] = top;
    int depth = 1;
    for (;;) {
      if (!capped && top.cursor < top.end) {
        const int w = targets[top.cursor++];
        if (w == start) {
          capped = record_cycle(depth);
          top.found = true;
        } else if (blocked[w] == 0) {
          frames[depth - 1] = top;
          top = enter(w);
          frames[depth++].vertex = w;
        }
        continue;
      }
      const int v = top.vertex;
      if (top.found) {
        unblock(v);
      } else {
        for (int e = edges[v].first; e < top.end; ++e) {
          std::vector<int>& b = b_sets[targets[e]];
          if (std::find(b.begin(), b.end(), v) == b.end()) b.push_back(v);
        }
      }
      if (--depth == 0) break;
      const bool found = top.found;
      top = frames[depth - 1];
      top.found = top.found || found;
    }
  }

  /// UNBLOCK(v) on an explicit stack, visiting B-sets in the recursive
  /// order (each B-set drained from the back).
  void unblock(int v) {
    std::uint8_t* blocked = s_.blocked.data();
    std::vector<int>* b_sets = s_.b_sets.data();
    int* stack = s_.stack.data();
    int top = 0;
    blocked[v] = 0;
    stack[top++] = v;
    while (top > 0) {
      std::vector<int>& b = b_sets[stack[top - 1]];
      if (b.empty()) {
        --top;
        continue;
      }
      const int w = b.back();
      b.pop_back();
      if (blocked[w] != 0) {
        blocked[w] = 0;
        stack[top++] = w;
      }
    }
  }

  /// Counts the circuit on the first `depth` frames; true once capped.
  bool record_cycle(int depth) {
    ++out_.count;
    if (out_.cycles.size() < store_limit_) {
      std::vector<int>& cycle = out_.cycles.emplace_back();
      cycle.reserve(static_cast<std::size_t>(depth));
      for (int i = 0; i < depth; ++i) {
        cycle.push_back(s_.frames[static_cast<std::size_t>(i)].vertex);
      }
    }
    if (out_.count >= cap_) out_.capped = true;
    return out_.capped;
  }

  CycleScratch& s_;
  std::int64_t cap_;
  std::size_t store_limit_;
  CycleEnumeration& out_;
};

}  // namespace

void CycleScratch::load(const Digraph& graph) {
  const int n = graph.num_vertices();
  offsets.resize(static_cast<std::size_t>(n) + 1);
  targets.clear();
  offsets[0] = 0;
  for (int v = 0; v < n; ++v) {
    const auto out = graph.out(v);
    targets.insert(targets.end(), out.begin(), out.end());
    offsets[static_cast<std::size_t>(v) + 1] = static_cast<int>(targets.size());
  }
}

CycleEnumeration enumerate_simple_cycles(CycleScratch& scratch,
                                         std::int64_t cap,
                                         std::size_t store_limit) {
  CycleEnumeration result;
  if (cap <= 0) {
    result.capped = true;
    return result;
  }

  // Self-loops are length-1 cycles; count them upfront and strip them from
  // the search below.
  const int n = scratch.num_vertices();
  auto& offsets = scratch.offsets;
  auto& targets = scratch.targets;
  for (int v = 0; v < n && !result.capped; ++v) {
    for (int e = offsets[static_cast<std::size_t>(v)];
         e < offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      if (targets[static_cast<std::size_t>(e)] != v) continue;
      ++result.count;
      if (result.cycles.size() < store_limit) result.cycles.push_back({v});
      if (result.count >= cap) result.capped = true;
    }
  }
  if (result.capped) return result;
  int kept = 0;
  for (int v = 0; v < n; ++v) {
    const int begin = offsets[static_cast<std::size_t>(v)];
    const int end = offsets[static_cast<std::size_t>(v) + 1];
    offsets[static_cast<std::size_t>(v)] = kept;
    for (int e = begin; e < end; ++e) {
      const int w = targets[static_cast<std::size_t>(e)];
      if (w != v) targets[static_cast<std::size_t>(kept++)] = w;
    }
  }
  if (n > 0) offsets[static_cast<std::size_t>(n)] = kept;

  JohnsonSearch(scratch, cap, store_limit, result).run();
  return result;
}

CycleEnumeration enumerate_simple_cycles(const Digraph& graph, std::int64_t cap,
                                         std::size_t store_limit) {
  CycleScratch scratch;
  scratch.load(graph);
  return enumerate_simple_cycles(scratch, cap, store_limit);
}

}  // namespace flexnet
