#include "core/cycles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "core/cwg.hpp"
#include "core/knot.hpp"
#include "util/rng.hpp"

// Counts heap allocations while enabled, so a test can assert that a warm
// scratch makes an enumeration allocation-free.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<long> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc with a free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flexnet {
namespace {

TEST(Cycles, AcyclicGraphHasNone) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 0);
  EXPECT_FALSE(r.capped);
}

TEST(Cycles, SingleCycle) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 10);
  EXPECT_EQ(r.count, 1);
  ASSERT_EQ(r.cycles.size(), 1u);
  EXPECT_EQ(r.cycles[0].size(), 4u);
}

TEST(Cycles, CompleteDigraphK3HasFive) {
  // K3 with all directed edges: three 2-cycles and two 3-cycles.
  Digraph g(3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 5);
}

TEST(Cycles, CompleteDigraphK4HasTwenty) {
  // 6 two-cycles + 8 three-cycles + 6 four-cycles = 20.
  Digraph g(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 20);
}

TEST(Cycles, SelfLoopsAreLengthOneCycles) {
  Digraph g(3);
  g.add_edge(0, 0);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 10);
  EXPECT_EQ(r.count, 2);
  // One stored cycle is the self-loop {0}.
  const bool has_self = std::any_of(
      r.cycles.begin(), r.cycles.end(),
      [](const std::vector<int>& c) { return c == std::vector<int>{0}; });
  EXPECT_TRUE(has_self);
}

TEST(Cycles, DisjointCyclesCounted) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 2);
}

TEST(Cycles, ChordAddsExactlyOneCycle) {
  Digraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.add_edge(0, 2);  // shortcut: ring cycle + chord cycle
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 2);
}

TEST(Cycles, CapStopsEnumeration) {
  Digraph g(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 10);
  EXPECT_TRUE(r.capped);
  EXPECT_GE(r.count, 10);
  EXPECT_LE(r.count, 11);  // stops promptly after reaching the cap
}

TEST(Cycles, ZeroCapReportsCapped) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 0);
  EXPECT_TRUE(r.capped);
  EXPECT_EQ(r.count, 0);
}

TEST(Cycles, StoreLimitBoundsMaterialization) {
  Digraph g(4);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) g.add_edge(a, b);
    }
  }
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 3);
  EXPECT_EQ(r.count, 20);
  EXPECT_EQ(r.cycles.size(), 3u);
}

TEST(Cycles, StoredCyclesAreValidElementaryCycles) {
  Digraph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  g.add_edge(1, 3);
  g.add_edge(3, 1);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 100);
  ASSERT_EQ(static_cast<std::size_t>(r.count), r.cycles.size());
  for (const auto& cycle : r.cycles) {
    // Vertices distinct and consecutive edges present (wrapping).
    std::vector<int> sorted = cycle;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      EXPECT_TRUE(g.has_edge(cycle[i], cycle[(i + 1) % cycle.size()]));
    }
  }
}

TEST(Cycles, FigureEightSharedVertex) {
  // Two triangles sharing vertex 0: exactly two cycles.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 0);
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000);
  EXPECT_EQ(r.count, 2);
}

TEST(Cycles, PinnedStoredOrder) {
  // Two strongly connected blocks joined one way ({0,3,5,7,9} -> {1,4,8,11}
  // -> {2,6,10}), a self-loop and chords. Cycles come out self-loops first,
  // then component by component in Tarjan's order, each from its least
  // vertex upward; forensics and capture metadata print this order, so it
  // is pinned here exactly.
  const int edges[][2] = {{0, 5}, {5, 3}, {3, 0},  {3, 7},  {7, 5},  {0, 7},
                          {7, 0}, {5, 9}, {9, 3},  {9, 1},  {1, 4},  {4, 11},
                          {11, 1}, {4, 8}, {8, 11}, {11, 4}, {8, 2},  {2, 6},
                          {6, 10}, {10, 2}, {10, 6}, {6, 6},  {2, 10}, {4, 1}};
  Digraph g(12);
  for (const auto& e : edges) g.add_edge(e[0], e[1]);
  const std::vector<std::vector<int>> expected = {
      {6},          {2, 6, 10},    {2, 10},       {6, 10},
      {1, 4, 11},   {1, 4, 8, 11}, {1, 4},        {4, 11},
      {4, 8, 11},   {0, 5, 3},     {0, 5, 3, 7},  {0, 5, 9, 3},
      {0, 5, 9, 3, 7}, {0, 7, 5, 3}, {0, 7, 5, 9, 3}, {0, 7},
      {3, 7, 5},    {3, 7, 5, 9}};
  const CycleEnumeration r = enumerate_simple_cycles(g, 1000, 1000);
  EXPECT_EQ(r.count, 18);
  EXPECT_FALSE(r.capped);
  EXPECT_EQ(r.cycles, expected);

  const CycleEnumeration capped = enumerate_simple_cycles(g, 7, 1000);
  EXPECT_EQ(capped.count, 7);
  EXPECT_TRUE(capped.capped);
  EXPECT_EQ(capped.cycles,
            std::vector<std::vector<int>>(expected.begin(), expected.begin() + 7));
}

// --- independent oracle ------------------------------------------------------

/// Every elementary cycle of `g` by brute force: a DFS from each vertex s
/// over simple paths through vertices > s that close back at s, so each
/// cycle appears once, rotated to start at its least vertex.
std::set<std::vector<int>> brute_force_cycles(const Digraph& g) {
  std::set<std::vector<int>> cycles;
  const int n = g.num_vertices();
  std::vector<int> path;
  std::vector<bool> on_path(static_cast<std::size_t>(n), false);
  const auto extend = [&](const auto& self, int s, int v) -> void {
    for (const int w : g.out(v)) {
      if (w == s) {
        cycles.insert(path);
      } else if (w > s && !on_path[static_cast<std::size_t>(w)]) {
        path.push_back(w);
        on_path[static_cast<std::size_t>(w)] = true;
        self(self, s, w);
        on_path[static_cast<std::size_t>(w)] = false;
        path.pop_back();
      }
    }
  };
  for (int s = 0; s < n; ++s) {
    path.assign(1, s);
    on_path[static_cast<std::size_t>(s)] = true;
    extend(extend, s, s);
    on_path[static_cast<std::size_t>(s)] = false;
  }
  return cycles;
}

TEST(Cycles, AgreesWithBruteForceOracle) {
  Pcg32 rng(20240613);
  for (int trial = 0; trial < 2500; ++trial) {
    const int n = 1 + static_cast<int>(rng.bounded(8));
    // Densities from sparse to nearly complete, self-loops included; each
    // ordered pair at most once, inserted in a shuffled order.
    const std::uint32_t per_mille = 50 + rng.bounded(900);
    std::vector<std::pair<int, int>> arcs;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (rng.bounded(1000) < per_mille) arcs.emplace_back(a, b);
      }
    }
    for (std::size_t i = arcs.size(); i > 1; --i) {
      std::swap(arcs[i - 1],
                arcs[rng.bounded(static_cast<std::uint32_t>(i))]);
    }
    Digraph g(n);
    for (const auto& [a, b] : arcs) g.add_edge(a, b);

    const std::set<std::vector<int>> truth = brute_force_cycles(g);
    const auto total = static_cast<std::int64_t>(truth.size());
    const CycleEnumeration full = enumerate_simple_cycles(g, total + 1, 100000);
    ASSERT_EQ(full.count, total) << "trial " << trial;
    EXPECT_FALSE(full.capped) << "trial " << trial;
    const std::set<std::vector<int>> found(full.cycles.begin(), full.cycles.end());
    EXPECT_EQ(found.size(), full.cycles.size()) << "duplicate cycle, trial " << trial;
    EXPECT_EQ(found, truth) << "trial " << trial;

    for (const std::int64_t cap : {std::int64_t{1}, std::int64_t{7}, total + 3}) {
      const CycleEnumeration r = enumerate_simple_cycles(g, cap, 100000);
      EXPECT_EQ(r.capped, total >= cap) << "trial " << trial << " cap " << cap;
      EXPECT_EQ(r.count, std::min(total, cap)) << "trial " << trial << " cap " << cap;
      // A capped run stops at the same point of the same sequence.
      EXPECT_TRUE(std::equal(r.cycles.begin(), r.cycles.end(), full.cycles.begin()))
          << "trial " << trial << " cap " << cap;
    }
  }
}

TEST(Cycles, ReusedScratchMatchesFresh) {
  // The same scratch, warm from larger and smaller graphs, must give the
  // fresh-scratch answer every time.
  Pcg32 rng(77);
  CycleScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.bounded(24));
    Digraph g(n);
    for (int e = 0; e < 2 * n; ++e) {
      g.add_edge(static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n))),
                 static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n))));
    }
    const CycleEnumeration fresh = enumerate_simple_cycles(g, 500, 500);
    scratch.load(g);
    const CycleEnumeration reused = enumerate_simple_cycles(scratch, 500, 500);
    EXPECT_EQ(reused.count, fresh.count) << "trial " << trial;
    EXPECT_EQ(reused.capped, fresh.capped) << "trial " << trial;
    EXPECT_EQ(reused.cycles, fresh.cycles) << "trial " << trial;
  }
}

// --- deep graphs (the search keeps no recursion) ----------------------------

TEST(Cycles, MillionVertexRing) {
  constexpr int kN = 1000000;
  Digraph g(kN);
  for (int i = 0; i < kN; ++i) g.add_edge(i, (i + 1) % kN);
  EXPECT_EQ(enumerate_simple_cycles(g, 1000).count, 1);

  const CycleEnumeration stored = enumerate_simple_cycles(g, 1000, 1);
  EXPECT_EQ(stored.count, 1);
  EXPECT_FALSE(stored.capped);
  ASSERT_EQ(stored.cycles.size(), 1u);
  std::vector<int> ring(kN);
  std::iota(ring.begin(), ring.end(), 0);
  EXPECT_EQ(stored.cycles[0], ring);
}

/// One message holding `length` VCs, oldest first, blocked on its own
/// oldest VC: a single-cycle knot as long as the chain.
Cwg held_chain(int length) {
  CwgMessage msg;
  msg.id = 0;
  msg.held.resize(static_cast<std::size_t>(length));
  std::iota(msg.held.begin(), msg.held.end(), 0);
  msg.requests = {0};
  return Cwg(length, {msg});
}

TEST(Cycles, LongHeldChainKnotHasDensityOne) {
  constexpr int kLength = 200000;
  const Cwg cwg = held_chain(kLength);
  const std::vector<Knot> knots = find_knots(cwg);
  ASSERT_EQ(knots.size(), 1u);
  EXPECT_EQ(knots[0].knot_vcs.size(), static_cast<std::size_t>(kLength));
  const CycleEnumeration density = knot_cycle_density(cwg, knots[0], 100000);
  EXPECT_EQ(density.count, 1);
  EXPECT_FALSE(density.capped);
}

TEST(Cycles, WarmKnotDensityAllocatesNothing) {
  // A knot with several cycles: a held chain plus a second blocked message
  // whose requests add chords.
  CwgMessage a;
  a.id = 0;
  a.held = {0, 1, 2, 3};
  a.requests = {4};
  CwgMessage b;
  b.id = 1;
  b.held = {4, 5, 6};
  b.requests = {0, 2};
  const Cwg cwg(7, {a, b});
  const std::vector<Knot> knots = find_knots(cwg);
  ASSERT_EQ(knots.size(), 1u);

  CycleScratch scratch;
  g_allocations = 0;
  g_count_allocations = true;
  const CycleEnumeration cold = knot_cycle_density(cwg, knots[0], 1000, 0, scratch);
  g_count_allocations = false;
  EXPECT_EQ(cold.count, 2);
  EXPECT_GT(g_allocations.load(), 0);  // the counter sees the cold scratch grow

  g_allocations = 0;
  g_count_allocations = true;
  const CycleEnumeration warm = knot_cycle_density(cwg, knots[0], 1000, 0, scratch);
  g_count_allocations = false;
  EXPECT_EQ(warm.count, cold.count);
  EXPECT_EQ(g_allocations.load(), 0);
}

}  // namespace
}  // namespace flexnet
