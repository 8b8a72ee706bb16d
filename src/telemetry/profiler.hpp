// Per-phase wall-clock self-profiling. A PhaseProfiler accumulates call
// counts and total/max nanoseconds for each of the simulator's per-cycle
// phases; ScopedPhase is the RAII timer placed at the hot-path hook points.
// Both follow the tracer's null-guard discipline: a null profiler pointer
// makes every hook a single predictable branch, and a ScopedPhase built from
// nullptr never touches the clock.
//
// Nesting: deadlock recovery, knot cycle density, the knot search and CWG
// builds run *inside* a detector invocation, so the Detector phase's total
// includes theirs. total_ns()
// therefore sums only the phases that are not nested (is_nested).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

namespace flexnet {

/// The simulator's per-cycle phases, in execution order. Each entry's name
/// and nesting are one row of kSimPhaseInfo below.
enum class SimPhase : std::uint8_t {
  Deliver,      ///< Reception interfaces drain ejection VCs.
  Route,        ///< Injection grants + header VC allocation.
  Transmit,     ///< Link transmission (one flit per physical channel).
  Detector,     ///< Deadlock detection pass (includes the nested phases).
  Recovery,     ///< Victim removal inside a detection pass.
  KnotDensity,  ///< Knot cycle density inside a detection pass.
  KnotSearch,   ///< The knot search (SCC over the wait-for graph) in a pass.
  CwgBuild,     ///< Building a CWG in a pass (hooks, samples, the oracle).
  KnotHook,     ///< Forensics and capture hooks on a confirmed knot.
  kCount_,      ///< Sentinel; not a real phase.
};

inline constexpr std::size_t kNumSimPhases =
    static_cast<std::size_t>(SimPhase::kCount_);

/// A phase's manifest/table name, and whether it is timed inside Detector
/// (whose time then already holds it).
struct SimPhaseInfo {
  std::string_view name;
  bool nested;
};

inline constexpr SimPhaseInfo kSimPhaseInfo[] = {
    {"deliver", false},      {"route", false},
    {"transmit", false},     {"detector", false},
    {"recovery", true},      {"knot_density", true},
    {"knot_search", true},   {"cwg_build", true},
    {"knot_hook", true},
};
static_assert(std::size(kSimPhaseInfo) == kNumSimPhases,
              "one kSimPhaseInfo row per SimPhase");

[[nodiscard]] constexpr std::string_view to_string(SimPhase phase) noexcept {
  return kSimPhaseInfo[static_cast<std::size_t>(phase)].name;
}

/// True for a phase timed inside Detector, whose time Detector's total
/// already holds.
[[nodiscard]] constexpr bool is_nested(SimPhase phase) noexcept {
  return kSimPhaseInfo[static_cast<std::size_t>(phase)].nested;
}

class PhaseProfiler {
 public:
  struct PhaseStats {
    std::int64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t max_ns = 0;

    [[nodiscard]] double mean_ns() const noexcept {
      return calls > 0 ? static_cast<double>(total_ns) /
                             static_cast<double>(calls)
                       : 0.0;
    }
  };

  void record(SimPhase phase, std::int64_t ns) noexcept {
    PhaseStats& s = phases_[static_cast<std::size_t>(phase)];
    ++s.calls;
    s.total_ns += ns;
    if (ns > s.max_ns) s.max_ns = ns;
  }

  [[nodiscard]] const PhaseStats& stats(SimPhase phase) const noexcept {
    return phases_[static_cast<std::size_t>(phase)];
  }

  /// Total profiled time; excludes the nested phases (already inside
  /// Detector).
  [[nodiscard]] std::int64_t total_ns() const noexcept;

  void reset() noexcept { phases_.fill(PhaseStats{}); }

  /// Aligned text table (phase, calls, total ms, mean us, max us, share).
  [[nodiscard]] std::string table() const;

 private:
  std::array<PhaseStats, kNumSimPhases> phases_{};
};

/// RAII phase timer; no-op when constructed with a null profiler.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, SimPhase phase) noexcept
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profiler_->record(
        phase_,
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  }

 private:
  PhaseProfiler* profiler_;
  SimPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace flexnet
