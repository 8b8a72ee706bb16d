#include "telemetry/profiler.hpp"

#include <sstream>

#include "util/csv.hpp"

namespace flexnet {

std::int64_t PhaseProfiler::total_ns() const noexcept {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < kNumSimPhases; ++i) {
    if (is_nested(static_cast<SimPhase>(i))) continue;
    total += phases_[i].total_ns;
  }
  return total;
}

std::string PhaseProfiler::table() const {
  TableWriter table("phase profile");
  table.header({"phase", "calls", "total_ms", "mean_us", "max_us", "share"});
  const double total = static_cast<double>(total_ns());
  for (std::size_t i = 0; i < kNumSimPhases; ++i) {
    const auto phase = static_cast<SimPhase>(i);
    const PhaseStats& s = phases_[i];
    const double share =
        (total > 0 && !is_nested(phase))
            ? 100.0 * static_cast<double>(s.total_ns) / total
            : 0.0;
    table.row({std::string(to_string(phase)), TableWriter::integer(s.calls),
               TableWriter::num(static_cast<double>(s.total_ns) / 1e6, 3),
               TableWriter::num(s.mean_ns() / 1e3, 3),
               TableWriter::num(static_cast<double>(s.max_ns) / 1e3, 3),
               is_nested(phase) ? "(in detector)"
                                : TableWriter::num(share, 1) + "%"});
  }
  std::ostringstream out;
  table.print(out);
  return out.str();
}

}  // namespace flexnet
