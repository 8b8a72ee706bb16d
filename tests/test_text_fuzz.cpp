// Seeded mutation fuzzer for the four line-oriented text formats
// (flexnet-topo-v1, flexnet-rtable-v1, flexnet-trace-v1, flexnet-pace-v1)
// and the flexnet-btrace binary trace. Each input is a valid file: the
// committed .topo files, plus a route table, a trace, a pace profile and a
// binary trace written by their writers. Every text mutant must either
// parse or throw std::runtime_error whose message starts with
// "<origin>:<line>: ", every binary mutant "<origin>: byte <offset>: "; any
// other exception fails here, and a crash or memory error fails the
// sanitizer builds. Seeds and counts are fixed, so the run is the same
// everywhere.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "routing/table.hpp"
#include "sim/network.hpp"
#include "topo/topo_file.hpp"
#include "trace/sinks.hpp"
#include "util/rng.hpp"
#include "workload/pace.hpp"
#include "workload/trace_file.hpp"

namespace flexnet {
namespace {

constexpr int kMutantsPerInput = 2000;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One to three stacked mutations: truncate, flip a byte, duplicate, drop
/// or swap lines, or replace one token with a hostile value.
std::string mutate(std::string text, Pcg32& rng) {
  static const char* const kHostile[] = {"nan", "inf", "-1", "+",
                                         "99999999999999999999", ""};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.bounded(static_cast<std::uint32_t>(n)));
  };
  for (std::size_t steps = 1 + pick(3); steps > 0; --steps) {
    const std::size_t op = pick(6);
    if (op == 0) {
      text.resize(pick(text.size() + 1));
      continue;
    }
    if (op == 1) {
      if (!text.empty()) {
        text[pick(text.size())] ^= static_cast<char>(1 + pick(255));
      }
      continue;
    }
    std::vector<std::string> lines = split_lines(text);
    if (lines.empty()) continue;
    const std::size_t i = pick(lines.size());
    if (op == 2) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
    } else if (op == 3) {
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op == 4) {
      std::swap(lines[i], lines[pick(lines.size())]);
    } else {
      std::vector<std::string> tokens;
      std::istringstream ls(lines[i]);
      for (std::string tok; ls >> tok;) tokens.push_back(tok);
      if (tokens.empty()) continue;
      tokens[pick(tokens.size())] = kHostile[pick(std::size(kHostile))];
      lines[i].clear();
      for (const std::string& tok : tokens) lines[i] += tok + " ";
    }
    text.clear();
    for (const std::string& line : lines) text += line + "\n";
  }
  return text;
}

/// True when `what` starts with `origin` + `sep` + a decimal number + ": ".
bool names_origin_and_number(const std::string& what, const std::string& origin,
                             const std::string& sep) {
  if (what.rfind(origin + sep, 0) != 0) return false;
  const std::size_t digits = origin.size() + sep.size();
  std::size_t at = digits;
  while (at < what.size() &&
         std::isdigit(static_cast<unsigned char>(what[at])) != 0) {
    ++at;
  }
  return at > digits && what.compare(at, 2, ": ") == 0;
}

/// Runs `parse` on kMutantsPerInput mutants of `text` and checks the error
/// shape of every rejection.
using Mutator = std::function<std::string(std::string, Pcg32&)>;

void fuzz(const std::string& text, const std::string& origin,
          std::uint64_t seed,
          const std::function<void(const std::string&)>& parse,
          const Mutator& mutator = mutate, const std::string& sep = ":") {
  parse(text);  // the unmutated input is valid
  Pcg32 rng(seed);
  int accepted = 0, rejected = 0, failures = 0;
  for (int n = 0; n < kMutantsPerInput; ++n) {
    const std::string mutant = mutator(text, rng);
    std::string problem;
    try {
      parse(mutant);
      ++accepted;
    } catch (const std::runtime_error& e) {
      ++rejected;
      if (!names_origin_and_number(e.what(), origin, sep)) {
        problem = "error lacks " + origin + sep + "N: " + e.what();
      }
    } catch (const std::exception& e) {
      problem = std::string("wrong exception type: ") + e.what();
    }
    if (!problem.empty() && failures++ < 3) {
      ADD_FAILURE() << origin << " mutant " << n << ": " << problem
                    << "\n--- mutant ---\n" << mutant;
    }
  }
  EXPECT_EQ(failures, 0) << origin;
  // Both outcomes occur, so the mutants reach the readers' error paths and
  // their accepting paths alike.
  EXPECT_GT(accepted, 0) << origin;
  EXPECT_GT(rejected, 0) << origin;
}

TEST(TextFuzz, Topo) {
  std::uint64_t seed = 1;
  for (const char* name :
       {"irregular-16.topo", "full-mesh-8.topo", "dragonfly-72.topo"}) {
    std::ifstream in(std::string(FLEXNET_TOPO_DIR) + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::ostringstream text;
    text << in.rdbuf();
    fuzz(text.str(), name, seed++, [name](const std::string& mutant) {
      std::istringstream min(mutant);
      (void)parse_topology_text(min, name);
    });
  }
}

TEST(TextFuzz, RouteTable) {
  SimConfig cfg;
  cfg.topo_kind = TopoKind::RandomIrregular;
  cfg.topo_nodes = 10;
  cfg.topo_degree = 3;
  cfg.routing = RoutingKind::TableUpDown;
  const Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                     make_selection(cfg.selection)});
  std::ostringstream dump;
  dynamic_cast<const TableRouting&>(net.routing_algorithm()).dump(dump);
  const std::string path = ::testing::TempDir() + "flexnet_fuzz.rt";
  fuzz(dump.str(), path, 11, [&](const std::string& mutant) {
    std::ofstream(path, std::ios::binary) << mutant;
    TableRouting table(TableRouting::Mode::UpDown, path);
    table.attach(net);
  });
  std::filesystem::remove(path);
}

TEST(TextFuzz, Trace) {
  TraceHeader header;
  header.nodes = 16;
  header.traffic.load = 0.3;
  header.avg_distance = 2.5;
  header.capacity = 1.0;
  header.offered = 0.25;
  std::ostringstream out;
  TraceCaptureWriter writer(out, header);
  Pcg32 rng(21);
  const auto& classes = all_message_classes();
  for (Cycle cycle = 0; cycle < 40; cycle += 2) {
    const auto src = static_cast<NodeId>(rng.bounded(16));
    const auto dst = (src + 1 + static_cast<NodeId>(rng.bounded(15))) % 16;
    const auto length = 1 + static_cast<std::int32_t>(rng.bounded(16));
    const auto cls = rng.bounded(static_cast<std::uint32_t>(classes.size()));
    writer.record(cycle, src, dst, length, classes[cls]);
  }
  writer.finish();
  fuzz(out.str(), "run.trace", 22, [](const std::string& mutant) {
    std::istringstream in(mutant);
    (void)read_trace(in, "run.trace");
  });
}

TEST(TextFuzz, Pace) {
  std::ostringstream out;
  write_pace(out, PaceProfile({PacePhase{40, 0.0, 2.0, MessageClass::Bulk},
                               PacePhase{10, 3.0, 3.0, MessageClass::Burst},
                               PacePhase{30, 0.5, 0.5, MessageClass::Bulk}},
                              /*repeat=*/false));
  fuzz(out.str(), "profile.pace", 31, [](const std::string& mutant) {
    std::istringstream in(mutant);
    (void)read_pace(in, "profile.pace");
  });
}

/// One to three stacked byte mutations: truncate, flip one bit, or splice a
/// run of bytes from one offset over another.
std::string mutate_bytes(std::string bytes, Pcg32& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.bounded(static_cast<std::uint32_t>(n)));
  };
  for (std::size_t steps = 1 + pick(3); steps > 0; --steps) {
    const std::size_t op = pick(3);
    if (op == 0) {
      bytes.resize(pick(bytes.size() + 1));
    } else if (!bytes.empty() && op == 1) {
      bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
    } else if (!bytes.empty()) {
      const std::size_t from = pick(bytes.size());
      const std::size_t to = pick(bytes.size());
      const std::string run =
          bytes.substr(from, 1 + pick(2 * kBinaryTraceEventSize));
      bytes.replace(to, run.size(), run);
    }
  }
  return bytes;
}

TEST(TextFuzz, BinaryTrace) {
  std::ostringstream out(std::ios::binary);
  BinaryTraceSink sink(out);
  Pcg32 rng(41);
  for (Cycle cycle = 0; cycle < 30; ++cycle) {
    TraceEvent e;
    e.cycle = cycle;
    e.kind = static_cast<TraceEventKind>(rng.bounded(kNumTraceEventKinds));
    e.message = rng.bounded(8);
    e.vc = static_cast<VcId>(rng.bounded(64));
    e.node = static_cast<NodeId>(rng.bounded(16));
    sink.on_event(e);
  }
  sink.flush();
  fuzz(out.str(), "run.bin", 42, [](const std::string& mutant) {
    std::istringstream in(mutant, std::ios::binary);
    (void)read_binary_trace(in, "run.bin");
  }, mutate_bytes, ": byte ");
}

}  // namespace
}  // namespace flexnet
