// The one reader for outside input: the value grammar, the line lexer, and
// the lexical rules every text format shares (CRLF, inline comments,
// whitespace-only lines) pinned on the real readers.
#include "util/parse.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "routing/table.hpp"
#include "sim/network.hpp"
#include "topo/generators.hpp"
#include "topo/topo_file.hpp"
#include "workload/pace.hpp"
#include "workload/trace_file.hpp"

namespace flexnet {
namespace {

constexpr long long kMin = std::numeric_limits<long long>::min();
constexpr long long kMax = std::numeric_limits<long long>::max();

TEST(ParseInt, WholeDecimalTokenInRange) {
  EXPECT_EQ(parse_int("42", 0, 100), 42);
  EXPECT_EQ(parse_int("+7", kMin, kMax), 7);
  EXPECT_EQ(parse_int("-42", kMin, kMax), -42);
  EXPECT_EQ(parse_int("9223372036854775807", kMin, kMax), kMax);
  for (const char* bad : {"", "+", "-", "+-1", "1e9x", "1e9", "3.5", " 2",
                          "2 ", "0x10", "abc", "99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad, kMin, kMax)) << "accepted: '" << bad << "'";
  }
  EXPECT_FALSE(parse_int("0", 1, 10));
  EXPECT_FALSE(parse_int("11", 1, 10));
}

TEST(ParseFinite, RejectsNanInfAndOverflow) {
  EXPECT_EQ(parse_finite("2.5"), 2.5);
  EXPECT_EQ(parse_finite("+0.5"), 0.5);
  EXPECT_EQ(parse_finite("-1e-3"), -1e-3);
  EXPECT_EQ(parse_finite("7"), 7.0);
  for (const char* bad : {"", "+", "nan", "-nan", "NaN", "inf", "-inf",
                          "infinity", "1e999", "0.5x", "0x1p3", " 1", "+-1"}) {
    EXPECT_FALSE(parse_finite(bad)) << "accepted: '" << bad << "'";
  }
}

TEST(ParseBool, ExactlyEightSpellings) {
  for (const char* yes : {"1", "true", "yes", "on"}) {
    EXPECT_EQ(parse_bool(yes), true) << yes;
  }
  for (const char* no : {"0", "false", "no", "off"}) {
    EXPECT_EQ(parse_bool(no), false) << no;
  }
  for (const char* bad : {"", "maybe", "True", "YES", "2", "y", " on"}) {
    EXPECT_FALSE(parse_bool(bad)) << "accepted: '" << bad << "'";
  }
}

TEST(ParseFiniteList, CommaSeparatedWithoutEmptyItems) {
  EXPECT_EQ(parse_finite_list("0.1,0.25,+1"),
            (std::vector<double>{0.1, 0.25, 1.0}));
  EXPECT_EQ(parse_finite_list("3"), (std::vector<double>{3.0}));
  for (const char* bad : {"", ",", "0.1,", ",0.1", "0.1,,0.2", "0.1 0.2",
                          "0.1,nan", "abc"}) {
    EXPECT_FALSE(parse_finite_list(bad)) << "accepted: '" << bad << "'";
  }
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::runtime_error";
  return {};
}

TEST(LineReader, SkipsCommentsBlanksAndCarriageReturns) {
  std::istringstream in(
      "demo-v1 # magic\r\n"
      "\n"
      " \t \r\n"
      "# a comment\n"
      "  a\t1  2#tail\r\n"
      "b +3\n");
  LineReader r(in, "t", "demo-v1");
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.field(0), "a");
  EXPECT_EQ(r.integer(2, 0, 9), 2);
  ASSERT_TRUE(r.next());
  EXPECT_EQ(r.integer(1, 0, 9), 3);
  EXPECT_FALSE(r.next());
}

TEST(LineReader, EveryErrorNamesOriginAndLine) {
  EXPECT_EQ(error_of([] {
              std::istringstream in("");
              LineReader r(in, "f", "demo-v1");
            }),
            "f:1: empty input (expected demo-v1)");
  EXPECT_EQ(error_of([] {
              std::istringstream in("demo-v2\n");
              LineReader r(in, "f", "demo-v1");
            }),
            "f:1: bad magic (expected demo-v1)");
  EXPECT_EQ(error_of([] {
              std::istringstream in("demo-v1\n\nx 1.5\n");
              LineReader r(in, "f", "demo-v1");
              (void)r.next();
              (void)r.integer(1, 0, 9);
            }),
            "f:3: x field 1: expected an integer in [0, 9], got '1.5'");
  EXPECT_EQ(error_of([] {
              std::istringstream in("demo-v1\nx nan\n");
              LineReader r(in, "f", "demo-v1");
              (void)r.next();
              (void)r.finite(1);
            }),
            "f:2: x field 1: expected a finite number, got 'nan'");
  EXPECT_EQ(error_of([] {
              std::istringstream in("demo-v1\nx\n");
              LineReader r(in, "f", "demo-v1");
              (void)r.next();
              (void)r.boolean(1);
            }),
            "f:2: x is missing field 1");
  // End-of-file errors name the last line.
  EXPECT_EQ(error_of([] {
              std::istringstream in("demo-v1\nx 1\n\n# end\n");
              LineReader r(in, "f", "demo-v1");
              while (r.next()) {
              }
              r.fail("missing trailer");
            }),
            "f:4: missing trailer");
}

// ------------------------------------------- one rule set for every format

/// Rewrites valid LF text the way hand-edited files arrive: CRLF line ends,
/// an inline comment on every line, whitespace-only and comment-only lines
/// between lines, tabs and indentation around tokens.
std::vector<std::pair<std::string, std::string>> lexical_variants(
    const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  const auto join = [&](const std::function<std::string(std::size_t)>& f) {
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) out += f(i);
    return out;
  };
  return {
      {"crlf", join([&](std::size_t i) { return lines[i] + "\r\n"; })},
      {"inline comments",
       join([&](std::size_t i) { return lines[i] + " # note #2\n"; })},
      {"gap lines", join([&](std::size_t i) {
         return lines[i] + "\n \t \n\n# only a comment\n";
       })},
      {"tabs and indentation", join([&](std::size_t i) {
         std::string line = lines[i];
         for (char& c : line) {
           if (c == ' ') c = '\t';
         }
         return "  " + line + " \t\n";
       })},
  };
}

void expect_same_under_variants(
    const std::string& text,
    const std::function<std::string(const std::string&)>& canonical) {
  const std::string expected = canonical(text);
  for (const auto& [name, variant] : lexical_variants(text)) {
    try {
      EXPECT_EQ(canonical(variant), expected) << name;
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " rejected: " << e.what();
    }
  }
}

TEST(SharedLexicalRules, Topo) {
  expect_same_under_variants(
      write_topology_text(random_irregular_spec(12, 3, 4)),
      [](const std::string& text) {
        std::istringstream in(text);
        return write_topology_text(parse_topology_text(in, "t"));
      });
}

TEST(SharedLexicalRules, Trace) {
  TraceHeader header;
  header.nodes = 16;
  header.avg_distance = 2.5;
  header.capacity = 1.0;
  header.offered = 0.25;
  std::ostringstream out;
  TraceCaptureWriter writer(out, header);
  writer.record(0, 1, 2, 8, MessageClass::Burst);
  writer.record(4, 3, 9, 4, MessageClass::Bulk);
  writer.finish();
  expect_same_under_variants(out.str(), [](const std::string& text) {
    std::istringstream in(text);
    std::ostringstream again;
    write_trace(again, read_trace(in, "t"));
    return again.str();
  });
}

TEST(SharedLexicalRules, Pace) {
  std::ostringstream out;
  write_pace(out, parse_pace_spec("burst(80,0.25,3)"));
  expect_same_under_variants(out.str(), [](const std::string& text) {
    std::istringstream in(text);
    std::ostringstream again;
    write_pace(again, read_pace(in, "t"));
    return again.str();
  });
}

TEST(SharedLexicalRules, RouteTable) {
  SimConfig cfg;
  cfg.topo_kind = TopoKind::RandomIrregular;
  cfg.topo_nodes = 10;
  cfg.topo_degree = 3;
  cfg.routing = RoutingKind::TableUpDown;
  const Network net(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                     make_selection(cfg.selection)});
  std::ostringstream dump;
  dynamic_cast<const TableRouting&>(net.routing_algorithm()).dump(dump);
  const std::string path = ::testing::TempDir() + "flexnet_lexical.rt";
  expect_same_under_variants(dump.str(), [&](const std::string& text) {
    std::ofstream(path, std::ios::binary) << text;
    TableRouting loaded(TableRouting::Mode::UpDown, path);
    loaded.attach(net);
    std::ostringstream again;
    loaded.dump(again);
    return again.str();
  });
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace flexnet
