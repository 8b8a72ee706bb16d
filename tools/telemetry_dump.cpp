// telemetry_dump: inspect a telemetry run manifest written by
// --telemetry-json (write_manifest_json). The interval series lives in the
// metrics stream the manifest points at; read that with tools/metrics_tail.
//
//   ./tools/telemetry_dump run.json               # human-readable summary
//   ./tools/telemetry_dump run.json --hot         # hot-channel table only
//   ./tools/telemetry_dump run.json.p0 run.json.p1   # several sweep points
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/options.hpp"

namespace {

using flexnet::JsonValue;

double num(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->number : 0.0;
}

std::int64_t integer(const JsonValue& obj, std::string_view name) {
  return static_cast<std::int64_t>(num(obj, name));
}

std::string str(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr && member->is_string() ? member->string : "?";
}

void print_summary(const JsonValue& root) {
  const JsonValue& config = root.at("config");
  const JsonValue& sim = config.at("sim");
  const JsonValue& traffic = config.at("traffic");
  const JsonValue& result = root.at("result");
  const JsonValue& window = result.at("window");
  const JsonValue* build = root.find("build");

  std::printf("schema    %s  (build %s)\n", str(root, "schema").c_str(),
              build != nullptr ? str(*build, "git_sha").c_str() : "?");
  std::printf("network   %lld-ary %lld-cube, %lld VC(s), depth %lld, %s\n",
              static_cast<long long>(integer(sim, "k")),
              static_cast<long long>(integer(sim, "n")),
              static_cast<long long>(integer(sim, "vcs")),
              static_cast<long long>(integer(sim, "buffer_depth")),
              str(sim, "routing").c_str());
  std::printf("traffic   %s @ load %.4f (seed %llu)\n",
              str(traffic, "pattern").c_str(), num(traffic, "load"),
              static_cast<unsigned long long>(integer(sim, "seed")));
  std::printf("result    norm throughput %.4f, accepted %.4f%s\n",
              num(result, "normalized_throughput"),
              num(result, "accepted_ratio"),
              result.at("saturated").boolean ? ", SATURATED" : "");
  std::printf("          deadlocks %lld, avg latency %.1f\n",
              static_cast<long long>(integer(window, "deadlocks")),
              num(window, "avg_latency"));

  const JsonValue* metrics = root.find("metrics");
  if (metrics != nullptr) {
    const JsonValue* path = metrics->find("path");
    std::printf("metrics   %lld samples every %lld cycles, %lld warning(s)%s%s\n",
                static_cast<long long>(integer(*metrics, "samples")),
                static_cast<long long>(integer(*metrics, "interval")),
                static_cast<long long>(integer(*metrics, "warnings")),
                path != nullptr ? ", stream " : "",
                path != nullptr ? path->string.c_str() : "");
  }

  const JsonValue& heatmap = root.at("heatmap");
  std::printf("heatmap   %lld traversals, %lld blocked cycles, "
              "%lld injection-stall cycles\n",
              static_cast<long long>(integer(heatmap, "total_traversals")),
              static_cast<long long>(integer(heatmap, "total_blocked_cycles")),
              static_cast<long long>(
                  integer(heatmap, "total_injection_stall_cycles")));

  const JsonValue& profile = root.at("profile");
  std::printf("profile   %.3f ms total\n",
              num(profile, "total_ns") / 1e6);
}

void print_hot_channels(const JsonValue& root) {
  const JsonValue& hot = root.at("heatmap").at("hot_channels");
  std::printf("%8s %6s %6s %4s %4s %12s %12s %12s\n", "channel", "src", "dst",
              "dim", "dir", "traversals", "busy", "blocked");
  for (const JsonValue& c : hot.array) {
    std::printf("%8lld %6lld %6lld %4lld %4lld %12lld %12lld %12lld\n",
                static_cast<long long>(integer(c, "channel")),
                static_cast<long long>(integer(c, "src")),
                static_cast<long long>(integer(c, "dst")),
                static_cast<long long>(integer(c, "dim")),
                static_cast<long long>(integer(c, "dir")),
                static_cast<long long>(integer(c, "traversals")),
                static_cast<long long>(integer(c, "busy_cycles")),
                static_cast<long long>(integer(c, "blocked_cycles")));
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace flexnet;
  std::string error;
  const auto opts = Options::parse(argc, argv, &error);
  if (!opts) {
    std::fprintf(stderr, "argument error: %s\n", error.c_str());
    return 1;
  }
  const bool hot = opts->get_bool("hot", false);
  opts->reject_unread();
  if (opts->positional().empty()) {
    std::fprintf(stderr, "usage: telemetry_dump MANIFEST... [--hot]\n");
    return 1;
  }

  bool first = true;
  for (const std::string& path : opts->positional()) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    JsonValue root;
    try {
      root = JsonValue::parse(buffer.str());
      if (!first) std::printf("\n");
      first = false;
      if (opts->positional().size() > 1) std::printf("== %s ==\n", path.c_str());
      if (hot) {
        print_hot_channels(root);
      } else {
        print_summary(root);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error reading %s: %s\n", path.c_str(), e.what());
      return 1;
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
