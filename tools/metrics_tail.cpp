// metrics_tail: validate, watch or summarize a flexnet-metrics-v2 NDJSON
// stream written by `--metrics` (ObsCollector).
//
//   ./tools/metrics_tail run.ndjson            # print records as a table
//   ./tools/metrics_tail run.ndjson --follow   # keep polling for new records
//       (live view of a run in another terminal; stops at the final record
//        or after --idle-limit seconds with no growth, 0 = wait forever)
//   ./tools/metrics_tail run.ndjson --summary  # final/cumulative digest only
//
// The table leads with the precursor columns — score, warning, stall age,
// blocked-component size — because the whole point of the stream is seeing a
// deadlock form before the detector confirms it. Every line is validated:
// truncated or garbage JSON, a missing or unknown schema header, a sample
// record without "cycle", or any record after the final summary fails with
// "<path>:<line>: <reason>" and exit 1, so CI can gate on stream integrity.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "sim/message_class.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace {

using flexnet::JsonValue;

double num(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr ? member->number : 0.0;
}

long long integer(const JsonValue& obj, std::string_view name) {
  return static_cast<long long>(num(obj, name));
}

bool flag(const JsonValue& obj, std::string_view name) {
  const JsonValue* member = obj.find(name);
  return member != nullptr && member->boolean;
}

void print_header_line(const JsonValue& header) {
  std::printf("# interval %lld, warn threshold %g, stall ref %lld, "
              "%lld node(s) / %lld VC(s)\n",
              integer(header, "interval"), num(header, "warn_threshold"),
              integer(header, "stall_ref"), integer(header, "nodes"),
              integer(header, "vcs"));
  std::printf("%10s %9s %5s %9s %9s %7s %7s %7s %9s %9s %6s %5s  %s\n",
              "cycle", "score", "warn", "stall_max", "stall_hwm", "blocked",
              "reqarc", "comp", "delivered", "lat_p99", "active", "knots",
              "classes");
}

// Compact nonzero per-class delivery summary, e.g. "bulk=41 burst=9";
// class_delivered is in class_index order.
std::string class_summary(const JsonValue& rec) {
  const JsonValue* classes = rec.find("class_delivered");
  if (classes == nullptr || !classes->is_array()) return "";
  std::string out;
  for (const flexnet::MessageClass cls : flexnet::all_message_classes()) {
    const std::size_t k = flexnet::class_index(cls);
    if (k >= classes->array.size()) break;
    const long long n = classes->array[k].as_int();
    if (n == 0) continue;
    if (!out.empty()) out += ' ';
    out += flexnet::to_string(cls);
    out += '=';
    out += std::to_string(n);
  }
  return out;
}

void print_sample_line(const JsonValue& rec) {
  std::printf("%10lld %9.4f %5s %9lld %9lld %7lld %7lld %7lld %9lld %9.1f "
              "%6lld %5lld  %s\n",
              integer(rec, "cycle"), num(rec, "score"),
              flag(rec, "warning") ? "WARN" : "", integer(rec, "max_stall_age"),
              integer(rec, "stall_hwm"), integer(rec, "blocked"),
              integer(rec, "request_arcs"), integer(rec, "largest_component"),
              integer(rec, "delivered"), num(rec, "latency_p99"),
              integer(rec, "active_routers"), integer(rec, "det_knots"),
              class_summary(rec).c_str());
}

void print_final(const JsonValue& rec) {
  std::printf("final: %lld sample(s), %lld warning(s), peak score %.4f\n",
              integer(rec, "samples"), integer(rec, "warnings"),
              num(rec, "peak_score"));
  std::printf("       first warning @ %lld, first confirmation @ %lld, "
              "lead %lld cycle(s)\n",
              integer(rec, "first_warning_cycle"),
              integer(rec, "first_confirmation_cycle"),
              integer(rec, "lead_cycles"));
  const JsonValue* latency = rec.find("latency");
  if (latency != nullptr) {
    std::printf("       latency p50 %.1f / p99 %.1f / p999 %.1f / max %lld "
                "(%lld delivered)\n",
                num(*latency, "p50"), num(*latency, "p99"),
                num(*latency, "p999"), integer(*latency, "max"),
                integer(*latency, "count"));
  }
  const JsonValue* stall = rec.find("stall_age");
  if (stall != nullptr) {
    std::printf("       stall age p50 %.1f / p99 %.1f / max %lld, "
                "hwm %lld\n",
                num(*stall, "p50"), num(*stall, "p99"), integer(*stall, "max"),
                integer(rec, "stall_hwm"));
  }
  const JsonValue* classes = rec.find("classes");
  if (classes != nullptr && classes->is_object()) {
    for (const auto& [name, cls] : classes->object) {
      if (integer(cls, "delivered") == 0) continue;
      std::printf("       class %-11s %lld delivered, latency p50 %.1f / "
                  "p99 %.1f / max %lld\n",
                  name.c_str(), integer(cls, "delivered"),
                  num(cls, "latency_p50"), num(cls, "latency_p99"),
                  integer(cls, "latency_max"));
    }
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
  const bool follow = opts->get_bool("follow", false);
  const bool summary = opts->get_bool("summary", false);
  const long long idle_limit = opts->get_int("idle-limit", 30);
  opts->reject_unread();
  if (opts->positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: metrics_tail STREAM.ndjson [--follow] [--summary] "
                 "[--idle-limit SECONDS]\n");
    return 1;
  }
  const std::string& path = opts->positional().front();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  const auto fail = [&](std::size_t at, const std::string& reason) {
    std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), at, reason.c_str());
    return 1;
  };

  std::string line;
  std::size_t lineno = 0;
  long long idle_polls = 0;
  bool saw_final = false;
  JsonValue last_sample;
  bool have_sample = false;
  for (;;) {
    if (!std::getline(in, line)) {
      if (in.bad()) return fail(lineno + 1, "read error");
      if (!follow || saw_final) break;
      // Poll for growth: clear EOF, wait, retry from the same offset.
      if (idle_limit > 0 && ++idle_polls > idle_limit * 5) {
        std::fprintf(stderr, "%s: no growth for %llds, giving up\n",
                     path.c_str(), idle_limit);
        break;
      }
      in.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    idle_polls = 0;
    ++lineno;
    JsonValue rec;
    try {
      rec = JsonValue::parse(line);
    } catch (const std::exception& e) {
      return fail(lineno, e.what());
    }
    if (!rec.is_object()) return fail(lineno, "record is not a JSON object");
    if (saw_final) return fail(lineno, "record after the final summary record");
    if (lineno == 1) {
      const JsonValue* schema = rec.find("schema");
      if (schema == nullptr || schema->string != kMetricsSchema) {
        return fail(1, "missing or unknown schema (want " +
                           std::string(kMetricsSchema) + " header record)");
      }
      if (!summary) print_header_line(rec);
      continue;
    }
    if (flag(rec, "final")) {
      saw_final = true;
      print_final(rec);
      if (!follow) continue;
      break;
    }
    if (rec.find("cycle") == nullptr) {
      return fail(lineno, "sample record has no \"cycle\" field");
    }
    if (summary) {
      last_sample = rec;
      have_sample = true;
    } else {
      print_sample_line(rec);
    }
  }
  if (lineno == 0) return fail(1, "empty metrics stream (no header record)");
  if (summary && !saw_final && have_sample) {
    std::printf("(no final record yet) last sample:\n");
    print_header_line(JsonValue{});
    print_sample_line(last_sample);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
