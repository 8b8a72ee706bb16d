#include "workload/trace_file.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/parse.hpp"

namespace flexnet {

namespace {

/// Shortest round-trip decimal for a double (same policy as util/json).
std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw std::logic_error("double format failed");
  return std::string(buf, ptr);
}

void hash_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  // FNV-1a over the value's 8 bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t TraceData::content_hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_mix(h, static_cast<std::uint64_t>(header.nodes));
  hash_mix(h, static_cast<std::uint64_t>(header.traffic.pattern));
  hash_mix(h, double_bits(header.traffic.load));
  hash_mix(h, static_cast<std::uint64_t>(header.traffic.hotspot_nodes));
  hash_mix(h, double_bits(header.traffic.hotspot_fraction));
  hash_mix(h, double_bits(header.traffic.hybrid_fraction));
  hash_mix(h, static_cast<std::uint64_t>(header.traffic.hybrid_with));
  hash_mix(h, double_bits(header.avg_distance));
  hash_mix(h, double_bits(header.capacity));
  hash_mix(h, double_bits(header.offered));
  for (const TraceRecord& r : records) {
    hash_mix(h, static_cast<std::uint64_t>(r.cycle));
    hash_mix(h, static_cast<std::uint64_t>(r.src));
    hash_mix(h, static_cast<std::uint64_t>(r.dst));
    hash_mix(h, static_cast<std::uint64_t>(r.length));
    hash_mix(h, static_cast<std::uint64_t>(r.cls));
  }
  return h;
}

TraceData read_trace(std::istream& in, const std::string& origin) {
  TraceData data;
  LineReader r(in, origin, kTraceMagic);
  const auto kind = [&r](std::size_t i) {
    try {
      return parse_traffic_kind(r.field(i));
    } catch (const std::invalid_argument& e) {
      r.fail(e.what());
    }
  };

  bool have_nodes = false, have_pattern = false, have_load = false;
  bool have_avg = false, have_cap = false, have_off = false;
  const auto header_complete = [&] {
    return have_nodes && have_pattern && have_load && have_avg && have_cap &&
           have_off;
  };
  bool saw_end = false;
  constexpr long long kMaxInt = std::numeric_limits<std::int32_t>::max();
  constexpr long long kMaxCount = std::numeric_limits<long long>::max();

  while (r.next()) {
    const std::string kw(r.field(0));
    if (saw_end) r.fail("content after end trailer");

    if (kw == "msg") {
      r.expect(6, "msg <cycle> <src> <dst> <len> <class>");
      if (!header_complete()) r.fail("msg before complete header");
      TraceRecord rec;
      rec.cycle = r.integer(1, 0, kMaxCount);
      rec.src = static_cast<NodeId>(r.integer(2, 0, data.header.nodes - 1));
      rec.dst = static_cast<NodeId>(r.integer(3, 0, data.header.nodes - 1));
      rec.length = static_cast<std::int32_t>(r.integer(4, 1, kMaxInt));
      try {
        rec.cls = parse_message_class(r.field(5));
      } catch (const std::invalid_argument& e) {
        r.fail(e.what());
      }
      if (!data.records.empty() && rec.cycle < data.records.back().cycle) {
        r.fail("cycles must be nondecreasing");
      }
      if (rec.src == rec.dst) r.fail("src == dst");
      data.records.push_back(rec);
      continue;
    }
    if (kw == "end") {
      r.expect(2, "end <count>");
      const long long count = r.integer(1, 0, kMaxCount);
      if (static_cast<std::size_t>(count) != data.records.size()) {
        r.fail("trailer count " + std::to_string(count) + " != " +
               std::to_string(data.records.size()) + " records");
      }
      saw_end = true;
      continue;
    }

    // Header directives: keyword value.
    r.expect(2, kw + " <value>");
    if (kw == "nodes") {
      data.header.nodes = static_cast<NodeId>(r.integer(1, 2, kMaxInt));
      have_nodes = true;
    } else if (kw == "pattern") {
      data.header.traffic.pattern = kind(1);
      have_pattern = true;
    } else if (kw == "load") {
      data.header.traffic.load = r.finite(1);
      have_load = true;
    } else if (kw == "hotspots") {
      data.header.traffic.hotspot_nodes =
          static_cast<int>(r.integer(1, -kMaxInt - 1, kMaxInt));
    } else if (kw == "hotspot_fraction") {
      data.header.traffic.hotspot_fraction = r.finite(1);
    } else if (kw == "hybrid_fraction") {
      data.header.traffic.hybrid_fraction = r.finite(1);
    } else if (kw == "hybrid_with") {
      data.header.traffic.hybrid_with = kind(1);
    } else if (kw == "avg_distance") {
      data.header.avg_distance = r.finite(1);
      have_avg = true;
    } else if (kw == "capacity") {
      data.header.capacity = r.finite(1);
      have_cap = true;
    } else if (kw == "offered") {
      data.header.offered = r.finite(1);
      have_off = true;
    } else {
      r.fail("unknown directive: " + kw);
    }
  }

  if (!saw_end) r.fail("missing end trailer (truncated trace?)");
  if (!header_complete()) r.fail("incomplete header");
  return data;
}

TraceData read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in, path);
}

namespace {

void write_trace_header(std::ostream& out, const TraceHeader& h) {
  out << kTraceMagic << '\n';
  out << "nodes " << h.nodes << '\n';
  out << "pattern " << to_string(h.traffic.pattern) << '\n';
  out << "load " << format_double(h.traffic.load) << '\n';
  out << "hotspots " << h.traffic.hotspot_nodes << '\n';
  out << "hotspot_fraction " << format_double(h.traffic.hotspot_fraction)
      << '\n';
  out << "hybrid_fraction " << format_double(h.traffic.hybrid_fraction) << '\n';
  out << "hybrid_with " << to_string(h.traffic.hybrid_with) << '\n';
  out << "avg_distance " << format_double(h.avg_distance) << '\n';
  out << "capacity " << format_double(h.capacity) << '\n';
  out << "offered " << format_double(h.offered) << '\n';
}

void write_trace_record(std::ostream& out, Cycle cycle, NodeId src, NodeId dst,
                        std::int32_t length, MessageClass cls) {
  out << "msg " << cycle << ' ' << src << ' ' << dst << ' ' << length << ' '
      << to_string(cls) << '\n';
}

}  // namespace

void write_trace(std::ostream& out, const TraceData& data) {
  write_trace_header(out, data.header);
  for (const TraceRecord& r : data.records) {
    write_trace_record(out, r.cycle, r.src, r.dst, r.length, r.cls);
  }
  out << "end " << data.records.size() << '\n';
}

TraceCaptureWriter::TraceCaptureWriter(std::ostream& out,
                                       const TraceHeader& header)
    : out_(&out) {
  write_trace_header(*out_, header);
}

void TraceCaptureWriter::record(Cycle cycle, NodeId src, NodeId dst,
                                std::int32_t length, MessageClass cls) {
  if (finished_) throw std::logic_error("trace capture already finished");
  if (cycle < last_cycle_) {
    throw std::logic_error("trace capture cycles must be nondecreasing");
  }
  last_cycle_ = cycle;
  write_trace_record(*out_, cycle, src, dst, length, cls);
  ++count_;
}

void TraceCaptureWriter::finish() {
  if (finished_) throw std::logic_error("trace capture already finished");
  finished_ = true;
  *out_ << "end " << count_ << '\n';
  out_->flush();
  if (!*out_) throw std::runtime_error("trace capture write failed");
}

}  // namespace flexnet
