#include "workload/pace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/binio.hpp"
#include "util/parse.hpp"

namespace flexnet {

namespace {

/// Longest phase or generator period, in cycles.
constexpr Cycle kMaxPacePeriod = 1'000'000'000'000;

void hash_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string format_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw std::logic_error("double format failed");
  return std::string(buf, ptr);
}

}  // namespace

PaceProfile::PaceProfile(std::vector<PacePhase> phases, bool repeat)
    : phases_(std::move(phases)), repeat_(repeat) {
  if (phases_.empty()) {
    throw std::invalid_argument("pace profile needs at least one phase");
  }
  for (const PacePhase& p : phases_) {
    if (p.cycles < 1) {
      throw std::invalid_argument("pace phase duration must be >= 1 cycle");
    }
    if (p.rate0 < 0.0 || p.rate1 < 0.0 || !std::isfinite(p.rate0) ||
        !std::isfinite(p.rate1)) {
      throw std::invalid_argument("pace phase rates must be finite and >= 0");
    }
    period_ += p.cycles;
  }
}

double PaceProfile::multiplier_at(Cycle cycle, MessageClass* cls) const {
  if (phases_.empty()) {
    if (cls != nullptr) *cls = MessageClass::Bulk;
    return 1.0;
  }
  Cycle t = cycle;
  if (repeat_) {
    t = cycle % period_;
  } else if (t >= period_) {
    // Clamp: hold the last phase's terminal rate and class forever.
    const PacePhase& last = phases_.back();
    if (cls != nullptr) *cls = last.cls;
    return last.rate1;
  }
  for (const PacePhase& p : phases_) {
    if (t < p.cycles) {
      if (cls != nullptr) *cls = p.cls;
      return p.rate0 + (p.rate1 - p.rate0) * (static_cast<double>(t) /
                                              static_cast<double>(p.cycles));
    }
    t -= p.cycles;
  }
  // Unreachable: t < period_ == sum of phase durations.
  if (cls != nullptr) *cls = phases_.back().cls;
  return phases_.back().rate1;
}

double PaceProfile::max_multiplier() const noexcept {
  double m = phases_.empty() ? 1.0 : 0.0;
  for (const PacePhase& p : phases_) {
    m = std::max(m, std::max(p.rate0, p.rate1));
  }
  return m;
}

double PaceProfile::mean_multiplier() const noexcept {
  if (phases_.empty()) return 1.0;
  double area = 0.0;
  for (const PacePhase& p : phases_) {
    area += static_cast<double>(p.cycles) * (p.rate0 + p.rate1) / 2.0;
  }
  return area / static_cast<double>(period_);
}

std::uint64_t PaceProfile::content_hash() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_mix(h, repeat_ ? 1 : 0);
  for (const PacePhase& p : phases_) {
    hash_mix(h, static_cast<std::uint64_t>(p.cycles));
    hash_mix(h, double_bits(p.rate0));
    hash_mix(h, double_bits(p.rate1));
    hash_mix(h, static_cast<std::uint64_t>(p.cls));
  }
  return h;
}

namespace {

/// Parses "name(a,b,...)" argument lists for the built-in generators.
std::vector<double> parse_args(const std::string& spec, std::size_t open,
                               std::size_t expected) {
  const auto args =
      spec.back() == ')'
          ? parse_finite_list(
                std::string_view(spec).substr(open + 1, spec.size() - open - 2))
          : std::nullopt;
  if (!args) throw std::invalid_argument("malformed pace spec: " + spec);
  if (args->size() != expected) {
    throw std::invalid_argument("pace spec expects " +
                                std::to_string(expected) + " arguments: " +
                                spec);
  }
  return *args;
}

Cycle checked_period(double period) {
  if (!(period >= 2.0) || period != std::floor(period) ||
      period > static_cast<double>(kMaxPacePeriod)) {
    throw std::invalid_argument("pace period must be an integer >= 2");
  }
  return static_cast<Cycle>(period);
}

PaceProfile make_burst(Cycle period, double duty, double peak) {
  if (!(duty > 0.0 && duty < 1.0)) {
    throw std::invalid_argument("burst duty must be in (0, 1)");
  }
  if (!(peak >= 1.0) || peak * duty > 1.0) {
    throw std::invalid_argument("burst peak must satisfy 1 <= peak <= 1/duty");
  }
  const Cycle on = std::max<Cycle>(
      1, static_cast<Cycle>(std::llround(duty * static_cast<double>(period))));
  const Cycle off = period - on;
  if (off < 1) {
    throw std::invalid_argument("burst duty leaves no OFF cycles");
  }
  // Mean-preserving baseline: on*peak + off*base == period  (average 1.0),
  // using the realized integer ON duration rather than the requested duty.
  const double base = (static_cast<double>(period) -
                       static_cast<double>(on) * peak) /
                      static_cast<double>(off);
  std::vector<PacePhase> phases{
      PacePhase{on, peak, peak, MessageClass::Burst},
      PacePhase{off, base, base, MessageClass::Bulk},
  };
  return PaceProfile(std::move(phases), /*repeat=*/true);
}

}  // namespace

PaceProfile parse_pace_spec(const std::string& spec) {
  if (spec.rfind("file:", 0) == 0) {
    return load_pace_file(spec.substr(5));
  }
  const std::size_t open = spec.find('(');
  if (open == std::string::npos) {
    throw std::invalid_argument("unknown pace spec: " + spec);
  }
  const std::string name = spec.substr(0, open);
  if (name == "burst") {
    const auto args = parse_args(spec, open, 3);
    return make_burst(checked_period(args[0]), args[1], args[2]);
  }
  if (name == "onoff") {
    const auto args = parse_args(spec, open, 2);
    if (!(args[1] > 0.0 && args[1] < 1.0)) {
      throw std::invalid_argument("onoff duty must be in (0, 1)");
    }
    return make_burst(checked_period(args[0]), args[1], 1.0 / args[1]);
  }
  if (name == "ramp") {
    const auto args = parse_args(spec, open, 1);
    std::vector<PacePhase> phases{
        PacePhase{checked_period(args[0]), 0.0, 2.0, MessageClass::Bulk}};
    return PaceProfile(std::move(phases), /*repeat=*/true);
  }
  throw std::invalid_argument("unknown pace generator: " + name);
}

PaceProfile read_pace(std::istream& in, const std::string& origin) {
  LineReader r(in, origin, kPaceMagic);
  bool repeat = true;
  std::vector<PacePhase> phases;
  while (r.next()) {
    const std::string kw(r.field(0));
    if (kw == "repeat") {
      r.expect(2, "repeat on|off");
      repeat = r.boolean(1);
    } else if (kw == "phase") {
      r.expect(5, "phase <cycles> <rate0> <rate1> <class>");
      PacePhase p;
      p.cycles = r.integer(1, 1, kMaxPacePeriod);
      p.rate0 = r.finite(2);
      p.rate1 = r.finite(3);
      try {
        p.cls = parse_message_class(r.field(4));
      } catch (const std::invalid_argument& e) {
        r.fail(e.what());
      }
      phases.push_back(p);
    } else {
      r.fail("unknown directive: " + kw);
    }
  }
  try {
    return PaceProfile(std::move(phases), repeat);
  } catch (const std::invalid_argument& e) {
    r.fail(e.what());
  }
}

PaceProfile load_pace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open pace file: " + path);
  return read_pace(in, path);
}

void write_pace(std::ostream& out, const PaceProfile& profile) {
  out << kPaceMagic << '\n';
  out << "repeat " << (profile.repeat() ? "on" : "off") << '\n';
  for (const PacePhase& p : profile.phases()) {
    out << "phase " << p.cycles << ' ' << format_double(p.rate0) << ' '
        << format_double(p.rate1) << ' ' << to_string(p.cls) << '\n';
  }
}

PacedInjection::PacedInjection(const Network& net, const TrafficConfig& traffic,
                               std::uint64_t seed, PaceProfile profile)
    : InjectionProcess(net, traffic, seed), profile_(std::move(profile)) {
  if (profile_.empty()) {
    throw std::invalid_argument("paced injection needs a non-empty profile");
  }
  if (probability_ * profile_.max_multiplier() > 1.0) {
    throw std::invalid_argument(
        "pace peak exceeds one message per node per cycle at this load");
  }
}

void PacedInjection::tick(Network& net) {
  MessageClass cls = MessageClass::Bulk;
  const double p = probability_ * profile_.multiplier_at(net.now(), &cls);
  const NodeId nodes = net.topology().num_nodes();
  const int limit = net.config().source_queue_limit;
  for (NodeId src = 0; src < nodes; ++src) {
    // Skip straight to the next node whose Bernoulli trial succeeds.
    src += static_cast<NodeId>(rng_.first_success(
        p, static_cast<std::uint64_t>(nodes - src)));
    if (src == nodes) break;
    if (limit > 0 &&
        net.source_queue_length(src) >= static_cast<std::size_t>(limit)) {
      ++stalled_;
      continue;
    }
    const NodeId dst = pattern_->destination(src, rng_);
    if (dst == kInvalidNode) continue;
    emit(net, src, dst, draw_length(rng_), cls);
  }
}

void PacedInjection::save_state(BinWriter& out) const {
  InjectionProcess::save_state(out);
  out.u64(profile_.content_hash());
}

void PacedInjection::restore_state(BinReader& in, std::uint32_t version) {
  InjectionProcess::restore_state(in, version);
  const std::uint64_t hash = in.u64();
  if (hash != profile_.content_hash()) {
    throw std::runtime_error(
        "snapshot pace profile differs from the configured one");
  }
}

}  // namespace flexnet
