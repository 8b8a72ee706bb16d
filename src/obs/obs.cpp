#include "obs/obs.hpp"

#include <algorithm>
#include <istream>
#include <stdexcept>

#include "util/binio.hpp"
#include "util/json.hpp"

namespace flexnet {

ObsConfig ObsConfig::with_point_suffix(std::size_t point) const {
  ObsConfig c = *this;
  const std::string suffix = ".p" + std::to_string(point);
  if (!c.metrics_path.empty()) c.metrics_path += suffix;
  return c;
}

ObsCollector::ObsCollector(const ObsConfig& config, const Network& net)
    : config_(config) {
  if (config_.interval < 1) {
    throw std::invalid_argument("metrics interval must be >= 1");
  }
  if (config_.stall_ref < 1) {
    throw std::invalid_argument("warn stall reference must be >= 1");
  }
  const std::size_t nvcs = net.num_vcs();
  const std::size_t nchannels = net.num_channels();
  const auto nnodes = static_cast<std::size_t>(net.topology().num_nodes());
  vc_stall_hwm_.assign(nvcs, 0);
  channel_stall_hwm_.assign(nchannels, 0);
  dsu_parent_.assign(nvcs, kInvalidVc);
  dsu_gen_.assign(nvcs, 0);
  comp_count_.assign(nvcs, 0);
  comp_gen_.assign(nvcs, 0);
  node_gen_.assign(nnodes, 0);
  involved_.reserve(nvcs);
  next_sample_ = net.now() + config_.interval;

  if (!config_.metrics_path.empty()) {
    out_.open(config_.metrics_path, std::ios::binary | std::ios::trunc);
    if (!out_) {
      throw std::runtime_error("cannot open metrics file: " +
                               config_.metrics_path);
    }
    stream_open_ = true;
    // Header record: schema + the shape every later record is relative to.
    JsonWriter json(out_, 0);
    json.begin_object();
    json.field("schema", kMetricsSchema);
    json.field("interval", config_.interval);
    json.field("warn_threshold", config_.warn_threshold);
    json.field("stall_ref", config_.stall_ref);
    json.field("nodes", static_cast<std::uint64_t>(nnodes));
    json.field("vcs", static_cast<std::uint64_t>(nvcs));
    json.field("channels", static_cast<std::uint64_t>(nchannels));
    json.end_object();
    out_ << '\n';
    out_.flush();
  }
}

VcId ObsCollector::dsu_find(VcId v) noexcept {
  while (dsu_parent_[static_cast<std::size_t>(v)] != v) {
    const VcId parent = dsu_parent_[static_cast<std::size_t>(v)];
    dsu_parent_[static_cast<std::size_t>(v)] =
        dsu_parent_[static_cast<std::size_t>(parent)];
    v = dsu_parent_[static_cast<std::size_t>(v)];
  }
  return v;
}

void ObsCollector::dsu_union(VcId a, VcId b) noexcept {
  a = dsu_find(a);
  b = dsu_find(b);
  if (a != b) dsu_parent_[static_cast<std::size_t>(b)] = a;
}

void ObsCollector::sample_now(const Network& net, const DeadlockDetector& detector) {
  const Cycle now = net.now();
  ObsSample s;
  s.cycle = now;

  // Flow over the interval + cumulative latency percentiles.
  const Network::Counters& c = net.counters();
  s.delivered = c.delivered - prev_delivered_;
  s.recovered = c.recovered - prev_recovered_;
  prev_delivered_ = c.delivered;
  prev_recovered_ = c.recovered;
  for (std::size_t k = 0; k < kNumMessageClasses; ++k) {
    s.class_delivered[k] = c.class_delivered[k] - prev_class_delivered_[k];
    prev_class_delivered_[k] = c.class_delivered[k];
  }
  s.latency_p50 = latency_hist_.p50();
  s.latency_p99 = latency_hist_.p99();
  s.latency_p999 = latency_hist_.p999();
  s.latency_max = latency_hist_.max();
  s.generated = c.generated;
  s.injected = c.injected;
  s.flits_delivered = c.flits_delivered;
  s.delivered_latency_sum = c.delivered_latency_sum;
  s.invocations = detector.invocations();
  s.deadlocks = detector.total_deadlocks();
  s.transient_knots = detector.transient_knots();
  s.livelocks = detector.livelocks();

  // One scan over the active messages covers arcs, stall ages, and the
  // blocked-component union-find. Generation marks reset the scratch.
  ++gen_;
  involved_.clear();
  auto touch = [&](VcId v) {
    const auto idx = static_cast<std::size_t>(v);
    if (dsu_gen_[idx] != gen_) {
      dsu_gen_[idx] = gen_;
      dsu_parent_[idx] = v;
      involved_.push_back(v);
    }
  };
  for (const MessageId id : net.active_messages()) {
    const Message& msg = net.message(id);
    if (!msg.held.empty()) {
      s.ownership_arcs += static_cast<std::int64_t>(msg.held.size()) - 1;
    }
    if (!msg.blocked) continue;
    ++s.blocked;
    s.request_arcs += static_cast<std::int64_t>(msg.request_set.size());
    const Cycle age = msg.blocked_since >= 0 ? now - msg.blocked_since : 0;
    stall_hist_.record(age);
    if (age > s.max_stall_age) s.max_stall_age = age;
    if (age > stall_hwm_) stall_hwm_ = age;
    if (!msg.held.empty()) {
      const VcId tip = msg.held.back();
      auto& vc_hwm = vc_stall_hwm_[static_cast<std::size_t>(tip)];
      if (age > vc_hwm) vc_hwm = age;
      const ChannelId ch = net.vc(tip).channel;
      auto& ch_hwm = channel_stall_hwm_[static_cast<std::size_t>(ch)];
      if (age > ch_hwm) ch_hwm = age;
    }
    // A blocked message's held chain plus the VCs it is requesting form one
    // wait-for component; chains sharing any VC coalesce.
    VcId anchor = kInvalidVc;
    for (const VcId v : msg.held) {
      touch(v);
      if (anchor == kInvalidVc) anchor = v;
      else dsu_union(anchor, v);
    }
    for (const VcId v : msg.request_set) {
      touch(v);
      if (anchor == kInvalidVc) anchor = v;
      else dsu_union(anchor, v);
    }
  }
  s.stall_hwm = stall_hwm_;
  s.stall_p99 = stall_hist_.p99();
  for (const VcId v : involved_) {
    const auto root = static_cast<std::size_t>(dsu_find(v));
    if (comp_gen_[root] != gen_) {
      comp_gen_[root] = gen_;
      comp_count_[root] = 0;
    }
    if (++comp_count_[root] > s.largest_component) {
      s.largest_component = comp_count_[root];
    }
  }
  s.arc_growth = s.request_arcs - prev_request_arcs_;
  prev_request_arcs_ = s.request_arcs;

  // Detector-side pressure: keep the last valid reading so a record emitted
  // between restore and the detector's first pass (when its process-local
  // cache is cold) still matches the uninterrupted run's bytes.
  if (detector.pressure().valid) last_pressure_ = detector.pressure();
  s.det_closure = last_pressure_.closure_size;
  s.det_largest_scc = last_pressure_.largest_scc;
  s.det_knots = last_pressure_.knots;
  s.det_cycle = last_pressure_.computed_at;
  s.det_valid = last_pressure_.valid;

  // Activity census.
  const std::size_t nvcs = net.num_vcs();
  for (std::size_t i = 0; i < nvcs; ++i) {
    const VcState& vc = net.vc(static_cast<VcId>(i));
    if (vc.is_free()) continue;
    ++s.active_vcs;
    const auto dst = static_cast<std::size_t>(net.phys(vc.channel).dst);
    if (node_gen_[dst] != gen_) {
      node_gen_[dst] = gen_;
      ++s.active_routers;
    }
  }
  const auto nnodes = static_cast<NodeId>(node_gen_.size());
  s.idle_routers = static_cast<std::int32_t>(nnodes) - s.active_routers;
  for (NodeId n = 0; n < nnodes; ++n) {
    if (net.source_queue_length(n) > 0) ++s.active_sources;
  }
  s.in_network = static_cast<std::int64_t>(net.active_messages().size());
  s.queued = net.queued_message_count();

  // Precursor score: stall age is the dominant term (a knot's members age
  // without bound), amplified by how much of the network is entangled.
  const double s_age = static_cast<double>(s.max_stall_age) /
                       static_cast<double>(config_.stall_ref);
  const double s_arcs =
      static_cast<double>(s.request_arcs) / static_cast<double>(nvcs);
  const double s_comp =
      static_cast<double>(s.largest_component) / static_cast<double>(nvcs);
  // Structural factor from the detector's last valid pass: a blocked SCC
  // means a cyclic wait already exists (deadlock's necessary condition), so
  // the age evidence is amplified; an acyclic blocked structure is draining
  // congestion, so ages alone must be ~4x as extreme before we believe them.
  // No reading (detection withheld, or restored detector before its first
  // pass) leaves the age evidence unscaled. This is what keeps saturated but
  // deadlock-free runs (up*/down*, Duato escape VCs) warning-silent.
  double s_struct = 1.0;
  if (last_pressure_.valid) {
    s_struct = last_pressure_.largest_scc > 1 ? 2.0 : 0.25;
  }
  s.score = s_age * (1.0 + s_arcs + s_comp) * s_struct;
  if (s.score > peak_score_) peak_score_ = s.score;

  // Rising-edge warning latch; re-arms at half threshold so a score
  // hovering at the boundary cannot fire every sample.
  if (!warn_active_ && s.score >= config_.warn_threshold) {
    warn_active_ = true;
    s.warning = true;
    ++warning_count_;
    if (first_warning_cycle_ < 0) first_warning_cycle_ = now;
    if (Tracer* tracer = net.hooks().tracer) {
      TraceEvent event;
      event.cycle = now;
      event.kind = TraceEventKind::DeadlockWarning;
      event.arg = static_cast<std::int32_t>(
          std::min<std::int64_t>(s.max_stall_age, INT32_MAX));
      tracer->emit(event);
    }
  } else if (warn_active_ && s.score < config_.warn_threshold * 0.5) {
    warn_active_ = false;
  }

  last_ = s;
  ++samples_recorded_;
  next_sample_ = now + config_.interval;
  emit_record(s);
}

void ObsCollector::emit_record(const ObsSample& s) {
  if (!stream_open_) return;
  JsonWriter json(out_, 0);
  json.begin_object();
  json.field("cycle", s.cycle);
  json.field("delivered", s.delivered);
  json.field("recovered", s.recovered);
  json.field("latency_p50", s.latency_p50);
  json.field("latency_p99", s.latency_p99);
  json.field("latency_p999", s.latency_p999);
  json.field("latency_max", s.latency_max);
  json.field("generated", s.generated);
  json.field("injected", s.injected);
  json.field("flits_delivered", s.flits_delivered);
  json.field("delivered_latency_sum", s.delivered_latency_sum);
  json.field("invocations", s.invocations);
  json.field("deadlocks", s.deadlocks);
  json.field("transient_knots", s.transient_knots);
  json.field("livelocks", s.livelocks);
  json.field("blocked", s.blocked);
  json.field("max_stall_age", s.max_stall_age);
  json.field("stall_hwm", s.stall_hwm);
  json.field("stall_p99", s.stall_p99);
  json.field("ownership_arcs", s.ownership_arcs);
  json.field("request_arcs", s.request_arcs);
  json.field("arc_growth", s.arc_growth);
  json.field("largest_component", s.largest_component);
  json.field("det_closure", s.det_closure);
  json.field("det_largest_scc", s.det_largest_scc);
  json.field("det_knots", s.det_knots);
  json.field("det_cycle", s.det_cycle);
  json.field("det_valid", s.det_valid);
  json.field("score", s.score);
  json.field("warning", s.warning);
  json.field("active_routers", s.active_routers);
  json.field("idle_routers", s.idle_routers);
  json.field("active_vcs", s.active_vcs);
  json.field("active_sources", s.active_sources);
  json.field("in_network", s.in_network);
  json.field("queued", s.queued);
  json.key("class_delivered").begin_array();
  for (const std::int64_t n : s.class_delivered) json.value(n);
  json.end_array();
  json.end_object();
  out_ << '\n';
  out_.flush();
}

void ObsCollector::finalize(const Network& net, const DeadlockDetector& detector) {
  if (finalized_) return;
  finalized_ = true;
  // Residual partial interval: make the stream's last sample cover the run's
  // actual end, then fold the cumulative summary into a trailing record.
  if (net.now() > last_.cycle) sample_now(net, detector);
  if (!detector.records().empty()) {
    first_confirmation_cycle_ = detector.records().front().detected_at;
  }
  if (stream_open_) {
    JsonWriter json(out_, 0);
    json.begin_object();
    json.field("final", true);
    write_summary_fields(json, net);
    json.end_object();
    out_ << '\n';
    out_.flush();
  }
}

void ObsCollector::write_summary_fields(JsonWriter& json,
                                        const Network& net) const {
  json.field("schema", kMetricsSchema);
  json.field("samples", samples_recorded_);
  json.field("peak_score", peak_score_);
  json.field("warnings", warning_count_);
  json.field("first_warning_cycle", first_warning_cycle_);
  json.field("first_confirmation_cycle", first_confirmation_cycle_);
  json.field("lead_cycles", lead_cycles());
  json.field("stall_hwm", stall_hwm_);
  json.field("delivered", net.counters().delivered);
  json.field("recovered", net.counters().recovered);
  json.key("latency").begin_object();
  json.field("count", latency_hist_.count());
  json.field("mean", latency_hist_.mean());
  json.field("p50", latency_hist_.p50());
  json.field("p99", latency_hist_.p99());
  json.field("p999", latency_hist_.p999());
  json.field("max", latency_hist_.max());
  json.end_object();
  json.key("stall_age").begin_object();
  json.field("count", stall_hist_.count());
  json.field("p50", stall_hist_.p50());
  json.field("p99", stall_hist_.p99());
  json.field("max", stall_hist_.max());
  json.end_object();
  json.key("classes").begin_object();
  for (const MessageClass cls : all_message_classes()) {
    const LogHistogram& h = class_latency_hist_[class_index(cls)];
    json.key(to_string(cls)).begin_object();
    json.field("delivered", net.counters().class_delivered[class_index(cls)]);
    json.field("latency_p50", h.p50());
    json.field("latency_p99", h.p99());
    json.field("latency_max", h.max());
    json.end_object();
  }
  json.end_object();
}

ObsArtifacts ObsCollector::artifacts() const {
  ObsArtifacts a;
  a.enabled = config_.enabled();
  a.metrics_path = config_.metrics_path;
  a.samples = samples_recorded_;
  a.peak_score = peak_score_;
  a.warnings = warning_count_;
  a.first_warning_cycle = first_warning_cycle_;
  a.first_confirmation_cycle = first_confirmation_cycle_;
  a.lead_cycles = lead_cycles();
  return a;
}

void ObsCollector::save_state(BinWriter& out) const {
  out.u32(static_cast<std::uint32_t>(vc_stall_hwm_.size()));
  out.u32(static_cast<std::uint32_t>(channel_stall_hwm_.size()));
  latency_hist_.save_state(out);
  stall_hist_.save_state(out);
  for (const std::int64_t v : vc_stall_hwm_) out.i64(v);
  for (const std::int64_t v : channel_stall_hwm_) out.i64(v);
  out.i64(stall_hwm_);
  out.f64(peak_score_);
  out.u8(warn_active_ ? 1 : 0);
  out.i64(warning_count_);
  out.i64(first_warning_cycle_);
  out.i64(prev_delivered_);
  out.i64(prev_recovered_);
  out.i64(prev_request_arcs_);
  out.u64(samples_recorded_);
  out.i64(next_sample_);
  out.i64(last_.cycle);
  out.i64(last_pressure_.computed_at);
  out.i64(last_pressure_.closure_size);
  out.i64(last_pressure_.largest_scc);
  out.i64(last_pressure_.knots);
  out.u8(last_pressure_.valid ? 1 : 0);
  for (const LogHistogram& h : class_latency_hist_) h.save_state(out);
  for (const std::int64_t n : prev_class_delivered_) out.i64(n);
}

void ObsCollector::restore_state(BinReader& in, std::uint32_t version) {
  const std::uint32_t nvcs = in.u32();
  const std::uint32_t nchannels = in.u32();
  if (nvcs != vc_stall_hwm_.size() || nchannels != channel_stall_hwm_.size()) {
    throw std::runtime_error(
        "obs snapshot shape mismatch (different network configuration?)");
  }
  latency_hist_.restore_state(in);
  stall_hist_.restore_state(in);
  for (std::int64_t& v : vc_stall_hwm_) v = in.i64();
  for (std::int64_t& v : channel_stall_hwm_) v = in.i64();
  stall_hwm_ = in.i64();
  peak_score_ = in.f64();
  warn_active_ = in.u8() != 0;
  warning_count_ = in.i64();
  first_warning_cycle_ = in.i64();
  prev_delivered_ = in.i64();
  prev_recovered_ = in.i64();
  prev_request_arcs_ = in.i64();
  samples_recorded_ = in.u64();
  next_sample_ = in.i64();
  last_ = ObsSample{};
  last_.cycle = in.i64();
  last_pressure_.computed_at = in.i64();
  last_pressure_.closure_size = in.i64();
  last_pressure_.largest_scc = in.i64();
  last_pressure_.knots = in.i64();
  last_pressure_.valid = in.u8() != 0;
  class_latency_hist_.fill(LogHistogram{});
  prev_class_delivered_.fill(0);
  if (version >= 3) {
    for (LogHistogram& h : class_latency_hist_) h.restore_state(in);
    for (std::int64_t& n : prev_class_delivered_) n = in.i64();
  }
}

MetricsStreamReader::MetricsStreamReader(std::istream& in, std::string origin)
    : in_(&in), origin_(std::move(origin)) {}

void MetricsStreamReader::fail(const std::string& reason) const {
  throw std::runtime_error(origin_ + ":" + std::to_string(line_) + ": " +
                           reason);
}

std::optional<MetricsStreamReader::Record> MetricsStreamReader::next(
    JsonValue& rec) {
  std::string text;
  if (!std::getline(*in_, text)) {
    if (in_->bad()) {
      ++line_;
      fail("read error");
    }
    in_->clear();  // the next call retries from the same offset
    return std::nullopt;
  }
  ++line_;
  try {
    rec = JsonValue::parse(text);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  if (!rec.is_object()) fail("record is not a JSON object");
  if (finished_) fail("record after the final summary record");
  if (line_ == 1) {
    const JsonValue* schema = rec.find("schema");
    if (schema == nullptr || schema->string != kMetricsSchema) {
      fail("missing or unknown schema (want " + std::string(kMetricsSchema) +
           " header record)");
    }
    return Record::Header;
  }
  const JsonValue* final_flag = rec.find("final");
  if (final_flag != nullptr && final_flag->boolean) {
    finished_ = true;
    return Record::Final;
  }
  if (rec.find("cycle") == nullptr) {
    fail("sample record has no \"cycle\" field");
  }
  return Record::Sample;
}

}  // namespace flexnet
