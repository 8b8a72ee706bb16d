#include "trace/sinks.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace flexnet {

// --- RingBufferSink ---------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void RingBufferSink::on_event(const TraceEvent& event) {
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++seen_;
}

std::vector<TraceEvent> RingBufferSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEvent> RingBufferSink::events_for_message(MessageId id) const {
  std::vector<TraceEvent> out;
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = ring_[(start + i) % ring_.size()];
    if (e.message == id) out.push_back(e);
  }
  return out;
}

Cycle RingBufferSink::last_progress_cycle(MessageId id) const {
  // Scan newest-to-oldest so the first progress hit wins.
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = size_; i > 0; --i) {
    const TraceEvent& e = ring_[(start + i - 1) % ring_.size()];
    if (e.message == id && is_progress_event(e.kind)) return e.cycle;
  }
  return -1;
}

// --- ChromeTraceSink --------------------------------------------------------

namespace {
/// Track id for events with no single location.
constexpr long long kGlobalTid = 1000000;

long long chrome_tid(NodeId node) noexcept {
  return node == kInvalidNode ? kGlobalTid : static_cast<long long>(node);
}
}  // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream& out) : out_(out) {
  out_ << "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"flexnet\"}}";
}

ChromeTraceSink::~ChromeTraceSink() { flush(); }

void ChromeTraceSink::write_record(const TraceEvent& event, char phase,
                                   Cycle duration) {
  out_ << ",\n{\"name\":\"" << to_string(event.kind) << "\",\"ph\":\"" << phase
       << "\",\"ts\":" << event.cycle << ",\"pid\":0,\"tid\":"
       << chrome_tid(event.node);
  if (phase == 'X') out_ << ",\"dur\":" << duration;
  if (phase == 'i') {
    out_ << ",\"s\":\""
         << (event.kind == TraceEventKind::DeadlockDetected ? 'g' : 't')
         << '"';
  }
  out_ << ",\"args\":{\"m\":" << event.message;
  if (event.vc != kInvalidVc) out_ << ",\"vc\":" << event.vc;
  if (event.vc2 != kInvalidVc) out_ << ",\"vc2\":" << event.vc2;
  out_ << ",\"arg\":" << event.arg << "}}";
  ++written_;
}

void ChromeTraceSink::on_event(const TraceEvent& event) {
  if (closed_) return;

  // Blocked episodes become complete ("X") duration slices, emitted when the
  // episode ends so the duration is known.
  if (event.message >= 0) {
    const auto index = static_cast<std::size_t>(event.message);
    if (index >= blocked_since_.size()) blocked_since_.resize(index + 1, -1);
    switch (event.kind) {
      case TraceEventKind::MessageBlocked:
        blocked_since_[index] = event.cycle;
        return;  // rendered at episode end
      case TraceEventKind::MessageUnblocked:
      case TraceEventKind::MessageRemoved: {
        if (blocked_since_[index] >= 0) {
          TraceEvent episode = event;
          episode.kind = TraceEventKind::MessageBlocked;
          episode.cycle = blocked_since_[index];
          write_record(episode, 'X',
                       std::max<Cycle>(event.cycle - blocked_since_[index], 1));
          blocked_since_[index] = -1;
        }
        if (event.kind == TraceEventKind::MessageUnblocked) return;
        break;  // MessageRemoved is also worth an instant of its own
      }
      default:
        break;
    }
  }
  write_record(event, 'i', 0);
}

void ChromeTraceSink::flush() {
  if (closed_) return;
  closed_ = true;
  out_ << "]\n";
  out_.flush();
}

// --- BinaryTraceSink --------------------------------------------------------

namespace {
void put_le(std::uint8_t* out, std::uint64_t value, int bytes) noexcept {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// The header's magic, which its u32 version follows.
constexpr std::size_t kMagicSize = kBinaryTraceHeaderSize - 4;

std::uint64_t get_le(const std::uint8_t* in, int bytes) noexcept {
  std::uint64_t value = 0;
  for (int i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}
}  // namespace

void encode_trace_event(const TraceEvent& event, std::uint8_t* out) noexcept {
  put_le(out + 0, static_cast<std::uint64_t>(event.cycle), 8);
  put_le(out + 8, static_cast<std::uint64_t>(event.message), 8);
  put_le(out + 16, static_cast<std::uint32_t>(event.vc), 4);
  put_le(out + 20, static_cast<std::uint32_t>(event.vc2), 4);
  put_le(out + 24, static_cast<std::uint32_t>(event.node), 4);
  put_le(out + 28, static_cast<std::uint32_t>(event.arg), 4);
  out[32] = static_cast<std::uint8_t>(event.kind);
}

TraceEvent decode_trace_event(const std::uint8_t* in) noexcept {
  TraceEvent event;
  event.cycle = static_cast<Cycle>(get_le(in + 0, 8));
  event.message = static_cast<MessageId>(get_le(in + 8, 8));
  event.vc = static_cast<VcId>(get_le(in + 16, 4));
  event.vc2 = static_cast<VcId>(get_le(in + 20, 4));
  event.node = static_cast<NodeId>(get_le(in + 24, 4));
  event.arg = static_cast<std::int32_t>(get_le(in + 28, 4));
  event.kind = static_cast<TraceEventKind>(in[32]);
  return event;
}

BinaryTraceSink::BinaryTraceSink(std::ostream& out) : out_(out) {
  std::uint8_t header[kBinaryTraceHeaderSize];
  std::copy_n(kBinaryTraceMagic, kMagicSize, header);
  put_le(header + kMagicSize, kBinaryTraceVersion, 4);
  out_.write(reinterpret_cast<const char*>(header), sizeof(header));
}

void BinaryTraceSink::on_event(const TraceEvent& event) {
  std::uint8_t buf[kBinaryTraceEventSize];
  encode_trace_event(event, buf);
  out_.write(reinterpret_cast<const char*>(buf), sizeof(buf));
  ++written_;
}

void BinaryTraceSink::flush() { out_.flush(); }

std::vector<TraceEvent> read_binary_trace(std::istream& in,
                                          const std::string& origin) {
  std::size_t offset = 0;
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(origin + ": byte " + std::to_string(offset) +
                             ": " + what);
  };
  std::uint8_t header[kBinaryTraceHeaderSize];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(header)) ||
      !std::equal(header, header + kMagicSize, kBinaryTraceMagic)) {
    fail("bad magic (not a flexnet-btrace file)");
  }
  offset = kMagicSize;
  const auto version = get_le(header + kMagicSize, 4);
  if (version != kBinaryTraceVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kBinaryTraceVersion) + ")");
  }
  offset = kBinaryTraceHeaderSize;
  std::vector<TraceEvent> events;
  std::uint8_t buf[kBinaryTraceEventSize];
  for (;; offset += sizeof(buf)) {
    in.read(reinterpret_cast<char*>(buf), sizeof(buf));
    const auto got = in.gcount();
    if (got == 0) break;
    if (got != static_cast<std::streamsize>(sizeof(buf))) {
      fail("truncated record (" + std::to_string(got) + " of " +
           std::to_string(sizeof(buf)) + " bytes)");
    }
    if (buf[32] >= kNumTraceEventKinds) {
      offset += 32;
      fail("unknown event kind " + std::to_string(buf[32]));
    }
    events.push_back(decode_trace_event(buf));
  }
  return events;
}

}  // namespace flexnet
