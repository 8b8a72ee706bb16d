// The three stock trace sinks:
//
//  * RingBufferSink  — fixed-capacity in-memory ring. Cheap enough to leave
//                      on for whole runs; forensics reads the formation
//                      history of a deadlock out of it after detection.
//  * ChromeTraceSink — Chrome trace-event JSON (load in chrome://tracing or
//                      https://ui.perfetto.dev). One track (tid) per node;
//                      blocked episodes render as duration slices, flit/VC
//                      events as instants, deadlocks as global instants.
//  * BinaryTraceSink — fixed-width little-endian encoding of every event
//                      after a magic + version header, byte-identical
//                      across runs of the same (config, seed). Used for
//                      determinism checking and read by flexnet-inspect.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace flexnet {

class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void on_event(const TraceEvent& event) override;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Total events ever seen (size() + overwritten).
  [[nodiscard]] std::uint64_t total_seen() const noexcept { return seen_; }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Retained events touching `id`, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events_for_message(MessageId id) const;
  /// Cycle of the newest retained progress event for `id`; -1 when none is
  /// retained (the message last progressed before the ring's horizon).
  [[nodiscard]] Cycle last_progress_cycle(MessageId id) const;

  void clear() noexcept { size_ = 0; head_ = 0; }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< Next write position.
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
};

class ChromeTraceSink final : public TraceSink {
 public:
  /// Streams JSON to `out`, which must outlive the sink. flush() (or the
  /// destructor) closes the JSON array; events after that are dropped.
  explicit ChromeTraceSink(std::ostream& out);
  ~ChromeTraceSink() override;

  void on_event(const TraceEvent& event) override;
  void flush() override;

  [[nodiscard]] std::uint64_t events_written() const noexcept { return written_; }

 private:
  void write_record(const TraceEvent& event, char phase, Cycle duration);

  std::ostream& out_;
  std::uint64_t written_ = 0;
  bool closed_ = false;
  /// Cycle each message's current blocked episode began (index = message id
  /// grown on demand); -1 when not blocked. Lets blocked episodes render as
  /// complete ("X") duration slices.
  std::vector<Cycle> blocked_since_;
};

/// Number of bytes each event occupies in the binary encoding.
inline constexpr std::size_t kBinaryTraceEventSize = 8 + 8 + 4 + 4 + 4 + 4 + 1;
/// A binary trace opens with this magic (14 bytes, no NUL) and a u32 LE
/// version; the events follow.
inline constexpr char kBinaryTraceMagic[] = "flexnet-btrace";
inline constexpr std::uint32_t kBinaryTraceVersion = 1;
inline constexpr std::size_t kBinaryTraceHeaderSize =
    sizeof(kBinaryTraceMagic) - 1 + 4;

class BinaryTraceSink final : public TraceSink {
 public:
  /// Writes the header, then streams each event's encoding to `out`, which
  /// must outlive the sink.
  explicit BinaryTraceSink(std::ostream& out);

  void on_event(const TraceEvent& event) override;
  void flush() override;

  [[nodiscard]] std::uint64_t events_written() const noexcept { return written_; }

 private:
  std::ostream& out_;
  std::uint64_t written_ = 0;
};

/// Encodes one event exactly as BinaryTraceSink writes it.
void encode_trace_event(const TraceEvent& event, std::uint8_t* out) noexcept;
/// Decodes one event from kBinaryTraceEventSize bytes.
[[nodiscard]] TraceEvent decode_trace_event(const std::uint8_t* in) noexcept;
/// Reads a whole binary trace stream. Throws std::runtime_error
/// "origin: byte N: what" on a missing or bad header, a truncated final
/// record, or an event kind byte >= kNumTraceEventKinds.
[[nodiscard]] std::vector<TraceEvent> read_binary_trace(
    std::istream& in, const std::string& origin = "binary trace");

}  // namespace flexnet
