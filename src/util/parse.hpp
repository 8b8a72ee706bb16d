// Reading outside input: the one value grammar and the one line lexer behind
// every text format flexnet reads (flexnet-topo-v1, flexnet-rtable-v1,
// flexnet-trace-v1, flexnet-pace-v1), the command line and the environment.
//
// Values. The whole token must match; a leading '+' is allowed; numbers are
// decimal. parse_finite rejects nan, inf and out-of-range magnitudes;
// parse_bool accepts exactly 1/0/true/false/yes/no/on/off.
//
// Lines. Line 1 must be the magic. '#' starts a comment anywhere on a line;
// tokens are separated by whitespace ('\r' included, so CRLF files read like
// LF files); blank and whitespace-only lines are skipped. Every error throws
// std::runtime_error("origin:line: what").
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace flexnet {

/// A decimal integer in [lo, hi].
[[nodiscard]] std::optional<long long> parse_int(std::string_view token,
                                                 long long lo, long long hi);
/// A finite decimal floating-point number.
[[nodiscard]] std::optional<double> parse_finite(std::string_view token);
/// One of 1/0/true/false/yes/no/on/off.
[[nodiscard]] std::optional<bool> parse_bool(std::string_view token);
/// A comma-separated list of finite numbers ("0.1,0.25"); no empty items.
[[nodiscard]] std::optional<std::vector<double>> parse_finite_list(
    std::string_view list);

/// Line lexer for the line-oriented text formats. Field 0 of a line is its
/// directive keyword; fields are read through the typed accessors, which
/// fail with the line's origin:line on a missing or malformed field.
class LineReader {
 public:
  /// Reads line 1, which must be `magic` alone.
  LineReader(std::istream& in, std::string origin, std::string_view magic);
  // The fields view the reader's own line buffer, so a copy would dangle.
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// Advances to the next line that has a field; false at end of input.
  [[nodiscard]] bool next();

  [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }
  [[nodiscard]] std::string_view field(std::size_t i) const;
  [[nodiscard]] long long integer(std::size_t i, long long lo,
                                  long long hi) const;
  [[nodiscard]] double finite(std::size_t i) const;
  [[nodiscard]] bool boolean(std::size_t i) const;
  /// Fails with `usage` unless the line has exactly `n` fields.
  void expect(std::size_t n, const std::string& usage) const;

  /// Throws std::runtime_error("origin:line: what") for the current line
  /// (after the end of input: the last line).
  [[noreturn]] void fail(const std::string& what) const;

 private:
  bool read_line();
  [[noreturn]] void bad(std::size_t i, const std::string& expected) const;

  std::istream* in_;
  std::string origin_;
  std::size_t line_ = 0;
  std::string text_;
  std::vector<std::string_view> fields_;  ///< Views into text_.
};

}  // namespace flexnet
