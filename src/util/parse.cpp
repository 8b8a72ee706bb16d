#include "util/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <stdexcept>

namespace flexnet {

namespace {

template <typename T>
std::optional<T> from_whole(std::string_view token) {
  // std::from_chars takes '-' but not '+': drop one '+' that a number follows.
  if (!token.empty() && token[0] == '+') {
    token.remove_prefix(1);
    if (token.empty() || token[0] == '-') return std::nullopt;
  }
  T value{};
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

constexpr std::string_view kSpace = " \t\r\v\f";

}  // namespace

std::optional<long long> parse_int(std::string_view token, long long lo,
                                   long long hi) {
  const auto value = from_whole<long long>(token);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

std::optional<double> parse_finite(std::string_view token) {
  const auto value = from_whole<double>(token);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

std::optional<bool> parse_bool(std::string_view token) {
  if (token == "1" || token == "true" || token == "yes" || token == "on") {
    return true;
  }
  if (token == "0" || token == "false" || token == "no" || token == "off") {
    return false;
  }
  return std::nullopt;
}

std::optional<std::vector<double>> parse_finite_list(std::string_view list) {
  std::vector<double> values;
  for (;;) {
    const std::size_t comma = std::min(list.find(','), list.size());
    const auto value = parse_finite(list.substr(0, comma));
    if (!value) return std::nullopt;
    values.push_back(*value);
    if (comma == list.size()) return values;
    list.remove_prefix(comma + 1);
  }
}

LineReader::LineReader(std::istream& in, std::string origin,
                       std::string_view magic)
    : in_(&in), origin_(std::move(origin)) {
  const std::string expected = "(expected " + std::string(magic) + ")";
  if (!read_line()) fail("empty input " + expected);
  if (size() != 1 || fields_[0] != magic) fail("bad magic " + expected);
}

bool LineReader::read_line() {
  if (!std::getline(*in_, text_)) return false;
  ++line_;
  fields_.clear();
  const std::string_view text =
      std::string_view(text_).substr(0, text_.find('#'));
  std::size_t pos = text.find_first_not_of(kSpace);
  while (pos != std::string_view::npos) {
    const std::size_t end = std::min(text.find_first_of(kSpace, pos),
                                     text.size());
    fields_.push_back(text.substr(pos, end - pos));
    pos = text.find_first_not_of(kSpace, end);
  }
  return true;
}

bool LineReader::next() {
  while (read_line()) {
    if (!fields_.empty()) return true;
  }
  fields_.clear();
  return false;
}

std::string_view LineReader::field(std::size_t i) const {
  if (i >= fields_.size()) {
    fail(std::string(fields_.empty() ? "line" : fields_[0]) +
         " is missing field " + std::to_string(i));
  }
  return fields_[i];
}

long long LineReader::integer(std::size_t i, long long lo, long long hi) const {
  if (const auto value = parse_int(field(i), lo, hi)) return *value;
  bad(i, "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
             "]");
}

double LineReader::finite(std::size_t i) const {
  if (const auto value = parse_finite(field(i))) return *value;
  bad(i, "a finite number");
}

bool LineReader::boolean(std::size_t i) const {
  if (const auto value = parse_bool(field(i))) return *value;
  bad(i, "one of 1/0/true/false/yes/no/on/off");
}

void LineReader::expect(std::size_t n, const std::string& usage) const {
  if (size() != n) fail("expected: " + usage);
}

void LineReader::fail(const std::string& what) const {
  throw std::runtime_error(origin_ + ":" +
                           std::to_string(std::max<std::size_t>(line_, 1)) +
                           ": " + what);
}

void LineReader::bad(std::size_t i, const std::string& expected) const {
  fail(std::string(fields_[0]) + " field " + std::to_string(i) +
       ": expected " + expected + ", got '" + std::string(fields_[i]) + "'");
}

}  // namespace flexnet
