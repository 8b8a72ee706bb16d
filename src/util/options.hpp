// Minimal command-line option parser for examples and bench binaries.
//
// Supports `--name value`, `--name=value` and boolean `--flag` forms; every
// option declares a default so binaries are runnable with no arguments.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace flexnet {

class Options {
 public:
  /// Parses argv; returns std::nullopt and fills `error` on malformed input.
  static std::optional<Options> parse(int argc, const char* const* argv,
                                      std::string* error = nullptr);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name,
                                std::string def = {}) const;
  /// Typed getters parse the whole value with util/parse.hpp's grammar:
  /// trailing garbage ("1e9x"), empty values, out-of-range magnitudes, nan,
  /// inf and unknown boolean spellings throw std::invalid_argument naming the
  /// option and the value.
  [[nodiscard]] long long get_int(std::string_view name, long long def) const;
  [[nodiscard]] double get_double(std::string_view name, double def) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool def) const;

  /// Positional (non --option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Options given on the command line that no has()/get*() call has looked
  /// up yet, in name order. A binary that has read every option it uses
  /// rejects these, so a typo or a removed flag fails instead of running
  /// silently with defaults.
  [[nodiscard]] std::vector<std::string> unread() const;
  /// Throws std::invalid_argument("unknown option(s): --a, --b") naming
  /// every unread option; call once a binary has read all it uses.
  void reject_unread() const;

 private:
  using Values = std::map<std::string, std::string, std::less<>>;
  /// values_.find(name), recording the lookup for unread().
  [[nodiscard]] Values::const_iterator lookup(std::string_view name) const;

  Values values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string, std::less<>> read_;
};

/// Reads a scale factor from the FLEXNET_BENCH_SCALE environment variable
/// (default 1.0); bench binaries multiply their warmup/measure windows by it
/// so CI can run quick smoke passes.
[[nodiscard]] double bench_scale();

}  // namespace flexnet
