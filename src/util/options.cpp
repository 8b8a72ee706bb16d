#include "util/options.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace flexnet {

namespace {
[[noreturn]] void bad_value(std::string_view name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("option --" + std::string(name) + " expects " +
                              expected + ", got '" + value + "'");
}
}  // namespace

std::optional<Options> Options::parse(int argc, const char* const* argv,
                                      std::string* error) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      if (error) *error = "bare '--' is not a valid option";
      return std::nullopt;
    }
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      opts.values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` if the next token is not itself an option; otherwise a
    // boolean flag.
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      opts.values_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      opts.values_[std::string(body)] = "true";
    }
  }
  return opts;
}

Options::Values::const_iterator Options::lookup(std::string_view name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) read_.insert(it->first);
  return it;
}

std::vector<std::string> Options::unread() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (read_.find(name) == read_.end()) names.push_back(name);
  }
  return names;
}

bool Options::has(std::string_view name) const {
  return lookup(name) != values_.end();
}

std::string Options::get(std::string_view name, std::string def) const {
  const auto it = lookup(name);
  return it == values_.end() ? std::move(def) : it->second;
}

long long Options::get_int(std::string_view name, long long def) const {
  const auto it = lookup(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  long long value = 0;
  const char* first = v.c_str();
  if (*first == '+') ++first;  // from_chars rejects an explicit plus sign
  const auto [end, ec] = std::from_chars(first, v.c_str() + v.size(), value);
  if (ec == std::errc::result_out_of_range) {
    bad_value(name, v, "an integer in range (value overflows)");
  }
  if (ec != std::errc{} || end != v.c_str() + v.size() || first == end) {
    bad_value(name, v, "an integer");
  }
  return value;
}

double Options::get_double(std::string_view name, double def) const {
  const auto it = lookup(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') bad_value(name, v, "a number");
  if (errno == ERANGE && std::isinf(value)) {
    bad_value(name, v, "a finite number (value overflows)");
  }
  return value;
}

bool Options::get_bool(std::string_view name, bool def) const {
  const auto it = lookup(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

double bench_scale() {
  if (const char* env = std::getenv("FLEXNET_BENCH_SCALE")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) return v;
  }
  return 1.0;
}

}  // namespace flexnet
