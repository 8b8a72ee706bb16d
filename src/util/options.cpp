#include "util/options.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/parse.hpp"

namespace flexnet {

namespace {
/// The parsed value, or std::invalid_argument naming the option and value.
template <typename T>
T checked(std::string_view name, const std::string& value,
          const std::optional<T>& parsed, const char* expected) {
  if (!parsed) {
    throw std::invalid_argument("option --" + std::string(name) + " expects " +
                                expected + ", got '" + value + "'");
  }
  return *parsed;
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

void Options::reject_unread() const {
  std::string names;
  for (const std::string& name : unread()) {
    names += (names.empty() ? "--" : ", --") + name;
  }
  if (!names.empty()) {
    throw std::invalid_argument("unknown option(s): " + names);
  }
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
  return checked(name, it->second,
                 parse_int(it->second, std::numeric_limits<long long>::min(),
                           std::numeric_limits<long long>::max()),
                 "an integer");
}

double Options::get_double(std::string_view name, double def) const {
  const auto it = lookup(name);
  if (it == values_.end()) return def;
  return checked(name, it->second, parse_finite(it->second), "a finite number");
}

bool Options::get_bool(std::string_view name, bool def) const {
  const auto it = lookup(name);
  if (it == values_.end()) return def;
  return checked(name, it->second, parse_bool(it->second),
                 "one of 1/0/true/false/yes/no/on/off");
}

double bench_scale() {
  const char* env = std::getenv("FLEXNET_BENCH_SCALE");
  const auto scale = env != nullptr ? parse_finite(env) : std::nullopt;
  return scale && *scale > 0.0 ? *scale : 1.0;
}

}  // namespace flexnet
