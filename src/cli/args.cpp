#include "cli/args.hpp"

namespace dlb::cli {

namespace {

bool is_option(const std::string& token) {
  return token.size() > 2 && token[0] == '-' && token[1] == '-';
}

}  // namespace

Args Args::parse(const std::vector<std::string>& tokens) {
  Args args;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    if (!is_option(token)) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    if (key.empty()) throw UsageError("empty option name");
    if (t + 1 < tokens.size() && !is_option(tokens[t + 1])) {
      args.options_[key] = tokens[++t];
    } else {
      args.options_[key] = "";  // boolean switch
    }
  }
  for (const auto& [key, value] : args.options_) {
    (void)value;
    args.touched_[key] = false;
  }
  return args;
}

bool Args::has(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  touched_[key] = true;
  return true;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  return it->second;
}

std::string Args::require(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) {
    throw UsageError("missing required option --" + key);
  }
  touched_[key] = true;
  return it->second;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  try {
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trail");
    return value;
  } catch (const std::exception&) {
    throw UsageError("option --" + key + " expects an integer, got '" +
                     it->second + "'");
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trail");
    return value;
  } catch (const std::exception&) {
    throw UsageError("option --" + key + " expects a number, got '" +
                     it->second + "'");
  }
}

std::uint64_t Args::get_seed(const std::string& key,
                             std::uint64_t fallback) const {
  const std::int64_t value =
      get_int(key, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw UsageError("option --" + key + " must be >= 0");
  }
  return static_cast<std::uint64_t>(value);
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> keys;
  for (const auto& [key, was_touched] : touched_) {
    if (!was_touched) keys.push_back(key);
  }
  return keys;
}

}  // namespace dlb::cli
