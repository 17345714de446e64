#pragma once

// Minimal command-line argument parser for the dlbsim tool: positional
// arguments plus `--name value` options and `--flag` switches. Kept in the
// library so it is unit-testable.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dlb::cli {

/// A malformed command line: an unknown or malformed option, or a value
/// the command cannot use. dlbsim answers it with exit 2 and the usage
/// page; any other error is a runtime failure (exit 1, one line).
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Args {
 public:
  /// Parses tokens of the form: positionals, `--key value`, `--switch`.
  /// A token starting with `--` whose successor also starts with `--` (or
  /// is absent) is treated as a boolean switch.
  static Args parse(const std::vector<std::string>& tokens);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters; throw UsageError on malformed values.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::uint64_t get_seed(const std::string& key,
                                       std::uint64_t fallback) const;

  /// Required variants: throw UsageError when missing.
  [[nodiscard]] std::string require(const std::string& key) const;

  /// Keys that were provided but never queried — used to reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace dlb::cli
