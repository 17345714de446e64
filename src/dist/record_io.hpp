#pragma once

// Internal: the keyed-record text codec of dlb-checkpoint,
// dlb-open-checkpoint and dlb-arrival-plan — whitespace-separated "key
// value" pairs and counted sections ("key count", then one row). Doubles
// travel as IEEE-754 bit patterns: decimal round-trips are not guaranteed
// exact, bit patterns are. Files are untrusted: sections grow as entries
// arrive (memory bounded by the input's length), loaders bound each count
// and each id by their header's `machines`/`jobs`, and every error is a
// std::runtime_error prefixed with the loader ("Checkpoint::load: ...").

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dlb::dist::record {

[[nodiscard]] inline std::uint64_t bits_of(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}
[[nodiscard]] inline double double_of(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

/// "key count", then the section's row space-separated on one line (no
/// line when empty). Doubles go out as bit patterns and `dash`, if given,
/// as '-'; unary plus prints byte-sized ids as numbers.
template <typename T>
void write_row(std::ostream& out, const char* key,
               const std::vector<T>& values,
               std::optional<std::type_identity_t<T>> dash = std::nullopt) {
  out << key << ' ' << values.size() << "\n";
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k != 0) out << ' ';
    if (values[k] == dash) {
      out << '-';
    } else if constexpr (std::is_floating_point_v<T>) {
      out << bits_of(values[k]);
    } else {
      out << +values[k];
    }
  }
  if (!values.empty()) out << "\n";
}

/// save(out) into the file at `path`; `where` prefixes the open error.
template <typename Save>
void save_file(const std::string& path, const char* where, Save save) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(where) + ": cannot open " + path);
  }
  save(out);
}

/// load(in) from the file at `path`; `where` prefixes the open error.
template <typename Load>
auto load_file(const std::string& path, const char* where, Load load) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(std::string(where) + ": cannot open " + path);
  }
  return load(in);
}

class Reader {
 public:
  /// `where` prefixes every error message ("Checkpoint::load").
  Reader(std::istream& in, const char* where) : in_(in), where_(where) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(std::string(where_) + ": " + why);
  }

  /// The "<magic> v1" first line.
  void header(const char* magic) {
    std::string got_magic;
    std::string version;
    if (!(in_ >> got_magic >> version) || got_magic != magic ||
        version != "v1") {
      fail(std::string("expected header \"") + magic + " v1\"");
    }
  }

  void expect(const char* key) {
    std::string token;
    if (!(in_ >> token) || token != key) {
      fail(std::string("expected \"") + key + "\" (got \"" + token + "\")");
    }
  }

  template <typename T>
  [[nodiscard]] T value(const char* key) {
    expect(key);
    T v{};
    if (!(in_ >> v)) fail(std::string("bad value for ") + key);
    return v;
  }

  [[nodiscard]] double bits_value(const char* key) {
    return double_of(value<std::uint64_t>(key));
  }

  /// A section's "key count", rejected when it exceeds `limit`, the header
  /// field named `limit_name`.
  [[nodiscard]] std::size_t count(const char* key, std::size_t limit,
                                  const char* limit_name) {
    const auto n = value<std::size_t>(key);
    if (n > limit) {
      fail(std::string(key) + " count " + std::to_string(n) +
           " exceeds the header's " + limit_name + " (" +
           std::to_string(limit) + ")");
    }
    return n;
  }

  /// `count` entries (doubles as bit patterns) appended to `out`, growing
  /// it as they arrive; a short read fails as "truncated <what>".
  template <typename T>
  void row(std::vector<T>& out, std::size_t count, const char* what) {
    constexpr bool kBits = std::is_floating_point_v<T>;
    for (std::size_t k = 0; k < count; ++k) {
      std::conditional_t<kBits, std::uint64_t, T> v{};
      if (!(in_ >> v)) fail(std::string("truncated ") + what);
      if constexpr (kBits) {
        out.push_back(double_of(v));
      } else {
        out.push_back(v);
      }
    }
  }

  /// row() where '-' reads as `sentinel`.
  template <typename T>
  void id_row(std::vector<T>& out, std::size_t count, T sentinel,
              const char* what) {
    for (std::size_t k = 0; k < count; ++k) {
      std::string token;
      if (!(in_ >> token)) fail(std::string("truncated ") + what);
      if (token == "-") {
        out.push_back(sentinel);
        continue;
      }
      bool parsed = true;
      unsigned long id = 0;
      try {
        id = std::stoul(token);
      } catch (const std::exception&) {
        parsed = false;
      }
      if (!parsed || id > std::numeric_limits<T>::max()) {
        fail(std::string("bad ") + what + " entry \"" + token + "\"");
      }
      out.push_back(static_cast<T>(id));
    }
  }

  /// Fails when an entry of `ids` other than `sentinel` is not below
  /// `limit`, the header field named `limit_name`.
  template <typename T>
  void ids_below(const std::vector<T>& ids, std::size_t limit,
                 const char* limit_name, const char* what,
                 std::optional<std::type_identity_t<T>> sentinel =
                     std::nullopt) {
    for (const T id : ids) {
      if (id != sentinel && id >= limit) {
        fail(std::string(what) + " entry " + std::to_string(id) +
             " is out of range for the header's " + limit_name + " (" +
             std::to_string(limit) + ')');
      }
    }
  }

  /// Fails when `ids` repeats an entry.
  template <typename T>
  void distinct(std::vector<T> ids, const char* what) {
    std::sort(ids.begin(), ids.end());
    const auto repeat = std::adjacent_find(ids.begin(), ids.end());
    if (repeat != ids.end()) {
      fail(std::string(what) + " repeats entry " + std::to_string(*repeat));
    }
  }

  /// A generator state, "key w0 w1 ...".
  template <std::size_t N>
  void words(const char* key, std::array<std::uint64_t, N>& out) {
    expect(key);
    for (auto& word : out) {
      if (!(in_ >> word)) fail(std::string("truncated ") + key + " state");
    }
  }

 private:
  std::istream& in_;
  const char* where_;
};

}  // namespace dlb::dist::record
