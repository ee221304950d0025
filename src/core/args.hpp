// Minimal command-line argument parser for the bsmp tools: long
// options with values (--n 256 or --n=256), boolean flags (--csv), and
// typed access with defaults. No external dependencies, order-free.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bsmp::core {

/// Parse `text` as a base-10 integer, strictly: the whole text must be
/// one integer in [min, INT64_MAX]. An empty value, trailing text
/// ("4x"), a value outside the int64 range or one below `min` throws
/// precondition_error naming `what` (an option or variable name).
std::int64_t parse_int(
    const std::string& text, const std::string& what,
    std::int64_t min = std::numeric_limits<std::int64_t>::min());

/// A non-negative integer environment knob: `fallback` when `name` is
/// unset or empty, else parse_int(value, name, 0).
std::int64_t env_count(const char* name, std::int64_t fallback);

class Args {
 public:
  /// Parse argv. Unknown options are collected and reported via
  /// unknown(); positional arguments via positional().
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& known_flags = {});

  bool has(const std::string& name) const;

  std::optional<std::string> get(const std::string& name) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_flag(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::vector<std::string>& unknown() const { return unknown_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> unknown_;
};

}  // namespace bsmp::core
