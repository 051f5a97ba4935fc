// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace vtopo::bench {

/// Minimal flag parser: --key value / --flag.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// True when `flag` was passed as a flag token. Tokens sitting in the
  /// value position of a preceding `--key` are not considered flags, so
  /// `--label quick` does not make has("quick") true.
  [[nodiscard]] bool has(const std::string& flag) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (is_value_position(i)) continue;
      if (args_[i] == flag) return true;
    }
    return false;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const {
    const char* raw = find_value(key);
    if (raw == nullptr) return fallback;
    char* end = nullptr;
    const long long v = std::strtoll(raw, &end, 10);
    if (end == raw || *end != '\0') {
      std::fprintf(stderr,
                   "warning: %s expects an integer, got \"%s\"; using "
                   "%lld\n",
                   key.c_str(), raw, static_cast<long long>(fallback));
      return fallback;
    }
    return v;
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const char* raw = find_value(key);
    if (raw == nullptr) return fallback;
    char* end = nullptr;
    const double v = std::strtod(raw, &end);
    if (end == raw || *end != '\0') {
      std::fprintf(stderr,
                   "warning: %s expects a number, got \"%s\"; using %g\n",
                   key.c_str(), raw, fallback);
      return fallback;
    }
    return v;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const {
    const char* raw = find_value(key);
    return raw == nullptr ? fallback : std::string(raw);
  }

 private:
  static bool looks_like_key(const std::string& tok) {
    return tok.size() > 2 && tok[0] == '-' && tok[1] == '-';
  }

  /// args_[i] is the value of a preceding --key (and so not a flag).
  [[nodiscard]] bool is_value_position(std::size_t i) const {
    return i > 0 && looks_like_key(args_[i - 1]) &&
           !looks_like_key(args_[i]);
  }

  /// Value token following `key`, or nullptr when absent or when the
  /// next token is itself a --key (i.e. `key` was passed as a bare flag).
  [[nodiscard]] const char* find_value(const std::string& key) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == key && !looks_like_key(args_[i + 1])) {
        return args_[i + 1].c_str();
      }
    }
    return nullptr;
  }

  std::vector<std::string> args_;
};

/// printf into a growing string — lets sweep points format output into
/// per-point buffers that the harness prints in deterministic order.
inline void append_format(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void append_format(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   ap2);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(ap2);
}

inline void print_header(const char* figure, const char* what) {
  std::printf("# %s — %s\n", figure, what);
  std::printf(
      "# Reproduction of ICPP'11 \"Virtual Topologies for Scalable "
      "Resource Management and Contention Attenuation\" (simulated Cray "
      "XT5 substrate)\n");
}

inline void print_rule() {
  std::printf(
      "#------------------------------------------------------------\n");
}

}  // namespace vtopo::bench
