// printf-style appending shared by the iostat serializers and renderers.
// Internal to src/iostat.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace iostat {

/// Append printf-formatted text to `out`. Output of any length is kept.
inline void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

/// Append `s` as a quoted, escaped JSON string.
inline void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  pnc::json::AppendEscaped(out, s);
  out.push_back('"');
}

}  // namespace iostat
