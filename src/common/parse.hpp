#pragma once
// Whole-token number parsing, shared by the mapping-file reader and the
// command-line tools.

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace iofa {

/// A whole token as one number; false on anything else (sign where the
/// type has none, trailing bytes, out of range).
template <typename T>
bool parse_number(std::string_view tok, T& out, int base = 10) {
  const char* end = tok.data() + tok.size();
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(tok.data(), end, out);
  } else {
    r = std::from_chars(tok.data(), end, out, base);
  }
  return r.ec == std::errc() && r.ptr == end;
}

}  // namespace iofa
