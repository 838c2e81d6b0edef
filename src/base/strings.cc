#include "src/base/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace rings {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Hex(uint64_t value, int digits) {
  char buf[32];
  if (digits > 0) {
    std::snprintf(buf, sizeof(buf), "0x%0*llx", digits, static_cast<unsigned long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(value));
  }
  return buf;
}

std::vector<std::string_view> SplitAny(std::string_view text, std::string_view delims) {
  std::vector<std::string_view> pieces;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      pieces.push_back(text.substr(start));
      break;
    }
    if (end > start) {
      pieces.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return pieces;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace rings
