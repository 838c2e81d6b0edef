// Small string helpers shared by the assembler, tracer, benchmark report
// printers and the command-line tools.
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rings {

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

// "0x" + lowercase hex, zero-padded to `digits`.
std::string Hex(uint64_t value, int digits = 0);

// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitAny(std::string_view text, std::string_view delims);

// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// ASCII lowercase copy.
std::string ToLower(std::string_view text);

// Strict decimal parse for command-line and protocol numbers: the whole
// text must be digits, so a typo is an error, never a silent zero.
bool ParseU64(std::string_view text, uint64_t* out);

}  // namespace rings

#endif  // SRC_BASE_STRINGS_H_
