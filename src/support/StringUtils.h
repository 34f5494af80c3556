//===- support/StringUtils.h - Small string helpers ----------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style formatting into std::string plus the handful of splitting
/// and padding helpers the table renderers need. GCC 12 lacks std::format,
/// so a checked vsnprintf wrapper stands in.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_SUPPORT_STRINGUTILS_H
#define SBI_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sbi {

/// printf-style formatting that returns a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p Text on \p Separator; adjacent separators yield empty pieces.
std::vector<std::string> splitString(std::string_view Text, char Separator);

/// Joins \p Pieces with \p Separator between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Pieces,
                        std::string_view Separator);

/// Pads or truncates \p Text on the right to exactly \p Width columns.
std::string padRight(std::string_view Text, size_t Width);

/// Pads \p Text on the left to at least \p Width columns.
std::string padLeft(std::string_view Text, size_t Width);

/// True if \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Strict base-10 unsigned parse: the entire input must be digits and the
/// value must fit in 64 bits. Unlike strtoull, rejects empty strings,
/// leading signs/whitespace, trailing garbage ("123abc"), and overflow
/// instead of silently yielding 0 or a wrapped value. On success writes
/// \p Out and returns true; on failure \p Out is untouched.
bool parseUnsigned(std::string_view Text, uint64_t &Out);

/// Strict sampling-rate parse: the entire input must be a decimal number
/// with 0 < rate <= 1. Rejects empty strings, trailing garbage ("0.5x"),
/// zero, negatives, rates above one, "nan" and "inf". On success writes
/// \p Out and returns true; on failure \p Out is untouched.
bool parseRate(std::string_view Text, double &Out);

} // namespace sbi

#endif // SBI_SUPPORT_STRINGUTILS_H
