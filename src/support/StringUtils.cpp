//===- support/StringUtils.cpp - Small string helpers --------------------===//

#include "support/StringUtils.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace sbi;

std::string sbi::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::vector<std::string> sbi::splitString(std::string_view Text,
                                          char Separator) {
  std::vector<std::string> Pieces;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Separator, Start);
    if (Pos == std::string_view::npos) {
      Pieces.emplace_back(Text.substr(Start));
      return Pieces;
    }
    Pieces.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string sbi::joinStrings(const std::vector<std::string> &Pieces,
                             std::string_view Separator) {
  std::string Result;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I != 0)
      Result += Separator;
    Result += Pieces[I];
  }
  return Result;
}

std::string sbi::padRight(std::string_view Text, size_t Width) {
  std::string Result(Text.substr(0, Width));
  Result.resize(Width, ' ');
  return Result;
}

std::string sbi::padLeft(std::string_view Text, size_t Width) {
  if (Text.size() >= Width)
    return std::string(Text);
  return std::string(Width - Text.size(), ' ') + std::string(Text);
}

bool sbi::startsWith(std::string_view Text, std::string_view Prefix) {
  return Text.substr(0, Prefix.size()) == Prefix;
}

bool sbi::parseUnsigned(std::string_view Text, uint64_t &Out) {
  // from_chars already rejects leading whitespace and '+'; a '-' would
  // otherwise wrap ("-1" -> 2^64-1) under some libc strtoull paths, so it
  // is excluded explicitly along with everything else that is not a digit.
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  const char *First = Text.data(), *Last = Text.data() + Text.size();
  std::from_chars_result Result = std::from_chars(First, Last, Value, 10);
  if (Result.ec != std::errc() || Result.ptr != Last)
    return false;
  Out = Value;
  return true;
}

bool sbi::parseRate(std::string_view Text, double &Out) {
  double Value = 0.0;
  const char *First = Text.data(), *Last = Text.data() + Text.size();
  std::from_chars_result Result = std::from_chars(First, Last, Value);
  // The range test also rejects NaN, which compares false with everything.
  if (Result.ec != std::errc() || Result.ptr != Last ||
      !(Value > 0.0 && Value <= 1.0))
    return false;
  Out = Value;
  return true;
}
