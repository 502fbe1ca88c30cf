/// \file token_reader.hpp
/// Whitespace-token reading for the line/keyword text serializers (.hstm
/// timing models, .hsds design states): one copy of the strict token,
/// keyword, count and number readers. Every error names the file kind the
/// reader was built with ("model file", "design state file"), so each
/// format keeps its own messages.

#pragma once

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

namespace hssta::util {

/// Hex-float text of one double, byte-identical to printf's "%a" (so it
/// parses back to the same bits), formatted into an inline buffer: the
/// serializers stream it (`os << hexf(v)`) without a heap allocation per
/// value.
class HexFloat {
 public:
  explicit HexFloat(double v);
  [[nodiscard]] std::string_view view() const { return {buf_, len_}; }

 private:
  char buf_[32];  ///< "-0x1.fffffffffffffp+1023" is the longest, 24 chars
  size_t len_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, const HexFloat& h) {
  return os << h.view();
}

[[nodiscard]] inline HexFloat hexf(double v) { return HexFloat(v); }

class TokenReader {
 public:
  /// `noun` names the file kind in every error, e.g. "model file".
  TokenReader(std::istream& is, std::string noun);

  /// The next whitespace-delimited token; throws "<noun> truncated at
  /// <what>" at end of input.
  [[nodiscard]] std::string token(const char* what);
  /// Consume the next token, which must be `kw`.
  void keyword(const std::string& kw);
  /// The next token as a strict count (parse_count: no signs, no trailing
  /// garbage, overflow rejected), naming "<noun> field '<what>'".
  [[nodiscard]] size_t count(const char* what);
  /// The next token as a double; the whole token must parse.
  [[nodiscard]] double number(const char* what);

 private:
  std::istream& is_;
  std::string noun_;
};

}  // namespace hssta::util
