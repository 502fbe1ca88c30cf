/// \file token_reader.hpp
/// Whitespace-token reading for the line/keyword text serializers (.hstm
/// timing models, .hsds design states): one copy of the strict token,
/// keyword, count and number readers. Every error names the file kind the
/// reader was built with ("model file", "design state file"), so each
/// format keeps its own messages.

#pragma once

#include <cstddef>
#include <istream>
#include <string>

namespace hssta::util {

/// Hex-float text of `v` ("%a"), which parses back to the same bits.
[[nodiscard]] std::string hexf(double v);

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
