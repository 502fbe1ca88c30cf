#include "hssta/util/token_reader.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "hssta/util/error.hpp"
#include "hssta/util/strings.hpp"

namespace hssta::util {

HexFloat::HexFloat(double v) {
  // Subnormals keep printf's text: libstdc++ releases disagree on how
  // to_chars writes them (glibc's "0x0.0000000000001p-1022" or a
  // renormalized "0x1p-1074"), and they are too rare to cost anything.
  if (std::fpclassify(v) == FP_SUBNORMAL) {
    const int n = std::snprintf(buf_, sizeof(buf_), "%a", v);
    HSSTA_ASSERT(n > 0 && static_cast<size_t>(n) < sizeof(buf_),
                 "hexf buffer too small");
    len_ = static_cast<size_t>(n);
    return;
  }
  // Otherwise to_chars' hex form is "%a" without the "0x" prefix; printf
  // also puts the sign first, and writes NaN (sign included) and inf with
  // no prefix.
  char* p = buf_;
  if (!std::isnan(v) && std::signbit(v)) {
    *p++ = '-';
    v = -v;
  }
  if (std::isfinite(v)) {
    *p++ = '0';
    *p++ = 'x';
  }
  const std::to_chars_result r =
      std::to_chars(p, buf_ + sizeof(buf_), v, std::chars_format::hex);
  HSSTA_ASSERT(r.ec == std::errc(), "hexf buffer too small");
  len_ = static_cast<size_t>(r.ptr - buf_);
}

TokenReader::TokenReader(std::istream& is, std::string noun)
    : is_(is), noun_(std::move(noun)) {}

std::string TokenReader::token(const char* what) {
  std::string tok;
  if (!(is_ >> tok)) throw Error(noun_ + " truncated at " + what);
  return tok;
}

void TokenReader::keyword(const std::string& kw) {
  const std::string tok = token(kw.c_str());
  HSSTA_REQUIRE(tok == kw,
                noun_ + ": expected '" + kw + "', got '" + tok + "'");
}

size_t TokenReader::count(const char* what) {
  return static_cast<size_t>(
      parse_count(noun_ + " field '" + what + "'", token(what)));
}

double TokenReader::number(const char* what) {
  const std::string tok = token(what);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  HSSTA_REQUIRE(end && *end == '\0',
                "malformed number in " + noun_ + ": " + tok);
  return v;
}

}  // namespace hssta::util
