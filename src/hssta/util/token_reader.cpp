#include "hssta/util/token_reader.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "hssta/util/error.hpp"
#include "hssta/util/strings.hpp"

namespace hssta::util {

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
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
