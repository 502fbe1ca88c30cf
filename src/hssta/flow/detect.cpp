#include "hssta/flow/detect.hpp"

#include <cctype>
#include <fstream>

#include "hssta/util/error.hpp"

namespace hssta::flow {

namespace {

std::string_view trim_view(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// INPUT(x) / OUTPUT(x) / x = FUNC(a, b) — the three .bench line shapes.
bool looks_like_bench(std::string_view line) {
  std::string compact;
  compact.reserve(line.size());
  for (const char c : line)
    if (!std::isspace(static_cast<unsigned char>(c)))
      compact.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  if (compact.starts_with("INPUT(") || compact.starts_with("OUTPUT("))
    return true;
  const size_t eq = compact.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const size_t paren = compact.find('(', eq + 1);
  return paren != std::string::npos && paren > eq + 1;
}

}  // namespace

const char* format_name(FileFormat f) {
  switch (f) {
    case FileFormat::kBench:
      return "ISCAS .bench";
    case FileFormat::kBlif:
      return "BLIF";
    case FileFormat::kHstm:
      return "timing model (.hstm)";
    case FileFormat::kDesignState:
      return "design state (.hsds)";
    case FileFormat::kUnknown:
      return "unknown";
  }
  return "unknown";
}

FileFormat detect_format(std::string_view text) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = trim_view(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;

    // First significant line decides. The serialized formats lead with a
    // bare magic keyword; BLIF with a '.'-directive; .bench with one of
    // its three statement shapes.
    size_t tok = 0;
    while (tok < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[tok])))
      ++tok;
    const std::string_view first = line.substr(0, tok);
    if (first == "hstm") return FileFormat::kHstm;
    if (first == "hsds") return FileFormat::kDesignState;
    if (line.front() == '.') return FileFormat::kBlif;
    if (looks_like_bench(line)) return FileFormat::kBench;
    return FileFormat::kUnknown;
  }
  return FileFormat::kUnknown;
}

FileFormat detect_file_format(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open file: " + path);
  std::string prefix(kDetectPrefixBytes, '\0');
  is.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  prefix.resize(static_cast<size_t>(is.gcount()));
  return detect_format(prefix);
}

}  // namespace hssta::flow
