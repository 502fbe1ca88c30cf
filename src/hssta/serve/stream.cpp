#include "hssta/serve/stream.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "hssta/serve/engine.hpp"
#include "hssta/serve/protocol.hpp"

namespace hssta::serve {

namespace {

enum class LineRead { kLine, kTooLong, kEnd };

/// Read the next line, newline stripped, into `line`; at most
/// kMaxRequestLineBytes of it are ever held. A last line without a
/// newline still counts as a line.
LineRead read_line(std::streambuf& in, std::string& line) {
  line.clear();
  for (;;) {
    const int c = in.sbumpc();
    if (c == std::char_traits<char>::eof())
      return line.empty() ? LineRead::kEnd : LineRead::kLine;
    if (c == '\n') return LineRead::kLine;
    if (line.size() == kMaxRequestLineBytes) return LineRead::kTooLong;
    line.push_back(static_cast<char>(c));
  }
}

}  // namespace

void serve_stream(Engine& engine, std::istream& in, std::ostream& out) {
  std::string line;
  while (!engine.stopped()) {
    const LineRead got = read_line(*in.rdbuf(), line);
    if (got == LineRead::kEnd) break;
    if (got == LineRead::kTooLong) {
      out << overlong_line_response() << '\n' << std::flush;
      break;
    }
    if (line.empty() || line[0] == '#') continue;
    out << engine.request(line) << '\n' << std::flush;
  }
  engine.request_stop();
  engine.wait_until_stopped();
}

}  // namespace hssta::serve
