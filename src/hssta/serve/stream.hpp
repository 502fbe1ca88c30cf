/// \file stream.hpp
/// serve::serve_stream — the one-client line-stream transport in front of
/// a serve::Engine (`hssta_serve --stdio`), stream-based so tests can
/// drive it in-process.

#pragma once

#include <iosfwd>

namespace hssta::serve {

class Engine;

/// Answer request lines from `in` on `out`, one response line each and in
/// order, until the engine stops (a `shutdown` request) or `in` ends; then
/// stop the engine and wait for it to drain. Blank lines and lines that
/// start with '#' are skipped, so annotated transcripts pipe straight in.
/// A line longer than kMaxRequestLineBytes is never buffered whole: it is
/// answered with overlong_line_response() and ends the stream as EOF
/// would.
void serve_stream(Engine& engine, std::istream& in, std::ostream& out);

}  // namespace hssta::serve
