// hssta_serve — long-running hierarchical-SSTA analysis service.
//
//   hssta_serve --socket /tmp/hssta.sock      Unix-domain-socket daemon
//   hssta_serve --stdio                       one-client stdio mode
//
// The server loads chain designs once (model extraction, stitching and
// the base analysis all happen at load_design time), then serves ECO
// what-if sessions against the warm state: each session is a private
// incremental engine clone, so an eco/analyze round trip re-propagates
// only the change's cone and returns numbers bit-identical to a one-shot
// `hssta_cli eco` of the same change. Protocol: newline-delimited JSON
// (see src/hssta/serve/protocol.hpp and docs/API.md); drive it with
// `hssta_cli serve-client` or any line-oriented socket client.
//
// The service stops on the `shutdown` verb (graceful: accepted requests
// drain first) or, in --stdio mode, on stdin EOF or after answering an
// over-long request line.

#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "hssta/serve/engine.hpp"
#include "hssta/serve/socket.hpp"
#include "hssta/serve/stream.hpp"
#include "hssta/util/argparse.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/version.hpp"

namespace {

using namespace hssta;

int run(int argc, const char* const* argv) {
  std::string socket_path, config_file, cache_dir;
  bool stdio = false, version = false;
  serve::EngineOptions opts;
  uint64_t threads = 0, queue_cap = opts.queue_capacity;
  uint64_t max_sessions = opts.max_sessions;
  double idle_timeout = opts.idle_timeout_seconds;

  util::ArgParser p("hssta_serve",
                    "long-running hierarchical-SSTA analysis service");
  p.option("--socket", &socket_path, "path",
           "Unix-domain socket to listen on");
  p.flag("--stdio", &stdio,
         "serve one client over stdin/stdout instead of a socket");
  p.option("--threads", &threads, "N",
           "worker threads running requests, 0 = all hardware threads");
  p.option("--queue-cap", &queue_cap, "N",
           "admission-control queue capacity (default 256)");
  p.option("--idle-timeout", &idle_timeout, "SECONDS",
           "evict sessions idle longer than this, 0 = never (default 600)");
  p.option("--max-sessions", &max_sessions, "N",
           "max concurrently open sessions (default 256)");
  p.option("--config", &config_file, "file", "flow::Config key=value file");
  p.option("--cache-dir", &cache_dir, "dir",
           "persistent .hstm model cache directory");
  p.flag("--version", &version, "print version/build info and exit");
  if (!p.parse(argc, argv, 1)) return 0;

  if (version) {
    std::printf("%s\n", build_info().c_str());
    return 0;
  }
  HSSTA_REQUIRE(stdio == socket_path.empty(),
                "pick exactly one of --socket PATH or --stdio");

  opts.threads = threads;
  opts.queue_capacity = queue_cap;
  opts.idle_timeout_seconds = idle_timeout;
  opts.max_sessions = max_sessions;
  if (!config_file.empty())
    opts.config = flow::Config::from_file(config_file);
  if (!cache_dir.empty()) {
    opts.config.cache.dir = cache_dir;
    opts.config.cache.enabled = true;
  }

  // A client vanishing mid-write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  serve::Engine engine(std::move(opts));

  if (stdio) {
    // Annotated transcripts (examples/serve_session.txt) pipe straight in.
    serve::serve_stream(engine, std::cin, std::cout);
    return 0;
  }

  serve::SocketServer server(engine, socket_path);
  std::fprintf(stderr, "hssta_serve %s listening on %s\n", kVersion,
               server.path().c_str());
  engine.wait_until_stopped();
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
