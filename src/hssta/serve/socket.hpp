/// \file socket.hpp
/// serve::SocketServer — the Unix-domain-socket transport in front of a
/// serve::Engine.
///
/// One listener thread accepts connections; each connection gets a reader
/// thread that splits the byte stream into lines and submits every line
/// to the engine. Responses are written back (one line each) under a
/// per-connection write mutex: the engine's dispatcher delivers batch
/// responses from its own thread while up-front rejections arrive inline
/// from the reader, so writes must serialize. A connection's responses
/// arrive in its request order except for those rejections (which carry
/// "code":"backpressure"/"shutting_down" and the echoed request id).
///
/// Sessions are NOT connection-bound: a client may disconnect and resume
/// its session id over a new connection; abandoned sessions fall to the
/// engine's idle-timeout eviction. Connection teardown therefore closes
/// only the transport, never engine state: when a reader sees EOF or an
/// error (or a request line longer than kMaxRequestLineBytes, answered
/// with one bad_request first) it closes its fd and drops the connection,
/// and the acceptor joins finished readers before starting the next one,
/// so a long-lived daemon holds fds and threads only for open connections.
/// Responses still in flight for a closed connection are dropped.

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hssta::serve {

class Engine;

class SocketServer {
 public:
  /// Bind + listen on `path` (an existing socket file is replaced) and
  /// start accepting. Throws hssta::Error when the socket can't be set up.
  SocketServer(Engine& engine, std::string path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Stop accepting, wake every connection reader, join all threads and
  /// remove the socket file. Call after the engine has stopped (drained) —
  /// every accepted request then already has its response written.
  void stop();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  /// Shared by a connection's reader thread and the engine callbacks that
  /// outlive it; writes serialize on `mu`. The reader closes `fd` (under
  /// `mu`) when it exits, so a late callback sees -1 and drops its
  /// response.
  struct Conn {
    int fd = -1;
    std::mutex mu;
  };

  void accept_loop();
  void read_loop(const std::shared_ptr<Conn>& conn);
  /// Close `conn`, forget it and mark the calling reader finished.
  void close_connection(const std::shared_ptr<Conn>& conn);
  /// Join the readers that have marked themselves finished.
  void join_finished_readers();
  static void write_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line);

  Engine& engine_;
  std::string path_;
  int listen_fd_ = -1;
  std::thread acceptor_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;   ///< open connections
  std::vector<std::thread> readers_;           ///< not yet joined
  std::vector<std::thread::id> finished_;      ///< readers past their loop
  bool stopping_ = false;
};

}  // namespace hssta::serve
