/// \file socket.hpp
/// serve::SocketServer — the Unix-domain-socket transport in front of a
/// serve::Engine.
///
/// One listener thread accepts connections; each connection gets a reader
/// thread that splits the byte stream into lines and submits every line
/// to the engine. The engine answers each request from whichever thread
/// finishes it (a worker, or the reader itself for a rejection), in
/// completion order, so the transport restores request order: the reader
/// numbers each line it submits, and the connection holds a response
/// until every earlier response on it is written. A connection's
/// responses therefore arrive in its request order, rejections
/// ("bad_request"/"backpressure"/"shutting_down") included. Writes
/// serialize on a per-connection mutex.
///
/// Sessions are NOT connection-bound: a client may disconnect and resume
/// its session id over a new connection; abandoned sessions fall to the
/// engine's idle-timeout eviction. Connection teardown therefore closes
/// only the transport, never engine state: when a reader sees EOF or an
/// error (or a request line longer than kMaxRequestLineBytes, answered
/// with one bad_request first) it closes its fd and drops the connection,
/// and the acceptor joins finished readers before starting the next one,
/// so a long-lived daemon holds fds and threads only for open connections.
/// Responses still in flight for a closed connection are dropped; the
/// over-long line's bad_request is written at once, as the last line.

#pragma once

#include <cstdint>
#include <map>
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
  /// outlive it; everything below is guarded by `mu`. The reader closes
  /// `fd` when it exits, so a late callback sees -1 and drops its
  /// response.
  struct Conn {
    int fd = -1;
    std::mutex mu;
    /// Sequence number of the next response to write.
    uint64_t next = 0;
    /// Responses that finished before an earlier one on the connection.
    std::map<uint64_t, std::string> held;
  };

  void accept_loop();
  void read_loop(const std::shared_ptr<Conn>& conn);
  /// Close `conn`, forget it and mark the calling reader finished.
  void close_connection(const std::shared_ptr<Conn>& conn);
  /// Join the readers that have marked themselves finished.
  void join_finished_readers();
  /// Write the response to request `seq` once every earlier one is
  /// written, and any held responses it unblocks.
  static void deliver(const std::shared_ptr<Conn>& conn, uint64_t seq,
                      std::string line);
  /// Caller holds conn->mu.
  static void write_line(Conn& conn, std::string line);

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
