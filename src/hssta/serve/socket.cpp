#include "hssta/serve/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "hssta/serve/engine.hpp"
#include "hssta/serve/protocol.hpp"
#include "hssta/util/error.hpp"

namespace hssta::serve {

namespace {

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HSSTA_REQUIRE(path.size() < sizeof(addr.sun_path),
                "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

SocketServer::SocketServer(Engine& engine, std::string path)
    : engine_(engine), path_(std::move(path)) {
  const sockaddr_un addr = make_address(path_);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HSSTA_REQUIRE(listen_fd_ >= 0,
                std::string("socket() failed: ") + std::strerror(errno));
  ::unlink(path_.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("bind(" + path_ + ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    throw Error("listen(" + path_ + ") failed: " + std::strerror(err));
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Wake the acceptor, then every reader (each closes its own connection
  // on the way out); join them all.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::shared_ptr<Conn>& c : conns_) {
      std::lock_guard<std::mutex> wl(c->mu);
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(readers_);
    finished_.clear();
  }
  for (std::thread& t : readers) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(path_.c_str());
}

void SocketServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or fatally broken
    }
    join_finished_readers();
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { read_loop(conn); });
  }
}

void SocketServer::join_finished_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::thread::id id : finished_) {
      const auto it =
          std::find_if(readers_.begin(), readers_.end(),
                       [id](const std::thread& t) { return t.get_id() == id; });
      HSSTA_ASSERT(it != readers_.end(), "finished reader was never started");
      done.push_back(std::move(*it));
      readers_.erase(it);
    }
    finished_.clear();
  }
  // Each has left read_loop; joining only waits out its thread exit.
  for (std::thread& t : done) t.join();
}

void SocketServer::close_connection(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> wl(conn->mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::erase(conns_, conn);
  // accept_loop registered this thread under the same lock before it could
  // get here, so its handle is in readers_ (or stop() has taken it).
  if (!stopping_) finished_.push_back(std::this_thread::get_id());
}

void SocketServer::deliver(const std::shared_ptr<Conn>& conn, uint64_t seq,
                           std::string line) {
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->held.emplace(seq, std::move(line));
  // Write the run of held responses that starts at the next line due.
  while (!conn->held.empty() && conn->held.begin()->first == conn->next) {
    write_line(*conn, std::move(conn->held.begin()->second));
    conn->held.erase(conn->held.begin());
    ++conn->next;
  }
}

void SocketServer::write_line(Conn& conn, std::string line) {
  if (conn.fd < 0) return;  // client already gone; response dropped
  line.push_back('\n');
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(conn.fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // broken pipe: client disconnected mid-response
    }
    off += static_cast<size_t>(n);
  }
}

void SocketServer::read_loop(const std::shared_ptr<Conn>& conn) {
  std::string buffer;
  char chunk[4096];
  bool too_long = false;
  uint64_t next_seq = 0;  // numbers this connection's requests
  while (!too_long) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error or stop(): connection done
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.size() > kMaxRequestLineBytes) {
        too_long = true;
        break;
      }
      if (line.empty()) continue;
      // The callback holds the Conn alive past this reader's exit; once
      // the connection is closed its response is dropped.
      const uint64_t seq = next_seq++;
      engine_.submit(std::move(line), [conn, seq](std::string response) {
        deliver(conn, seq, std::move(response));
      });
    }
    buffer.erase(0, start);
    too_long = too_long || buffer.size() > kMaxRequestLineBytes;
  }
  if (too_long) {
    std::lock_guard<std::mutex> lock(conn->mu);
    write_line(*conn, overlong_line_response());
  }
  close_connection(conn);
}

}  // namespace hssta::serve
