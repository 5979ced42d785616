// The connection host every ATSP endpoint (atlas_serve, atlas_router) runs
// on: listener binding, accept threads, one thread per connection, reaping,
// the bad-frame path, the stop-request handshake and a two-step stop.
//
// The owner supplies one handler per connection; the handler owns that
// connection's state (a server's stream assembly, a router's upstream
// sockets) and turns each well-formed request frame into one reply frame,
// which the host writes back in request order. A frame the host cannot
// read — bad magic, a declared length above max_frame_bytes, a stream that
// ends where the payload should start — gets a best-effort kBadRequest and
// the connection is dropped (the byte stream cannot be resynchronized);
// the handler never sees it. A socket error (including a stream that ends
// partway into a payload), a handler exception or a failed write drops
// that connection only, without a reply.
//
// Threading: one accept thread per listener, polling with a short timeout
// so stop_accepting() is observed without fd teardown races, and one
// thread per live connection. Finished connections are reaped (joined) by
// the accept threads. Stopping is two steps so an owner can drain work
// between them: stop_accepting() joins the accept threads and closes the
// listeners; close_connections() then unblocks idle readers and joins
// every connection thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "serve/protocol.h"
#include "util/socket.h"

namespace atlas::serve {

/// The endpoint fields ServerConfig and RouterConfig share.
struct ListenConfig {
  /// TCP endpoint; port 0 binds an ephemeral port (see port()), port < 0
  /// disables TCP.
  std::string host = "127.0.0.1";
  int port = 0;
  /// Unix-domain socket path; empty disables.
  std::string unix_path;

  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  bool verbose = false;
};

class FrameHost {
 public:
  /// Answers one request frame of one connection.
  using Handler = std::function<Reply(const Frame&)>;
  /// Makes a new connection's handler, on that connection's thread.
  using HandlerFactory = std::function<Handler()>;

  FrameHost() = default;
  ~FrameHost();

  FrameHost(const FrameHost&) = delete;
  FrameHost& operator=(const FrameHost&) = delete;

  /// Bind the configured listeners and launch the accept threads. Throws
  /// util::SocketError if neither endpoint is configured or a bind fails.
  void start(const ListenConfig& config, HandlerFactory factory);

  /// Step one of a stop: stop accepting, join the accept threads, close
  /// the listeners. Live connections keep being served.
  void stop_accepting();
  /// Step two: unblock idle connection readers and join every connection
  /// thread. A connection mid-request finishes its reply first.
  void close_connections();

  /// True from stop_accepting() on.
  bool stopping() const { return stopping_.load(); }

  /// Resolved TCP port after an ephemeral bind; -1 when TCP is disabled.
  int port() const { return resolved_port_; }

  /// Append the bound endpoints to a log line (host/port only when TCP is
  /// on, uds only when a Unix-domain path is).
  void log_endpoints(obs::LogLine& line) const;

  /// Flag a stop request (a client Shutdown) and wake wait_for_stop_request.
  void request_stop();
  bool stop_requested() const { return stop_requested_.load(); }
  /// Block until request_stop(). `poll` lets a daemon also watch an
  /// async-signal flag (which cannot notify); it is checked every ~50 ms,
  /// while request_stop() wakes the wait at once.
  void wait_for_stop_request(const std::function<bool()>& poll = {});

 private:
  struct Connection {
    util::Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop(util::Listener* listener);
  void connection_loop(Connection* conn);
  void reap_finished_connections();

  ListenConfig config_;
  HandlerFactory factory_;
  util::Listener tcp_listener_;
  util::Listener unix_listener_;
  int resolved_port_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::vector<std::thread> accept_threads_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
};

}  // namespace atlas::serve
