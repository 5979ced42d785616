#include "serve/frame_host.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>

namespace atlas::serve {

FrameHost::~FrameHost() {
  stop_accepting();
  close_connections();
}

void FrameHost::start(const ListenConfig& config, HandlerFactory factory) {
  if (config.port < 0 && config.unix_path.empty()) {
    throw util::SocketError("no endpoint (TCP and UDS disabled)");
  }
  config_ = config;
  factory_ = std::move(factory);
  if (config_.port >= 0) {
    int port = config_.port;
    tcp_listener_ = util::Listener::tcp(config_.host, port);
    resolved_port_ = port;
  }
  if (!config_.unix_path.empty()) {
    unix_listener_ = util::Listener::unix_domain(config_.unix_path);
  }
  for (util::Listener* l : {&tcp_listener_, &unix_listener_}) {
    if (l->valid()) accept_threads_.emplace_back([this, l] { accept_loop(l); });
  }
}

void FrameHost::stop_accepting() {
  stopping_.store(true);
  for (std::thread& t : accept_threads_) t.join();
  accept_threads_.clear();
  tcp_listener_.close();
  unix_listener_.close();
}

void FrameHost::close_connections() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) c->sock.shutdown_read();
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.back());
      conns_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void FrameHost::log_endpoints(obs::LogLine& line) const {
  // UDS-only: there is no TCP endpoint, and a host/port pair would only
  // mislead an operator grepping the log for the listen address.
  if (resolved_port_ >= 0) line.kv("host", config_.host).kv("port", resolved_port_);
  if (!config_.unix_path.empty()) line.kv("uds", config_.unix_path);
}

void FrameHost::request_stop() {
  // Set under stop_mu_ so a waiter between its check and its wait cannot
  // sleep through the wakeup.
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_.store(true);
  }
  stop_cv_.notify_all();
}

void FrameHost::wait_for_stop_request(const std::function<bool()>& poll) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  for (;;) {
    if (stop_requested_.load()) return;
    if (poll && poll()) return;
    if (poll) {
      stop_cv_.wait_for(lock, std::chrono::milliseconds(50));
    } else {
      stop_cv_.wait(lock);
    }
  }
}

void FrameHost::accept_loop(util::Listener* listener) {
  while (!stopping_.load()) {
    std::optional<util::Socket> sock;
    try {
      sock = listener->accept(/*timeout_ms=*/100);
    } catch (const util::SocketError&) {
      // Listener failure (fd limit, ...): back off rather than spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    reap_finished_connections();
    if (!sock) continue;
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(*sock);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { connection_loop(raw); });
  }
}

void FrameHost::reap_finished_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = std::partition(conns_.begin(), conns_.end(),
                             [](const auto& c) { return !c->done.load(); });
    std::move(it, conns_.end(), std::back_inserter(finished));
    conns_.erase(it, conns_.end());
  }
  for (auto& c : finished) {
    if (c->thread.joinable()) c->thread.join();
  }
}

void FrameHost::connection_loop(Connection* conn) {
  util::Socket& sock = conn->sock;
  try {
    const Handler handle = factory_();
    for (;;) {
      Frame frame;
      try {
        if (!read_frame(sock, frame, config_.max_frame_bytes)) break;
      } catch (const ProtocolError& e) {
        // Bad magic / hostile length / truncation: the byte stream cannot
        // be resynchronized, so answer best-effort and drop the peer.
        const auto [type, payload] =
            error_reply(ErrorCode::kBadRequest, e.what());
        try {
          write_frame(sock, type, payload);
        } catch (const util::SocketError&) {
        }
        break;
      }
      const auto [type, payload] = handle(frame);
      write_frame(sock, type, payload);
    }
  } catch (const std::exception&) {
    // Peer vanished mid-write or similar: drop this connection only.
  }
  // Signal EOF to the peer but leave the fd to the owning Connection's
  // destructor (after join) — closing here would race close_connections()'s
  // shutdown_read() on a possibly recycled descriptor.
  sock.shutdown_both();
  conn->done.store(true);
}

}  // namespace atlas::serve
