// atlas_router: a sharding front tier speaking the same ATSP protocol as
// atlas_serve, so every existing client (atlas_client, serve::Client,
// bench_serve) points at a router unchanged.
//
// Request handling splits three ways:
//
//   * **Routed data path** (Predict, StreamBegin/Chunk/End): the router
//     computes the backends' own design-cache key — hash_mix(netlist
//     content hash, Liberty content hash of the request's model, learned
//     from backend model lists) — and forwards the raw frames to the shard
//     the hash ring owns that key to. One (design, substrate) pair lands on
//     exactly one shard, so N backends hold N disjoint warm feature caches
//     instead of N copies of the same one — except the hottest keys, which
//     (with --replicas > 1) are eligible on the first R shards of their
//     preference chain, picked by freshest-known queue depth with warmth-
//     stable tie-breaking (see RoutingConfig / DESIGN.md §4k). Forwarded
//     predicts ask the shard to piggyback its live load on the reply; the
//     router strips that tail before relaying, so client payloads stay
//     bit-identical to direct serving. Transport failures and
//     kShuttingDown replies evict the shard from the ring and fail the
//     request over to the ring successor — the shard that inherits the
//     key's arc — transparently to the client; kOverloaded marks the shard
//     busy and tries the next replica (relayed only if every candidate
//     sheds); every other backend Error is authoritative and relayed
//     (kUnknownDesign in particular drives the client's documented
//     full-upload fallback).
//   * **Streamed uploads** are pinned: the whole Begin/Chunk*/End exchange
//     goes to one shard over one upstream connection (backend stream state
//     is per-connection). The router buffers the acked frames — bounded by
//     the declared trace size, which is validated against max_stream_bytes
//     at Begin — so a backend dying mid-upload is survivable: the buffered
//     prefix is replayed to the successor and the stream continues.
//   * **Local + fan-out control plane**: Ping, Health (aggregated over
//     live shards), Stats (per-backend table), Metrics (the router
//     process's Prometheus registry; payload selector "fleet" instead
//     fans out to every backend and merges the expositions under
//     per-shard shard="host:port" labels) and Shutdown are answered by
//     the router itself; LoadModel/UnloadModel fan out to every configured
//     backend — models are replicated fleet-wide, designs are sharded —
//     and the reply aggregates per-shard status (any shard failing turns
//     the aggregate into an Error naming exactly which shards diverged).
//     TraceDump (admin-gated) drains the router's own span ring plus every
//     reachable backend's and answers one merged Chrome trace document.
//
// Distributed tracing: a traced Predict/StreamBegin carries its context in
// the request's ext tail. The router adopts it (or — tracing enabled — mints
// a root for untraced v1 clients), runs the request under a "router" span,
// and re-encodes the forwarded payload with a fresh per-attempt child span
// ("forward:<backend>" / "stream_failover:<backend>") as the backend's
// parent, so failovers appear in the merged timeline as sibling attempts.
// Untraced requests keep the raw zero-copy forwarding path.
//
// Threading: the router runs on the same serve::FrameHost as atlas_serve
// (one accept thread per listener, one thread per client connection, the
// bad-frame path and the stop handshake). Each connection's handler owns
// its upstream sockets (one per backend, lazily connected, reused across
// requests) and its stream relay, so the data path shares no mutable
// state across connections — only the BackendPool (internally locked) and
// the obs metrics registry (atomics).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "router/backend_pool.h"
#include "serve/frame_host.h"
#include "serve/protocol.h"

namespace atlas::router {

struct RouterConfig : serve::ListenConfig {
  /// Bound on the per-stream replay buffer (and thus on what StreamBegin
  /// may declare). Should not exceed the backends' own max_stream_bytes —
  /// they would reject the upload anyway.
  std::size_t max_stream_bytes = 256ull << 20;  // 256 MiB

  ProbeConfig probe;
  /// Hot-key replication and overload-avoidance policy (see RoutingConfig);
  /// defaults keep replication off (replicas = 1).
  RoutingConfig routing;

  /// Data-path upstream connect bound. IO on an established upstream is
  /// deliberately unbounded by default: a predict may legitimately compute
  /// for a long time, and a dead backend surfaces as a socket error, not
  /// a silent stall (the kernel detects the close).
  int backend_connect_timeout_ms = 2000;
  int backend_io_timeout_ms = 0;

  /// Honor LoadModel/UnloadModel fan-out. Off by default, mirroring
  /// atlas_serve: admin is an operator capability. The backends enforce
  /// their own flag too — this gate just fails fast at the tier edge.
  bool allow_admin = false;
};

class Router {
 public:
  Router(RouterConfig config, std::vector<BackendAddress> backends);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Probe the fleet once (so the ring is populated), start the prober,
  /// bind listeners, launch accept threads.
  void start();
  void stop();

  /// Resolved TCP port after an ephemeral bind; -1 when TCP is disabled.
  int port() const { return host_.port(); }

  bool stop_requested() const { return host_.stop_requested(); }
  void wait_for_stop_request(const std::function<bool()>& poll = {}) {
    host_.wait_for_stop_request(poll);
  }

  /// Membership/liveness state (tests assert on it directly).
  BackendPool& pool() { return *pool_; }

  /// The per-backend table the Stats wire request answers with.
  std::string stats_text() const;

 private:
  /// Lazily-connected upstream sockets, one per backend id, owned by a
  /// single connection thread.
  using UpstreamMap = std::map<std::string, util::Socket>;
  /// Streamed-upload relay state (per client connection).
  struct StreamRelay {
    bool active = false;
    std::string backend;             // pinned shard
    std::vector<std::string> chain;  // failover order captured at Begin
    std::size_t chain_pos = 0;
    std::string begin_payload;              // Begin payload, for replay
    std::vector<std::string> chunk_payloads;  // acked chunks, in order
    /// Trace context adopted at Begin (zero when the stream is untraced);
    /// failover attempts parent their spans — and the re-encoded Begin
    /// replayed to the successor — under it.
    obs::TraceContext ctx;

    void reset() {
      active = false;
      backend.clear();
      chain.clear();
      chain_pos = 0;
      begin_payload.clear();
      chunk_payloads.clear();
      chunk_payloads.shrink_to_fit();
      ctx = obs::TraceContext{};
    }
  };

  /// What one client connection's handler owns.
  struct ConnectionState {
    UpstreamMap upstreams;
    StreamRelay relay;
  };

  /// The per-connection handler: answers one client frame.
  serve::Reply handle_frame(const serve::Frame& frame, ConnectionState& conn);

  /// Borrow (connecting if needed) the upstream socket for `id`; nullptr
  /// when the backend is unknown or unreachable.
  util::Socket* upstream(UpstreamMap& upstreams, const std::string& id);
  /// One raw round-trip to `id`. Returns false on transport failure
  /// (connect/send/recv error, framing corruption, EOF) — the upstream
  /// socket is dropped and the pool told — after which the caller fails
  /// over. A reply frame of any type (including Error) returns true.
  bool forward(UpstreamMap& upstreams, const std::string& id,
               const serve::Frame& request, serve::Frame& response);

  /// The placement key for (netlist hash, model): mixes in the model's
  /// Liberty content hash when the prober has learned it, else a hash of
  /// the model name (correct partitioning, no cross-model design sharing).
  std::uint64_t placement_key(std::uint64_t netlist_hash,
                              const std::string& model) const;

  /// The outcome of forward_along.
  struct Forwarded {
    serve::Reply reply;
    /// Chain position that answered; chain.size() when none did.
    std::size_t answered = 0;
    /// The request payload the answering candidate was sent.
    std::string sent;
  };
  /// Forward one request along `chain` until a candidate answers. Each
  /// attempt sends `encode(ctx)`, where ctx is the attempt's own
  /// "forward:<id>" span context when `traced` and invalid otherwise.
  /// Transport failures and kShuttingDown fail over to the next candidate;
  /// kOverloaded marks the shard busy and tries the next one; any other
  /// reply (success, or an authoritative error) is the answer. Predict
  /// replies have their load tail stripped and fed to the pool. When no
  /// candidate answers, the reply is the last shed (if any shard shed) or
  /// kInternal.
  Forwarded forward_along(
      UpstreamMap& upstreams, serve::MsgType type,
      const std::vector<std::string>& chain, bool traced,
      const std::function<std::string(const obs::TraceContext&)>& encode);

  serve::Reply route_predict(UpstreamMap& upstreams,
                             const serve::Frame& frame);
  serve::Reply handle_stream(UpstreamMap& upstreams, const serve::Frame& frame,
                             StreamRelay& relay);
  /// Replay the buffered stream prefix (Begin + acked chunks) to `id`.
  /// Returns true when every frame was acked; an authoritative error reply
  /// lands in `error` with `authoritative` = true (relay it, the stream is
  /// dead); transport failure returns false with `authoritative` = false
  /// (try the next candidate).
  bool replay_stream(UpstreamMap& upstreams, const std::string& id,
                     const StreamRelay& relay, serve::Frame& error,
                     bool& authoritative);
  /// Fail the active stream over to the next candidate in its chain,
  /// replaying the buffered prefix. Returns true and repoints
  /// relay.backend on success; on authoritative rejection or chain
  /// exhaustion returns false with the reply to send in `reply`.
  bool failover_stream(UpstreamMap& upstreams, StreamRelay& relay,
                       serve::Reply& reply);

  /// Bounds for the control-plane fan-outs (admin, trace dump, fleet
  /// metrics): fresh connections to every configured backend.
  serve::ClientOptions fanout_options() const;
  serve::Reply admin_fanout(const serve::Frame& frame);
  /// Admin-gated TraceDump: drain the local span ring and every reachable
  /// backend's, answer one merged Chrome trace (kTraceJson). Unreachable or
  /// admin-disabled shards are skipped — a forensic pull should return what
  /// the rest of the fleet has, not fail on the sickest member.
  serve::Reply trace_dump_fanout();
  /// Metrics "fleet" selector: every backend's Prometheus exposition merged
  /// with per-shard shard="<id>" labels, the router's own registry included
  /// as shard="router".
  std::string fleet_metrics();
  serve::HealthResponse health_snapshot() const;

  RouterConfig config_;
  std::unique_ptr<BackendPool> pool_;
  bool started_ = false;
  bool stopped_ = false;
  /// Declared last so it is destroyed first: connection threads call into
  /// the members above.
  serve::FrameHost host_;
};

}  // namespace atlas::router
