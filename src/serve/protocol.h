// Wire protocol for the atlas_serve daemon.
//
// Every message is one length-prefixed binary frame:
//
//   offset  size  field
//   0       4     magic "ATSP"
//   4       4     message type (u32, little-endian like all payloads)
//   8       8     payload length in bytes (u64)
//   16      ...   payload (type-specific, encoded with util/serialize)
//
// The header is fixed-size so a reader can validate the magic and the
// declared length *before* allocating: declared lengths above
// `max_frame_bytes` are rejected without reading the payload, and payload
// decoding reuses the hardened util/serialize codecs, so truncated or
// hostile frames surface as ProtocolError / SerializeError — never as an
// allocation bomb or a crash.
//
// Requests: Ping, Predict, ListModels, Stats, Shutdown, Metrics,
// StreamBegin, StreamChunk, StreamEnd, LoadModel, UnloadModel, Health,
// TraceDump.
// Responses: Pong, PredictOk, ModelList, StatsText, ShutdownOk,
// MetricsText, StreamAck, AdminOk, HealthReport, TraceJson, Error.
// One response frame per request frame, in request order per connection.
//
// Protocol v2 (kProtocolVersion) adds optional extension *tails*: extra
// fields appended after a payload's base fields, carrying the distributed
// trace context on requests (RequestTraceExt) and the per-phase server
// timing breakdown on PredictOk (ServerTiming). Tails are
// backward/forward compatible by construction — see kProtocolVersion.
// Metrics and Stats requests additionally accept an optional string
// payload ("fleet" / "json") selecting an alternate rendering; servers
// that predate it ignore request payloads on those types entirely.
//
// Health is the readiness probe a routing tier keys decisions off: unlike
// ping (which only proves the accept loop is alive) it reports registry
// generation, feature-cache occupancy, dispatcher queue depth and drain
// state, so a prober can tell "up", "up but draining" and "up but
// overloaded" apart without scraping the full metrics text.
//
// LoadModel / UnloadModel mutate the daemon's model registry at runtime
// (pick up a freshly fine-tuned artifact, retire an old one) and are only
// honored when the daemon was started with --allow-admin — otherwise they
// answer kAdminDisabled. Load failures (unreadable path, corrupt artifact,
// bad Liberty file) answer kBadRequest and leave the registry untouched;
// the connection survives either way.
//
// The stream family uploads a client-supplied per-cycle toggle trace (VCD
// subset) too large for one frame: StreamBegin declares the model, netlist,
// cycle count and total trace size; each StreamChunk carries the next slice
// (sequence-numbered, acknowledged); StreamEnd closes the upload and is
// answered with the prediction itself (PredictOk) or an Error. Assembly
// state is per-connection, bounded by the declared size (itself capped),
// ordered by sequence number, and subject to the request deadline from the
// StreamBegin frame onward — a malformed, interleaved or abandoned stream
// costs one error reply or a dropped connection, never daemon state.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "power/power_analyzer.h"
#include "util/socket.h"

namespace atlas::serve {

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kFrameMagic[4] = {'A', 'T', 'S', 'P'};
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ull << 20;  // 64 MiB

/// ATSP protocol version. v1: PRs 2–7 (no trace context). v2: optional
/// trace-context / server-timing extension tails on Predict and
/// StreamBegin requests and the PredictOk response, plus the TraceDump
/// admin request. The version is *not* negotiated on the wire — v2 relies
/// on v1 decoders ignoring trailing payload bytes, so every pairing of
/// old/new client/server interoperates:
///
///   * v2 -> v1: the extension tail rides after the base fields; a v1
///     decoder reads exactly the base fields and never looks further.
///   * v1 -> v2: no tail present; the v2 decoder detects end-of-payload
///     and proceeds with an absent context (the server then generates a
///     root context, so old clients still get coherent server-side spans).
///   * future vN -> v2: the tail leads with its own version tag; a v2
///     decoder skips tails it does not understand.
inline constexpr std::uint32_t kProtocolVersion = 2;
inline constexpr std::uint32_t kTraceExtVersion = 2;

enum class MsgType : std::uint32_t {
  // Requests.
  kPing = 1,
  kPredict = 2,
  kListModels = 3,
  kStats = 4,
  kShutdown = 5,
  kMetrics = 6,
  kStreamBegin = 7,
  kStreamChunk = 8,
  kStreamEnd = 9,
  kLoadModel = 10,
  kUnloadModel = 11,
  kHealth = 12,
  /// Admin-gated: drain the process's span ring and answer kTraceJson with
  /// the Chrome trace JSON (each recorded event is returned exactly once
  /// across successive dumps). The router additionally fans this out to
  /// every backend and answers with the merged fleet trace.
  kTraceDump = 13,
  // Responses.
  kPong = 100,
  kPredictOk = 101,
  kModelList = 102,
  kStatsText = 103,
  kShutdownOk = 104,
  kMetricsText = 105,
  kStreamAck = 106,
  kAdminOk = 107,
  kHealthReport = 108,
  kTraceJson = 109,
  kError = 199,
};

enum class ErrorCode : std::uint32_t {
  kBadRequest = 1,       // undecodable payload / bad frame
  kUnknownModel = 2,     // model name not in the registry
  kUnknownWorkload = 3,  // workload name not recognized
  kDeadlineExceeded = 4, // request expired (queued, streaming, or computing)
  kShuttingDown = 5,     // server is draining
  kInternal = 6,         // handler threw (bad netlist, ...)
  kStreamProtocol = 7,   // stream state violation (order, size, no begin)
  kAdminDisabled = 8,    // load/unload without --allow-admin
  kUnknownDesign = 9,    // design_hash not in the cache; re-send the netlist
  /// Admission control: the server is past its cold-request depth watermark
  /// and this request would need encode-heavy work (design or embeddings not
  /// cached). The request was not queued; retry elsewhere or later. Warm
  /// requests are never shed — answering from the cache is cheaper than the
  /// round trip it would take the client to go anywhere else.
  kOverloaded = 10,
};

/// Stable enum-style name ("kUnknownModel", ...) for diagnostics and smoke
/// scripts that assert on error classes; values outside the enum render as
/// "kUnknownErrorCode".
const char* error_code_name(ErrorCode code);

struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// One reply frame: its type and encoded payload.
using Reply = std::pair<MsgType, std::string>;

/// Serialize a frame (header + payload) into wire bytes.
std::string encode_frame(MsgType type, const std::string& payload);

/// Write one frame to a socket.
void write_frame(util::Socket& sock, MsgType type, const std::string& payload);

/// Read one frame. Returns false on clean EOF at a frame boundary. Throws
/// ProtocolError on bad magic, unreasonable declared length (checked
/// against `max_frame_bytes` before any payload allocation), or truncation.
bool read_frame(util::Socket& sock, Frame& out,
                std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

// ---- Request payloads -----------------------------------------------------

/// v2 extension tail shared by Predict and StreamBegin requests: the
/// distributed trace context plus per-request flags. Encoded only when it
/// carries information (context valid or want_timing set), so v2 clients
/// with tracing off emit byte-identical v1 payloads.
///
/// `trace.span_id` on the wire is the *sender's* current span — the
/// receiver installs the context as-is and its spans parent under it.
struct RequestTraceExt {
  obs::TraceContext trace;
  /// Ask the server to attach the per-phase ServerTiming breakdown to the
  /// PredictOk response (independent of tracing/sampling).
  bool want_timing = false;
  /// Ask the server to append a LoadReport tail to the response (set by the
  /// routing tier on forwarded predicts, and stripped by it before the
  /// reply reaches the client). This is what makes the router's per-backend
  /// load signal request-fresh instead of probe-fresh.
  bool want_queue_depth = false;

  bool should_encode() const {
    return trace.valid() || want_timing || want_queue_depth;
  }
};

struct PredictRequest {
  std::string model;            // registry name
  std::string netlist_verilog;  // gate-level structural Verilog text
  std::string workload;         // "w1" | "w2"
  std::int32_t cycles = 300;
  std::uint32_t deadline_ms = 0;     // 0 = no deadline
  bool want_submodules = false;      // include per-sub-module rows
  RequestTraceExt ext;               // v2 optional tail

  std::string encode() const;
  static PredictRequest decode(const std::string& payload);
};

/// Trace encodings accepted by the stream family. decode() rejects any
/// other value with ProtocolError (answered as kBadRequest) so an unknown
/// format can never misparse chunk bytes later.
enum class TraceFormat : std::uint32_t {
  kVcdText = 1,      // the write_vcd / parse_vcd subset
  kToggleDelta = 2,  // binary ATDT toggle-delta (sim/delta_trace.h)
};

/// Opens a streamed-workload upload. The prediction parameters travel here;
/// the trace bytes follow in StreamChunk frames.
struct StreamBeginRequest {
  std::string model;            // registry name
  std::string netlist_verilog;  // gate-level structural Verilog text
  TraceFormat format = TraceFormat::kVcdText;
  /// Expected trace cycle count; 0 = accept whatever the trace contains.
  /// Nonzero values are enforced against the parsed trace.
  std::int32_t cycles = 0;
  std::uint32_t deadline_ms = 0;  // 0 = none; runs from StreamBegin receipt
  bool want_submodules = false;
  /// Declared total trace size; chunks may not exceed it and StreamEnd
  /// checks the sum matches. Capped server-side (max_stream_bytes).
  std::uint64_t trace_bytes = 0;
  /// Design-by-hash: nonzero = reference an already-cached design by the
  /// FNV-1a hash of its Verilog text instead of re-sending it (leave
  /// netlist_verilog empty). A hash the server's cache doesn't hold answers
  /// kUnknownDesign — at StreamBegin when possible, or at predict time if
  /// the entry was evicted mid-upload — and the client falls back to a full
  /// upload. 0 = not used.
  std::uint64_t design_hash = 0;
  RequestTraceExt ext;  // v2 optional tail

  std::string encode() const;
  static StreamBeginRequest decode(const std::string& payload);
};

struct StreamChunk {
  std::uint64_t seq = 0;  // 0-based, must arrive consecutively
  std::string data;

  std::string encode() const;
  static StreamChunk decode(const std::string& payload);
};

struct StreamEndRequest {
  std::uint64_t total_chunks = 0;
  std::uint64_t total_bytes = 0;  // must equal the assembled size

  std::string encode() const;
  static StreamEndRequest decode(const std::string& payload);
};

/// Load (or replace) a model artifact on the server at runtime. Paths are
/// resolved on the *server's* filesystem. Answered with AdminOk or Error.
struct LoadModelRequest {
  std::string name;          // registry name to publish under
  std::string path;          // AtlasModel artifact on the server
  std::string library_path;  // Liberty file; empty = server default library

  std::string encode() const;
  static LoadModelRequest decode(const std::string& payload);
};

/// Retire a registry name. In-flight requests pinned to the old entry still
/// complete; new requests answer kUnknownModel. Answered with AdminOk.
struct UnloadModelRequest {
  std::string name;

  std::string encode() const;
  static UnloadModelRequest decode(const std::string& payload);
};

// ---- Response payloads ----------------------------------------------------

/// Acknowledges StreamBegin (seq = 0, received = 0) and each StreamChunk
/// (seq = the chunk's sequence number, received = assembled bytes so far).
struct StreamAck {
  std::uint64_t seq = 0;
  std::uint64_t received_bytes = 0;

  std::string encode() const;
  static StreamAck decode(const std::string& payload);
};

/// Cache-path flags reported back to the client (and asserted by tests).
inline constexpr std::uint32_t kCacheHitDesign = 1u << 0;      // graphs reused
inline constexpr std::uint32_t kCacheHitEmbeddings = 1u << 1;  // encoder skipped

/// Per-phase server-side breakdown of one predict request, in
/// microseconds. Carried on the PredictOk response when the request asked
/// for it (want_timing), and logged by the server's slow-request log.
/// Phases are disjoint; total_us additionally covers glue between them, so
/// the sum of phases is <= total_us.
///
/// batch_wait_us and queue_us split what one "queue" phase used to
/// double-count: time parked in the dispatcher queue while a batch formed
/// (batch_wait_us; for streamed requests this also spans chunk assembly,
/// since the clock starts at StreamBegin receipt) versus handoff from batch
/// formation to the handler actually starting (queue_us). The split is what
/// makes the reported phases add up to the end-to-end latency.
struct ServerTiming {
  std::uint64_t batch_wait_us = 0;  // enqueue -> dispatcher batch formed
  std::uint64_t queue_us = 0;       // batch formed -> handler entry
  std::uint64_t cache_us = 0;       // feature-cache lookups
  std::uint64_t encode_us = 0;      // parse/sim/feature/encoder work
  std::uint64_t predict_us = 0;     // GBDT head evaluation
  std::uint64_t serialize_us = 0;   // response payload encode
  std::uint64_t total_us = 0;       // enqueue -> response encoded
};

/// Version tag of the PredictOk timing tail (seven fields, batch_wait_us
/// first). A tail with any other version decodes as "no timing".
inline constexpr std::uint32_t kTimingTailVersion = 3;

struct PredictResponse {
  std::uint32_t cache_flags = 0;
  double server_seconds = 0.0;  // handler wall-clock on the server
  std::int32_t num_cycles = 0;
  std::uint64_t num_submodules = 0;
  std::vector<power::GroupPower> design;     // [cycle]
  std::vector<power::GroupPower> submodule;  // [cycle*nsm + sm], optional
  /// v2 optional tail: set only when the request carried want_timing and
  /// the server understands v2.
  bool has_timing = false;
  ServerTiming timing;

  bool design_cache_hit() const { return cache_flags & kCacheHitDesign; }
  bool embedding_cache_hit() const { return cache_flags & kCacheHitEmbeddings; }

  std::string encode() const;
  static PredictResponse decode(const std::string& payload);
};

/// Append the v2 timing tail to an already-encoded PredictResponse base
/// payload. The server uses this to measure serialize_us over the base
/// encode itself and then attach the finished numbers without re-encoding;
/// PredictResponse::encode() with has_timing produces identical bytes.
void append_timing_ext(std::string& payload, const ServerTiming& timing);

/// Per-response load piggyback (want_queue_depth): a fixed-size tail the
/// server appends after every other tail on the reply to a request that
/// asked for it, and the routing tier strips before relaying — clients
/// never see it, so routed responses stay bit-identical to direct serving.
///
/// `load` counts jobs admitted but not yet answered (queued + in flight),
/// which is the signal a replica-routing policy needs: the dispatcher
/// drains its queue into a forming batch immediately, so the health
/// `queue_depth` alone reads ~0 even on a saturated shard.
struct LoadReport {
  std::uint64_t load = 0;
  std::uint64_t flags = 0;

  /// flags bit 0: the serving-side phase split for this request was
  /// dominated by waiting (batch_wait_us + queue_us > half of total_us) —
  /// the PR 8 slow-log signal the router's shed policy keys off.
  static constexpr std::uint64_t kFlagWaitDominated = 1ull << 0;
  bool wait_dominated() const { return (flags & kFlagWaitDominated) != 0; }
};

/// The tail is self-delimiting from the *end* of the payload: 8 magic bytes
/// ("ATLDRPT1") + 2 u64s, total 24 bytes. Leading with magic-from-the-end
/// (rather than a version tag after the base fields) lets the router strip
/// it from any response type — PredictOk with or without a timing tail,
/// Error — without understanding the payload it rides on, and lets old
/// decoders ignore it exactly like any other trailing bytes.
inline constexpr std::size_t kLoadExtBytes = 24;
void append_load_ext(std::string& payload, const LoadReport& report);

/// Removes a trailing load tail from `payload` if one is present, filling
/// `out`. Returns false (payload untouched) when the tail is absent — e.g.
/// the backend predates want_queue_depth and ignored the flag.
bool strip_load_ext(std::string& payload, LoadReport& out);

struct ModelInfo {
  std::string name;
  std::uint64_t encoder_dim = 0;
  /// Name of the Liberty library the model is bound to.
  std::string library;
  /// Registry generation of the current binding (bumped by every reload).
  std::uint64_t generation = 0;
  /// liberty::content_hash of that library — the second component of the
  /// design-cache key. A routing tier mixes this with the netlist content
  /// hash so one (design, substrate) pair lives on exactly one shard, and
  /// model names sharing a substrate share that shard's parsed designs.
  std::uint64_t library_hash = 0;
};

struct ModelListResponse {
  std::vector<ModelInfo> models;

  std::string encode() const;
  static ModelListResponse decode(const std::string& payload);
};

/// Rich readiness report (kHealth -> kHealthReport). Every field is a value
/// the server already tracks (registry counter, feature-cache occupancy,
/// dispatcher queue) — this request just snapshots them in one frame.
struct HealthResponse {
  /// Registry-wide load counter: bumps on every model (re)load, so a
  /// routing tier can detect "this shard saw an admin change".
  std::uint64_t registry_generation = 0;
  std::uint64_t num_models = 0;
  /// Feature-cache occupancy: design entries and approximate bytes held.
  std::uint64_t cache_designs = 0;
  std::uint64_t cache_total_bytes = 0;
  std::uint64_t cache_embedding_bytes = 0;
  /// Predict jobs waiting for the dispatcher (not yet running).
  std::uint64_t queue_depth = 0;
  /// True once the server started draining (stop requested or stopping):
  /// answer what's in flight, send no new work here.
  bool draining = false;

  std::string encode() const;
  static HealthResponse decode(const std::string& payload);
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  std::string encode() const;
  static ErrorResponse decode(const std::string& payload);
};

/// An Error reply carrying `code` and `message`.
Reply error_reply(ErrorCode code, const std::string& message);

/// StatsText and Pong/ShutdownOk payloads are a bare string / empty.
std::string encode_string_payload(const std::string& s);
std::string decode_string_payload(const std::string& payload);

/// Decode an optional selector payload ("json", "fleet", ...). Old clients
/// send an empty payload on these request types; an undecodable one is
/// treated the same way, so the request falls back to its default
/// rendering.
std::string optional_string_payload(const std::string& payload);

}  // namespace atlas::serve
