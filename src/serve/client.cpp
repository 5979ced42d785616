#include "serve/client.h"

#include <optional>

#include "obs/trace.h"
#include "util/hash.h"

namespace atlas::serve {
namespace {

/// The trace scope and "client" span a predict or stream call runs under.
/// The context is the caller's explicit one, else the thread's ambient one,
/// else — only when tracing is on — a fresh sampled root. Without any, both
/// stay empty and the request travels context-free (the v1-identical path).
struct CallTrace {
  std::optional<obs::TraceContextScope> scope;
  std::optional<obs::ObsSpan> span;

  CallTrace(const obs::TraceContext& explicit_ctx, const char* name) {
    obs::TraceContext ctx = explicit_ctx;
    if (!ctx.valid()) ctx = obs::current_trace_context();
    if (!ctx.valid() && obs::trace_enabled()) {
      ctx = obs::make_root_context(/*sampled=*/true);
    }
    if (!ctx.valid()) return;
    scope.emplace(ctx);
    span.emplace("client", name);
  }
};

}  // namespace

Client Client::connect_tcp(const std::string& host, int port,
                           const ClientOptions& options) {
  Client c(util::connect_tcp(host, port, options.connect_timeout_ms));
  if (options.io_timeout_ms > 0) c.set_io_timeout_ms(options.io_timeout_ms);
  return c;
}

Client Client::connect_unix(const std::string& path,
                            const ClientOptions& options) {
  Client c(util::connect_unix(path, options.connect_timeout_ms));
  if (options.io_timeout_ms > 0) c.set_io_timeout_ms(options.io_timeout_ms);
  return c;
}

void Client::set_io_timeout_ms(int timeout_ms) {
  sock_.set_io_timeout_ms(timeout_ms);
}

Frame Client::round_trip(MsgType type, const std::string& payload,
                         MsgType expected, LoadReport* load_out) {
  write_frame(sock_, type, payload);
  Frame resp;
  if (!read_frame(sock_, resp)) {
    throw ProtocolError("server closed the connection");
  }
  if (load_out != nullptr) {
    // The load tail rides error replies too (a shed answers kOverloaded
    // plus the tail), so it is stripped before anything is decoded.
    *load_out = LoadReport{};
    strip_load_ext(resp.payload, *load_out);
  }
  if (resp.type == MsgType::kError) {
    const ErrorResponse err = ErrorResponse::decode(resp.payload);
    throw ServeError(err.code, err.message);
  }
  if (resp.type != expected) {
    throw ProtocolError(
        "unexpected response type " +
        std::to_string(static_cast<std::uint32_t>(resp.type)));
  }
  return resp;
}

void Client::ping() {
  round_trip(MsgType::kPing, std::string(), MsgType::kPong);
}

HealthResponse Client::health() {
  const Frame resp =
      round_trip(MsgType::kHealth, std::string(), MsgType::kHealthReport);
  return HealthResponse::decode(resp.payload);
}

PredictResponse Client::predict(const PredictRequest& request,
                                LoadReport* load_out) {
  const CallTrace trace(request.ext.trace, "predict");
  // Copy the request only to change it: the plain untraced path sends the
  // caller's object as is (it carries the netlist text).
  std::optional<PredictRequest> changed;
  if (trace.span || load_out != nullptr) {
    changed = request;
    // The client span is the server side's parent.
    if (trace.span) changed->ext.trace = trace.span->context();
    if (load_out != nullptr) changed->ext.want_queue_depth = true;
  }
  const Frame resp = round_trip(MsgType::kPredict,
                                (changed ? *changed : request).encode(),
                                MsgType::kPredictOk, load_out);
  return PredictResponse::decode(resp.payload);
}

PredictResponse Client::predict_stream(StreamBeginRequest begin,
                                       const std::string& trace_bytes,
                                       std::size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = 64 * 1024;
  begin.trace_bytes = trace_bytes.size();
  const CallTrace trace(begin.ext.trace, "stream");
  if (trace.span) begin.ext.trace = trace.span->context();
  round_trip(MsgType::kStreamBegin, begin.encode(), MsgType::kStreamAck);
  std::uint64_t seq = 0;
  for (std::size_t off = 0; off < trace_bytes.size(); off += chunk_bytes) {
    StreamChunk chunk;
    chunk.seq = seq++;
    chunk.data = trace_bytes.substr(off, chunk_bytes);
    round_trip(MsgType::kStreamChunk, chunk.encode(), MsgType::kStreamAck);
  }
  StreamEndRequest end;
  end.total_chunks = seq;
  end.total_bytes = trace_bytes.size();
  const Frame resp =
      round_trip(MsgType::kStreamEnd, end.encode(), MsgType::kPredictOk);
  return PredictResponse::decode(resp.payload);
}

PredictResponse Client::predict_stream_cached(const StreamBeginRequest& begin,
                                              const std::string& trace_bytes,
                                              std::size_t chunk_bytes,
                                              bool* used_hash) {
  StreamBeginRequest by_hash = begin;
  by_hash.design_hash = util::fnv1a64(begin.netlist_verilog);
  by_hash.netlist_verilog.clear();
  try {
    PredictResponse resp = predict_stream(by_hash, trace_bytes, chunk_bytes);
    if (used_hash != nullptr) *used_hash = true;
    return resp;
  } catch (const ServeError& e) {
    // A server that rejects the hash (at StreamBegin, or at predict time
    // after losing the race with eviction) has discarded any partial
    // upload and left the connection usable for the full retry.
    if (e.code() != ErrorCode::kUnknownDesign) throw;
  }
  if (used_hash != nullptr) *used_hash = false;
  StreamBeginRequest full = begin;
  full.design_hash = 0;
  return predict_stream(full, trace_bytes, chunk_bytes);
}

void Client::load_model(const std::string& name, const std::string& path,
                        const std::string& library_path) {
  LoadModelRequest req;
  req.name = name;
  req.path = path;
  req.library_path = library_path;
  round_trip(MsgType::kLoadModel, req.encode(), MsgType::kAdminOk);
}

void Client::unload_model(const std::string& name) {
  UnloadModelRequest req;
  req.name = name;
  round_trip(MsgType::kUnloadModel, req.encode(), MsgType::kAdminOk);
}

std::vector<ModelInfo> Client::models() {
  const Frame resp =
      round_trip(MsgType::kListModels, std::string(), MsgType::kModelList);
  return ModelListResponse::decode(resp.payload).models;
}

std::string Client::stats_text(bool json) {
  const Frame resp =
      round_trip(MsgType::kStats,
                 json ? encode_string_payload("json") : std::string(),
                 MsgType::kStatsText);
  return decode_string_payload(resp.payload);
}

std::string Client::metrics_text(bool fleet) {
  const Frame resp =
      round_trip(MsgType::kMetrics,
                 fleet ? encode_string_payload("fleet") : std::string(),
                 MsgType::kMetricsText);
  return decode_string_payload(resp.payload);
}

std::string Client::trace_dump_text() {
  const Frame resp =
      round_trip(MsgType::kTraceDump, std::string(), MsgType::kTraceJson);
  return decode_string_payload(resp.payload);
}

void Client::shutdown_server() {
  round_trip(MsgType::kShutdown, std::string(), MsgType::kShutdownOk);
}

}  // namespace atlas::serve
