#include "serve/protocol.h"

#include <cstring>
#include <limits>
#include <sstream>

#include "util/serialize.h"

namespace atlas::serve {
namespace {

using util::read_f64;
using util::read_string;
using util::read_u32;
using util::read_u64;
using util::write_f64;
using util::write_string;
using util::write_u32;
using util::write_u64;

void write_group_power_rows(std::ostream& os,
                            const std::vector<power::GroupPower>& rows) {
  write_u64(os, rows.size());
  for (const power::GroupPower& g : rows) {
    write_f64(os, g.comb);
    write_f64(os, g.reg);
    write_f64(os, g.clock);
    write_f64(os, g.memory);
  }
}

std::vector<power::GroupPower> read_group_power_rows(std::istream& is) {
  return util::read_vector<power::GroupPower>(is, [](std::istream& s) {
    power::GroupPower g;
    g.comb = read_f64(s);
    g.reg = read_f64(s);
    g.clock = read_f64(s);
    g.memory = read_f64(s);
    return g;
  });
}

template <typename Fn>
std::string encode_payload(Fn&& fn) {
  std::ostringstream os(std::ios::binary);
  fn(os);
  return std::move(os).str();
}

template <typename T, typename Fn>
T decode_payload(const std::string& payload, Fn&& fn) {
  std::istringstream is(payload, std::ios::binary);
  try {
    T value = fn(is);
    return value;
  } catch (const util::SerializeError& e) {
    throw ProtocolError(std::string("bad payload: ") + e.what());
  }
}

/// True when the stream still has bytes — i.e. a v2+ extension tail
/// follows the base fields just read.
bool has_ext_tail(std::istream& is) {
  return is.peek() != std::istream::traits_type::eof();
}

constexpr std::uint32_t kExtFlagSampled = 1u << 0;
constexpr std::uint32_t kExtFlagWantTiming = 1u << 1;
constexpr std::uint32_t kExtFlagWantQueueDepth = 1u << 2;

constexpr char kLoadExtMagic[8] = {'A', 'T', 'L', 'D', 'R', 'P', 'T', '1'};

void write_request_ext(std::ostream& os, const RequestTraceExt& ext) {
  write_u32(os, kTraceExtVersion);
  write_u64(os, ext.trace.trace_hi);
  write_u64(os, ext.trace.trace_lo);
  write_u64(os, ext.trace.span_id);
  std::uint32_t flags = 0;
  if (ext.trace.sampled) flags |= kExtFlagSampled;
  if (ext.want_timing) flags |= kExtFlagWantTiming;
  if (ext.want_queue_depth) flags |= kExtFlagWantQueueDepth;
  write_u32(os, flags);
}

/// Reads the optional request tail. A tail from a future protocol version
/// is skipped wholesale (its layout is unknown) rather than rejected, so
/// a newer client degrades to v1 behavior against this server.
RequestTraceExt read_request_ext(std::istream& is) {
  RequestTraceExt ext;
  if (!has_ext_tail(is)) return ext;
  const std::uint32_t version = read_u32(is);
  if (version != kTraceExtVersion) {
    is.ignore(std::numeric_limits<std::streamsize>::max());
    return ext;
  }
  ext.trace.trace_hi = read_u64(is);
  ext.trace.trace_lo = read_u64(is);
  ext.trace.span_id = read_u64(is);
  const std::uint32_t flags = read_u32(is);
  ext.trace.sampled = (flags & kExtFlagSampled) != 0;
  ext.want_timing = (flags & kExtFlagWantTiming) != 0;
  ext.want_queue_depth = (flags & kExtFlagWantQueueDepth) != 0;
  return ext;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "kBadRequest";
    case ErrorCode::kUnknownModel: return "kUnknownModel";
    case ErrorCode::kUnknownWorkload: return "kUnknownWorkload";
    case ErrorCode::kDeadlineExceeded: return "kDeadlineExceeded";
    case ErrorCode::kShuttingDown: return "kShuttingDown";
    case ErrorCode::kInternal: return "kInternal";
    case ErrorCode::kStreamProtocol: return "kStreamProtocol";
    case ErrorCode::kAdminDisabled: return "kAdminDisabled";
    case ErrorCode::kUnknownDesign: return "kUnknownDesign";
    case ErrorCode::kOverloaded: return "kOverloaded";
  }
  return "kUnknownErrorCode";
}

std::string encode_frame(MsgType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic, 4);
  const std::uint32_t t = static_cast<std::uint32_t>(type);
  const std::uint64_t len = payload.size();
  char buf[12];
  std::memcpy(buf, &t, 4);
  std::memcpy(buf + 4, &len, 8);
  out.append(buf, 12);
  out += payload;
  return out;
}

void write_frame(util::Socket& sock, MsgType type, const std::string& payload) {
  const std::string wire = encode_frame(type, payload);
  sock.send_all(wire.data(), wire.size());
}

bool read_frame(util::Socket& sock, Frame& out, std::size_t max_frame_bytes) {
  char header[kFrameHeaderBytes];
  if (!sock.recv_exact(header, sizeof(header))) return false;
  if (std::memcmp(header, kFrameMagic, 4) != 0) {
    throw ProtocolError("bad frame magic");
  }
  std::uint32_t type = 0;
  std::uint64_t len = 0;
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  if (len > max_frame_bytes) {
    throw ProtocolError("declared frame length " + std::to_string(len) +
                        " exceeds limit " + std::to_string(max_frame_bytes));
  }
  out.type = static_cast<MsgType>(type);
  out.payload.resize(static_cast<std::size_t>(len));
  if (len > 0 && !sock.recv_exact(out.payload.data(), out.payload.size())) {
    throw ProtocolError("truncated frame payload");
  }
  return true;
}

std::string PredictRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_string(os, model);
    write_string(os, netlist_verilog);
    write_string(os, workload);
    write_u32(os, static_cast<std::uint32_t>(cycles));
    write_u32(os, deadline_ms);
    write_u32(os, want_submodules ? 1u : 0u);
    if (ext.should_encode()) write_request_ext(os, ext);
  });
}

PredictRequest PredictRequest::decode(const std::string& payload) {
  return decode_payload<PredictRequest>(payload, [](std::istream& is) {
    PredictRequest r;
    r.model = read_string(is);
    r.netlist_verilog = read_string(is);
    r.workload = read_string(is);
    r.cycles = static_cast<std::int32_t>(read_u32(is));
    r.deadline_ms = read_u32(is);
    r.want_submodules = read_u32(is) != 0;
    r.ext = read_request_ext(is);
    return r;
  });
}

std::string StreamBeginRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_string(os, model);
    write_string(os, netlist_verilog);
    write_u32(os, static_cast<std::uint32_t>(format));
    write_u32(os, static_cast<std::uint32_t>(cycles));
    write_u32(os, deadline_ms);
    write_u32(os, want_submodules ? 1u : 0u);
    write_u64(os, trace_bytes);
    write_u64(os, design_hash);
    if (ext.should_encode()) write_request_ext(os, ext);
  });
}

StreamBeginRequest StreamBeginRequest::decode(const std::string& payload) {
  return decode_payload<StreamBeginRequest>(payload, [](std::istream& is) {
    StreamBeginRequest r;
    r.model = read_string(is);
    r.netlist_verilog = read_string(is);
    const std::uint32_t fmt = read_u32(is);
    if (fmt != static_cast<std::uint32_t>(TraceFormat::kVcdText) &&
        fmt != static_cast<std::uint32_t>(TraceFormat::kToggleDelta)) {
      throw ProtocolError("unknown trace format " + std::to_string(fmt));
    }
    r.format = static_cast<TraceFormat>(fmt);
    r.cycles = static_cast<std::int32_t>(read_u32(is));
    r.deadline_ms = read_u32(is);
    r.want_submodules = read_u32(is) != 0;
    r.trace_bytes = read_u64(is);
    r.design_hash = read_u64(is);
    r.ext = read_request_ext(is);
    return r;
  });
}

std::string StreamChunk::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, seq);
    write_string(os, data);
  });
}

StreamChunk StreamChunk::decode(const std::string& payload) {
  return decode_payload<StreamChunk>(payload, [](std::istream& is) {
    StreamChunk c;
    c.seq = read_u64(is);
    c.data = read_string(is);
    return c;
  });
}

std::string StreamEndRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, total_chunks);
    write_u64(os, total_bytes);
  });
}

StreamEndRequest StreamEndRequest::decode(const std::string& payload) {
  return decode_payload<StreamEndRequest>(payload, [](std::istream& is) {
    StreamEndRequest r;
    r.total_chunks = read_u64(is);
    r.total_bytes = read_u64(is);
    return r;
  });
}

std::string LoadModelRequest::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_string(os, name);
    write_string(os, path);
    write_string(os, library_path);
  });
}

LoadModelRequest LoadModelRequest::decode(const std::string& payload) {
  return decode_payload<LoadModelRequest>(payload, [](std::istream& is) {
    LoadModelRequest r;
    r.name = read_string(is);
    r.path = read_string(is);
    r.library_path = read_string(is);
    return r;
  });
}

std::string UnloadModelRequest::encode() const {
  return encode_payload(
      [this](std::ostream& os) { write_string(os, name); });
}

UnloadModelRequest UnloadModelRequest::decode(const std::string& payload) {
  return decode_payload<UnloadModelRequest>(payload, [](std::istream& is) {
    UnloadModelRequest r;
    r.name = read_string(is);
    return r;
  });
}

std::string StreamAck::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, seq);
    write_u64(os, received_bytes);
  });
}

StreamAck StreamAck::decode(const std::string& payload) {
  return decode_payload<StreamAck>(payload, [](std::istream& is) {
    StreamAck a;
    a.seq = read_u64(is);
    a.received_bytes = read_u64(is);
    return a;
  });
}

std::string PredictResponse::encode() const {
  std::string out = encode_payload([this](std::ostream& os) {
    write_u32(os, cache_flags);
    write_f64(os, server_seconds);
    write_u32(os, static_cast<std::uint32_t>(num_cycles));
    write_u64(os, num_submodules);
    write_group_power_rows(os, design);
    write_group_power_rows(os, submodule);
  });
  if (has_timing) append_timing_ext(out, timing);
  return out;
}

PredictResponse PredictResponse::decode(const std::string& payload) {
  return decode_payload<PredictResponse>(payload, [](std::istream& is) {
    PredictResponse r;
    r.cache_flags = read_u32(is);
    r.server_seconds = read_f64(is);
    r.num_cycles = static_cast<std::int32_t>(read_u32(is));
    r.num_submodules = read_u64(is);
    r.design = read_group_power_rows(is);
    r.submodule = read_group_power_rows(is);
    if (has_ext_tail(is)) {
      const std::uint32_t version = read_u32(is);
      if (version == kTimingTailVersion) {
        r.timing.batch_wait_us = read_u64(is);
        r.timing.queue_us = read_u64(is);
        r.timing.cache_us = read_u64(is);
        r.timing.encode_us = read_u64(is);
        r.timing.predict_us = read_u64(is);
        r.timing.serialize_us = read_u64(is);
        r.timing.total_us = read_u64(is);
        r.has_timing = true;
      }
    }
    return r;
  });
}

void append_timing_ext(std::string& payload, const ServerTiming& timing) {
  std::ostringstream os(std::ios::binary);
  write_u32(os, kTimingTailVersion);
  write_u64(os, timing.batch_wait_us);
  write_u64(os, timing.queue_us);
  write_u64(os, timing.cache_us);
  write_u64(os, timing.encode_us);
  write_u64(os, timing.predict_us);
  write_u64(os, timing.serialize_us);
  write_u64(os, timing.total_us);
  payload += std::move(os).str();
}

void append_load_ext(std::string& payload, const LoadReport& report) {
  char buf[kLoadExtBytes];
  std::memcpy(buf, kLoadExtMagic, 8);
  std::memcpy(buf + 8, &report.load, 8);
  std::memcpy(buf + 16, &report.flags, 8);
  payload.append(buf, kLoadExtBytes);
}

bool strip_load_ext(std::string& payload, LoadReport& out) {
  if (payload.size() < kLoadExtBytes) return false;
  const char* tail = payload.data() + payload.size() - kLoadExtBytes;
  if (std::memcmp(tail, kLoadExtMagic, 8) != 0) return false;
  std::memcpy(&out.load, tail + 8, 8);
  std::memcpy(&out.flags, tail + 16, 8);
  payload.resize(payload.size() - kLoadExtBytes);
  return true;
}

std::string ModelListResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, models.size());
    for (const ModelInfo& m : models) {
      write_string(os, m.name);
      write_u64(os, m.encoder_dim);
      write_string(os, m.library);
      write_u64(os, m.generation);
      write_u64(os, m.library_hash);
    }
  });
}

ModelListResponse ModelListResponse::decode(const std::string& payload) {
  return decode_payload<ModelListResponse>(payload, [](std::istream& is) {
    ModelListResponse r;
    r.models = util::read_vector<ModelInfo>(is, [](std::istream& s) {
      ModelInfo m;
      m.name = read_string(s);
      m.encoder_dim = read_u64(s);
      m.library = read_string(s);
      m.generation = read_u64(s);
      m.library_hash = read_u64(s);
      return m;
    });
    return r;
  });
}

std::string HealthResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u64(os, registry_generation);
    write_u64(os, num_models);
    write_u64(os, cache_designs);
    write_u64(os, cache_total_bytes);
    write_u64(os, cache_embedding_bytes);
    write_u64(os, queue_depth);
    write_u32(os, draining ? 1u : 0u);
  });
}

HealthResponse HealthResponse::decode(const std::string& payload) {
  return decode_payload<HealthResponse>(payload, [](std::istream& is) {
    HealthResponse h;
    h.registry_generation = read_u64(is);
    h.num_models = read_u64(is);
    h.cache_designs = read_u64(is);
    h.cache_total_bytes = read_u64(is);
    h.cache_embedding_bytes = read_u64(is);
    h.queue_depth = read_u64(is);
    h.draining = read_u32(is) != 0;
    return h;
  });
}

std::string ErrorResponse::encode() const {
  return encode_payload([this](std::ostream& os) {
    write_u32(os, static_cast<std::uint32_t>(code));
    write_string(os, message);
  });
}

ErrorResponse ErrorResponse::decode(const std::string& payload) {
  return decode_payload<ErrorResponse>(payload, [](std::istream& is) {
    ErrorResponse r;
    r.code = static_cast<ErrorCode>(read_u32(is));
    r.message = read_string(is);
    return r;
  });
}

Reply error_reply(ErrorCode code, const std::string& message) {
  ErrorResponse err;
  err.code = code;
  err.message = message;
  return {MsgType::kError, err.encode()};
}

std::string encode_string_payload(const std::string& s) {
  return encode_payload([&s](std::ostream& os) { write_string(os, s); });
}

std::string decode_string_payload(const std::string& payload) {
  return decode_payload<std::string>(
      payload, [](std::istream& is) { return read_string(is); });
}

std::string optional_string_payload(const std::string& payload) {
  if (payload.empty()) return {};
  try {
    return decode_string_payload(payload);
  } catch (const ProtocolError&) {
    return {};
  }
}

}  // namespace atlas::serve
