#pragma once
/// \file protocol.hpp
/// \brief Wire protocol of the synthesis service: framing + JSON codecs.
///
/// Every message is one *frame*: a 4-byte big-endian payload length followed
/// by that many bytes of UTF-8 JSON. Framing is transport-agnostic — the same
/// functions serve the unix-domain socket and the stdin/stdout mode the tests
/// and CI drive.
///
/// Requests carry the schema tag (`t1sfq-flow-v1`, core/api.hpp) and an `op`:
///
///   * `ping`     — liveness probe, answered with `{"ok":true,"op":"pong"}`.
///   * `flow`     — one `FlowRequest`: the netlist as inline BLIF text plus
///                  the v1 knob surface. Answered with a `FlowResponse`.
///   * `batch`    — an array of flow requests, multiplexed onto the shared
///                  job runner (benchmarks/runner.hpp); answered with the
///                  responses in request order.
///   * `stats`    — service counter snapshot (requests, tier hits, sessions).
///   * `shutdown` — graceful stop after the response is written.
///
/// The codecs reuse the observability JSON writer/reader (src/obs/json.hpp):
/// deterministic field order on the way out, tolerant field lookup on the way
/// in. Malformed payloads throw typed errors (core/error.hpp): `ParseError`
/// for bad JSON/BLIF, `Error(InvalidRequest)` for structural violations —
/// the server turns both into structured error responses instead of dying.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"

namespace t1sfq::service {

/// Upper bound on a frame payload; larger announcements are rejected before
/// allocation (a corrupt / hostile length prefix must not OOM the daemon).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Reads one length-prefixed frame. Returns false on clean EOF before the
/// first length byte; throws Error(InvalidRequest) on truncated or oversized
/// frames.
bool read_frame(std::istream& in, std::string& payload);

/// Writes one length-prefixed frame and flushes.
void write_frame(std::ostream& out, std::string_view payload);

struct Request {
  enum class Op { Ping, Flow, Batch, Stats, Shutdown };
  Op op = Op::Ping;
  FlowRequest flow;                ///< op == Flow
  std::vector<FlowRequest> batch;  ///< op == Batch
  unsigned threads = 0;            ///< batch parallelism (0 = runner default)
};

/// Decodes a request payload. Throws ParseError (bad JSON / bad BLIF) or
/// Error(InvalidRequest) (wrong schema, unknown op, missing fields).
Request parse_request(const std::string& payload);

/// Client-side encoders (tests, bench driver, daemon smoke tool).
std::string encode_ping();
std::string encode_stats_request();
std::string encode_shutdown();
std::string encode_flow_request(const FlowRequest& req);
std::string encode_batch_request(const std::vector<FlowRequest>& reqs,
                                 unsigned threads = 0);

/// Server-side encoders. `encode_response` is also the format of the warm
/// cache's disk blobs.
std::string encode_response(const FlowResponse& resp);
std::string encode_batch_response(const std::vector<FlowResponse>& resps);
std::string encode_error(ErrorCode code, const std::string& message);

/// Decodes a flow response (client side + disk-blob reads). Throws
/// ParseError on malformed payloads and on any schema other than
/// `t1sfq-flow-v1`.
FlowResponse parse_response(const std::string& payload);

/// Extracts the per-item responses of a batch reply, in request order.
/// Throws like `parse_response`.
std::vector<FlowResponse> parse_batch_response(const std::string& payload);

}  // namespace t1sfq::service
