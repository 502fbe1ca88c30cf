/// \file protocol.hpp
/// The hssta_serve wire protocol: newline-delimited JSON request/response.
///
/// Every request is one JSON object on one line with a "verb" member;
/// every response is one JSON object on one line with an "ok" member (and
/// the request's "id" echoed back when it carried one). Response payloads
/// reuse the pinned flow/report schemas — a served delay block is byte-
/// identical to the --json block the one-shot CLI prints for the same
/// analysis.
///
/// Verbs:
///   {"verb":"load_design","name":"d","files":["m0.bench","m1.hstm"]}
///   {"verb":"open_session","design":"d"}
///   {"verb":"eco","session":1,"changes":[CHANGE...]}        record only
///   {"verb":"analyze","session":1[,"changes":[CHANGE...]]}  flush + delay
///   {"verb":"sweep","session":1,"scenarios":[{"label":"a",
///                                             "changes":[CHANGE...]}...]}
///   {"verb":"check","design":"d"}       static design lint (hssta::check)
///   {"verb":"stats"}
///   {"verb":"save_session","session":1,"file":"s.hsds"}
///   {"verb":"restore_session","file":"s.hsds"}       new session id
///   {"verb":"close_session","session":1}
///   {"verb":"shutdown"}
///
/// A CHANGE mirrors incr::Change:
///   {"op":"swap","inst":0,"file":"variant.bench|.hstm"}
///   {"op":"move","inst":1,"x":3.0,"y":0.0}
///   {"op":"rewire","conn":0,"from_inst":0,"from_port":1,
///                           "to_inst":1,"to_port":0}
///   {"op":"sigma","param":0,"scale":1.2}
///
/// Errors: {"id":..,"ok":false,"code":"...","error":"..."} with code one
/// of bad_request / unknown_design / unknown_session / saturated /
/// backpressure / shutting_down / invalid_change / check_failed /
/// internal. A check_failed response (load_design of a design with
/// error-level static diagnostics) additionally carries the full check
/// report under "report".

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "hssta/flow/config.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/util/json.hpp"

namespace hssta::serve {

enum class Verb {
  kLoadDesign,
  kOpenSession,
  kEco,
  kAnalyze,
  kSweep,
  kCheck,
  kStats,
  kSaveSession,
  kRestoreSession,
  kCloseSession,
  kShutdown,
};

/// Longest request line either transport accepts, newline excluded.
/// Requests name model and state files by path, never inline their
/// contents, so real lines stay orders of magnitude below it. A longer
/// line is answered with overlong_line_response(), and the transport
/// stops reading: the socket closes the connection, the stream transport
/// ends as at EOF.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// Error codes (the protocol's stable vocabulary).
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownDesign = "unknown_design";
inline constexpr const char* kUnknownSession = "unknown_session";
inline constexpr const char* kSaturated = "saturated";
inline constexpr const char* kBackpressure = "backpressure";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kInvalidChange = "invalid_change";
inline constexpr const char* kCheckFailed = "check_failed";
inline constexpr const char* kInternal = "internal";

/// One change as it appears on the wire: model files are still paths (the
/// engine resolves them against its config + model cache at apply time).
struct ChangeSpec {
  enum class Op { kSwap, kMove, kRewire, kSigma };

  Op op = Op::kSigma;
  size_t inst = 0;      ///< swap / move
  std::string file;     ///< swap
  double x = 0.0;       ///< move
  double y = 0.0;       ///< move
  size_t conn = 0;      ///< rewire
  hier::PortRef from;   ///< rewire
  hier::PortRef to;     ///< rewire
  size_t param = 0;     ///< sigma
  double scale = 1.0;   ///< sigma
};

struct ScenarioSpec {
  std::string label;
  std::vector<ChangeSpec> changes;
};

/// One parsed request line.
struct Request {
  Verb verb = Verb::kStats;
  /// Echoed back in the response when present. The engine answers in
  /// completion order; the socket transport writes a connection's
  /// responses in its request order, rejections included. Ids let
  /// in-process callers match regardless.
  std::optional<uint64_t> id;
  std::string name;                      ///< load_design
  std::vector<std::string> files;        ///< load_design
  std::string design;                    ///< open_session / check
  std::string file;                      ///< save_session / restore_session
  uint64_t session = 0;                  ///< session verbs
  std::vector<ChangeSpec> changes;       ///< eco / analyze
  std::vector<ScenarioSpec> scenarios;   ///< sweep
};

/// True for verbs that address an existing session — the engine
/// serializes these per session id.
[[nodiscard]] bool is_session_verb(Verb v);

/// Parse one request line; throws hssta::Error (the engine answers with a
/// bad_request response naming the problem).
[[nodiscard]] Request parse_request(const std::string& line);

/// Parse one CHANGE object (the {"op":...} schema above); throws
/// hssta::Error on malformed input. Exposed for the campaign spec parser,
/// whose expanded scenarios carry wire-schema changes.
[[nodiscard]] ChangeSpec parse_change_spec(const util::JsonValue& c);

/// Resolve a wire change into an engine change: the one-shot path. Every
/// call loads a swap's model file afresh through the module pipeline (and
/// the persistent model cache when configured); serve::Engine resolves
/// swaps through its model table instead and calls this for the rest.
[[nodiscard]] incr::Change resolve_change(const ChangeSpec& spec,
                                          const flow::Config& cfg);

/// Open a response object and emit "id" (when present) and "ok"; the
/// caller appends payload members and closes the object.
void begin_response(util::JsonWriter& w, const std::optional<uint64_t>& id,
                    bool ok);

/// A complete error-response line (without trailing newline).
[[nodiscard]] std::string error_response(const std::optional<uint64_t>& id,
                                         const char* code,
                                         const std::string& message);

/// The bad_request line (without trailing newline) that answers a request
/// line longer than kMaxRequestLineBytes; its message names the limit.
[[nodiscard]] std::string overlong_line_response();

}  // namespace hssta::serve
