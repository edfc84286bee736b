#ifndef SKYLINE_SERVER_PROTOCOL_H_
#define SKYLINE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace skyline {

/// Wire framing for the skyline query server: every message — request and
/// response alike — is a 4-byte big-endian payload length followed by that
/// many bytes of UTF-8 JSON. One request frame yields exactly one response
/// frame; the connection is a sequential request/response stream (no
/// pipelining, no out-of-order responses), which keeps the client a loop
/// of WriteFrame/ReadFrame pairs.
///
/// A frame goes onto the socket in one send: prefix and payload together.
/// Split into two sends, Nagle's algorithm holds the payload back until
/// the peer ACKs the prefix, and the peer delays that ACK by 40 ms or
/// more, so every small request and response would stall that long.
/// Because every peer writes through WriteFrame, both directions are
/// covered without TCP_NODELAY or any other socket option.
///
/// Request documents:
///   {"op": "query",  "sql": "SELECT ...", "timeout_ms": 1000,
///    "include_rows": true, "include_report": false}
///   {"op": "ping"} | {"op": "stats"} | {"op": "shutdown"}
/// `sql` covers the whole dialect — SELECT/EXPLAIN through the session's
/// cached-read path, INSERT/DELETE through the engine's maintenance write
/// path. `timeout_ms` 0 cancels immediately (a deterministic cancellation
/// probe); absent or negative means no deadline.
///
/// Response documents:
///   {"ok": true, "columns": [...], "rows": [[...], ...],
///    "rows_affected": n, "report": {...}}
///   {"ok": false, "error": {"code": "InvalidArgument", "message": "..."}}
/// The "report" member is a RunReport JSON object (schema v1) whose labels
/// and numbers carry the service counters: result_cache hit/miss/bypass/
/// write, cache hits/misses/invalidations, admission rejections.

/// Default cap on a frame payload (16 MiB): a malformed or hostile length
/// prefix fails fast instead of allocating gigabytes.
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

/// Reads exactly one frame's payload from `fd` into `payload`. Blocks
/// until a full frame arrives. Returns:
///  - OK with the payload on success;
///  - NotFound when the peer closed cleanly *between* frames (the normal
///    end-of-stream — callers exit their serve loop on it);
///  - IoError on mid-frame EOF, socket errors, or a length prefix
///    exceeding `max_bytes`.
Status ReadFrame(int fd, std::string* payload,
                 uint32_t max_bytes = kMaxFrameBytes);

/// Writes `payload` as one frame (length prefix + bytes) with a single
/// sendmsg that references the payload in place, resuming after short
/// sends and EINTR. Returns ResourceExhausted, having sent nothing, when
/// the payload exceeds `max_bytes` (the stream stays usable); IoError on
/// socket errors, including a closed peer (never SIGPIPE).
Status WriteFrame(int fd, const std::string& payload,
                  uint32_t max_bytes = kMaxFrameBytes);

}  // namespace skyline

#endif  // SKYLINE_SERVER_PROTOCOL_H_
