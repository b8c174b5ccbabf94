// Wire protocol for the plan-serving tier (DESIGN.md §15).
//
// Versioned, length-prefixed binary framing with a CRC32 trailer:
//
//   offset  size  field
//        0     4  magic      0x45524957 ("WIRE" as little-endian bytes)
//        4     2  version    kWireVersion (little-endian, like every field)
//        6     2  type       MsgType
//        8     8  request_id caller-chosen correlation id (echoed verbatim)
//       16     4  payload_len
//       20     n  payload    message body (per-type encoding below)
//     20+n     4  crc32      IEEE CRC-32 over bytes [0, 20+n)
//
// Everything is canonical little-endian; doubles travel as their IEEE bit
// patterns (never a decimal round trip), so a decoded PlanRequest
// re-canonicalizes to the IDENTICAL cache key and a decoded Plan reproduces
// plan_fingerprint() byte for byte — the property the wire tier's
// equivalence contract (bench_wire, the `wire` fuzz kind) is stated in.
//
// Decoding is lenient in the tradition of common/csv and the platform
// parser: a malformed frame is rejected with exactly one per-corruption-
// class counter bump (WireCodecStats) and the stream keeps going — a bad
// frame fails the REQUEST, never the connection, and no input can reach
// undefined behaviour (every read is bounds-checked, every length capped).
//
//   bad_magic       framing lost; bytes are skipped until the next magic
//   short_frame     the stream ended inside a frame (torn write / drop)
//   overlong_frame  declared payload_len exceeds the configured cap
//   crc_mismatch    the full frame arrived but its CRC fails
//   unknown_version CRC-valid frame from a protocol version we don't speak
//   unknown_type    CRC-valid frame whose type is not a MsgType
//   bad_payload     CRC-valid frame whose payload fails its message parse
//                   (counted by the caller of the decode_* helpers)
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/plan_service.h"
#include "service/request.h"

namespace sompi::net {

inline constexpr std::uint32_t kWireMagic = 0x45524957u;  // "WIRE"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 20;
inline constexpr std::size_t kWireTrailerBytes = 4;

/// Message types. Values are wire contract — never renumber.
enum class MsgType : std::uint16_t {
  kPlanRequest = 1,
  kPlanResponse = 2,
  kStatsRequest = 3,
  kStatsResponse = 4,
  kErrorResponse = 5,
};

const char* msg_type_label(MsgType type);

/// IEEE CRC-32 (polynomial 0xEDB88320, reflected), the zlib/Ethernet one.
std::uint32_t crc32(std::string_view bytes);

// ---------------------------------------------------------------------------
// Bounds-checked primitive encoding (canonical little-endian).

class WireWriter {
 public:
  /// Encoders reserve their exact size up front, so a message is built in
  /// one allocation.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// IEEE bit pattern — exact, no decimal round trip.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    out_.append(v);
  }
  void raw(std::string_view v) { out_.append(v); }

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  /// One append per fixed-width field, low byte first.
  template <typename Unsigned>
  void put_le(Unsigned v) {
    char le[sizeof(Unsigned)];
    for (std::size_t i = 0; i < sizeof(Unsigned); ++i) le[i] = static_cast<char>(v >> (8 * i));
    out_.append(le, sizeof(Unsigned));
  }

  std::string out_;
};

/// Never reads past the end: the first out-of-bounds access latches ok() to
/// false and every subsequent read returns a zero value. Callers check ok()
/// && done() once at the end instead of after every field.
class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  /// Length-prefixed string; an absurd length just latches ok() false.
  std::string str();

  bool ok() const { return ok_; }
  /// True when every byte was consumed (trailing junk is a parse failure).
  bool done() const { return ok_ && pos_ == in_.size(); }

 private:
  bool take(std::size_t n);

  std::string_view in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Frames.

struct WireFrame {
  MsgType type = MsgType::kErrorResponse;
  std::uint64_t request_id = 0;
  std::string payload;
};

/// Encodes one complete frame (header + payload + CRC trailer).
std::string encode_frame(MsgType type, std::uint64_t request_id, std::string_view payload);

/// Test seam: arbitrary version/type values, so the unknown-version and
/// unknown-type reject paths can be exercised with frames whose CRC is valid.
std::string encode_frame_raw(std::uint16_t version, std::uint16_t type,
                             std::uint64_t request_id, std::string_view payload);

/// Per-corruption-class reject counters (see the header comment for the
/// classes). Monotonic; one reject increments exactly one class.
struct WireCodecStats {
  std::uint64_t frames_decoded = 0;
  std::uint64_t bytes_consumed = 0;
  std::uint64_t bad_magic = 0;
  std::uint64_t short_frame = 0;
  std::uint64_t overlong_frame = 0;
  std::uint64_t crc_mismatch = 0;
  std::uint64_t unknown_version = 0;
  std::uint64_t unknown_type = 0;
  std::uint64_t bad_payload = 0;

  std::uint64_t rejects() const {
    return bad_magic + short_frame + overlong_frame + crc_mismatch + unknown_version +
           unknown_type + bad_payload;
  }

  WireCodecStats& operator+=(const WireCodecStats& o);
};

/// Incremental frame extractor: feed() arbitrary byte chunks (a transport
/// may deliver any split), next() yields complete valid frames, finish()
/// classifies a trailing partial frame as short_frame. Malformed input is
/// counted and skipped — decoding never throws on wire bytes and never
/// reads out of bounds.
class FrameDecoder {
 public:
  struct Config {
    /// Frames whose declared payload exceeds this are rejected (overlong)
    /// before any payload is buffered past the cap.
    std::size_t max_payload_bytes = 1 << 20;
  };

  FrameDecoder() : FrameDecoder(Config{}) {}
  explicit FrameDecoder(Config config) : config_(config) {}

  void feed(std::string_view bytes);

  /// The next complete, CRC-valid, known-version/type frame, consuming (and
  /// counting) any rejected bytes before it. std::nullopt = need more input.
  std::optional<WireFrame> next();

  /// Call at end of stream: a pending partial frame counts as short_frame.
  void finish();

  const WireCodecStats& stats() const { return stats_; }
  /// The caller parsed a CRC-valid frame's payload and it was malformed.
  void note_bad_payload() { ++stats_.bad_payload; }

 private:
  /// The buffered bytes not yet consumed.
  std::string_view pending() const {
    return std::string_view(buffer_).substr(head_);
  }
  /// Drops `n` pending bytes and accounts them as consumed.
  void drop(std::size_t n);
  /// Skips forward to the next pending magic at offset >= `from`, keeping
  /// up to 3 tail bytes that could be the start of a magic still in flight.
  /// By contract the caller already counted the reject (or is resyncing).
  void scan_to_magic(std::size_t from);

  Config config_;
  /// Bytes [head_, size) are pending; the consumed prefix is reclaimed at
  /// the next feed(), once per chunk instead of once per frame.
  std::string buffer_;
  std::size_t head_ = 0;
  WireCodecStats stats_;
  /// True between losing framing and the next CRC-valid frame: one reject
  /// is charged per lost-sync RUN, not per garbage byte or spurious magic.
  bool resyncing_ = false;
};

// ---------------------------------------------------------------------------
// Message payloads. Encoders are total; decoders return false (never throw,
// never UB) on malformed payloads — the caller counts bad_payload and fails
// the request.

std::string encode_plan_request(const PlanRequest& request);
bool decode_plan_request(std::string_view payload, PlanRequest* out);

/// The response carries outcome, epoch and — for non-shed outcomes — the
/// full fingerprint surface of the Plan: every field plan_fingerprint()
/// reads travels bit-exactly, so fingerprinting the decoded plan yields the
/// byte-identical string an in-process caller would compute. Work accounting
/// (PlanStats) and wall clock (optimize_seconds, setup_seconds) stay local
/// to the server, exactly as they are excluded from the fingerprint.
std::string encode_plan_response(const PlanResponse& response);
bool decode_plan_response(std::string_view payload, PlanResponse* out);

std::string encode_stats_request();
bool decode_stats_request(std::string_view payload);

/// Aggregate tier + wire counters served to `stats` clients — the shell-level
/// observability surface for the router-aware-client ~0-forwards gate.
struct WireTierStats {
  std::uint64_t epoch = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t solves = 0;
  std::uint64_t dedup_joins = 0;
  std::uint64_t sheds = 0;
  std::uint64_t routed = 0;
  std::uint64_t sprayed = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t duplicate_solves = 0;
  std::uint64_t replan_count = 0;
  // Wire-level accounting (the serving front end's own counters).
  std::uint64_t connections = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t wire_sheds = 0;      ///< shed at the server's in-flight budget
  std::uint64_t wire_errors = 0;     ///< error responses sent
  std::uint64_t frames_rejected = 0; ///< codec rejects across all connections

  bool operator==(const WireTierStats&) const = default;
};

std::string encode_stats_response(const WireTierStats& stats);
bool decode_stats_response(std::string_view payload, WireTierStats* out);

std::string encode_error_response(std::string_view message);
bool decode_error_response(std::string_view payload, std::string* message_out);

}  // namespace sompi::net
