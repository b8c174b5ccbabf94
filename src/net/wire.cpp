#include "net/wire.h"

#include <array>
#include <bit>
#include <cstring>

namespace sompi::net {

const char* msg_type_label(MsgType type) {
  switch (type) {
    case MsgType::kPlanRequest: return "plan_request";
    case MsgType::kPlanResponse: return "plan_response";
    case MsgType::kStatsRequest: return "stats_request";
    case MsgType::kStatsResponse: return "stats_response";
    case MsgType::kErrorResponse: return "error_response";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected), slicing-by-8. Tables built once at compile time.

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// kCrc[0] is the classic bytewise table; kCrc[s][b] is the CRC of byte b
/// followed by s zero bytes, so eight lookups advance the CRC by 8 bytes.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

std::uint32_t load_u32_le(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

std::uint16_t load_u16_le(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    static_cast<unsigned char>(p[1]) << 8);
}

std::uint64_t load_u64_le(const char* p) {
  return static_cast<std::uint64_t>(load_u32_le(p)) |
         static_cast<std::uint64_t>(load_u32_le(p + 4)) << 32;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_u32_le(p) ^ c;
    const std::uint32_t hi = load_u32_le(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^ kCrc[5][(lo >> 16) & 0xFFu] ^
        kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// WireReader.

bool WireReader::take(std::size_t n) {
  if (!ok_ || in_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(static_cast<unsigned char>(in_[pos_++]));
}

std::uint16_t WireReader::u16() {
  if (!take(2)) return 0;
  const std::uint16_t v = load_u16_le(in_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (!take(4)) return 0;
  const std::uint32_t v = load_u32_le(in_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (!take(8)) return 0;
  const std::uint64_t v = load_u64_le(in_.data() + pos_);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (!take(len)) return {};
  std::string v(in_.substr(pos_, len));
  pos_ += len;
  return v;
}

// ---------------------------------------------------------------------------
// Frames.

std::string encode_frame_raw(std::uint16_t version, std::uint16_t type,
                             std::uint64_t request_id, std::string_view payload) {
  WireWriter w;
  w.reserve(kWireHeaderBytes + payload.size() + kWireTrailerBytes);
  w.u32(kWireMagic);
  w.u16(version);
  w.u16(type);
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  const std::uint32_t crc = crc32(w.bytes());
  w.u32(crc);
  return w.take();
}

std::string encode_frame(MsgType type, std::uint64_t request_id, std::string_view payload) {
  return encode_frame_raw(kWireVersion, static_cast<std::uint16_t>(type), request_id, payload);
}

WireCodecStats& WireCodecStats::operator+=(const WireCodecStats& o) {
  frames_decoded += o.frames_decoded;
  bytes_consumed += o.bytes_consumed;
  bad_magic += o.bad_magic;
  short_frame += o.short_frame;
  overlong_frame += o.overlong_frame;
  crc_mismatch += o.crc_mismatch;
  unknown_version += o.unknown_version;
  unknown_type += o.unknown_type;
  bad_payload += o.bad_payload;
  return *this;
}

void FrameDecoder::feed(std::string_view bytes) {
  if (head_ != 0) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  buffer_.append(bytes);
}

void FrameDecoder::drop(std::size_t n) {
  stats_.bytes_consumed += n;
  head_ += n;
}

void FrameDecoder::scan_to_magic(std::size_t from) {
  const std::string_view in = pending();
  std::size_t skip = from;
  while (skip + 4 <= in.size() && load_u32_le(in.data() + skip) != kWireMagic) ++skip;
  // Without a full match the scan stops ≤ 3 bytes short of the end — those
  // bytes may be the start of a magic whose remainder has not arrived yet,
  // so they stay buffered (a transport may split anywhere, even mid-magic).
  drop(skip);
}

std::optional<WireFrame> FrameDecoder::next() {
  for (;;) {
    if (pending().size() >= 4 && load_u32_le(pending().data()) != kWireMagic) {
      // Lost framing. Charge ONE reject for the whole lost-sync run —
      // resyncing_ suppresses further framing counts until a valid frame
      // proves sync is restored — then hunt for the next magic.
      if (!resyncing_) {
        ++stats_.bad_magic;
        resyncing_ = true;
      }
      scan_to_magic(1);
    }
    const std::string_view in = pending();
    if (in.size() < kWireHeaderBytes) return std::nullopt;

    const std::uint32_t payload_len = load_u32_le(in.data() + 16);
    if (payload_len > config_.max_payload_bytes) {
      // The length field is untrusted until the CRC is checked, and an
      // absurd length must never make us buffer unboundedly — reject now
      // and hunt for the next magic (past this frame's own).
      if (!resyncing_) {
        ++stats_.overlong_frame;
        resyncing_ = true;
      }
      scan_to_magic(1);
      continue;
    }
    const std::size_t total = kWireHeaderBytes + payload_len + kWireTrailerBytes;
    if (in.size() < total) return std::nullopt;

    const std::string_view frame = in.substr(0, total);
    const std::uint32_t want_crc = load_u32_le(frame.data() + total - 4);
    if (crc32(frame.substr(0, total - 4)) != want_crc) {
      // The declared length passed the cap check but is still untrusted;
      // resync by scanning from inside the frame rather than trusting it.
      if (!resyncing_) {
        ++stats_.crc_mismatch;
        resyncing_ = true;
      }
      scan_to_magic(1);
      continue;
    }

    // CRC-valid: the header fields are authentic, and framing is restored
    // even if this particular frame is from a version or type we reject.
    resyncing_ = false;
    const std::uint16_t version = load_u16_le(frame.data() + 4);
    const std::uint16_t type = load_u16_le(frame.data() + 6);
    if (version != kWireVersion) {
      ++stats_.unknown_version;
      drop(total);
      continue;
    }
    if (type < 1 || type > 5) {
      ++stats_.unknown_type;
      drop(total);
      continue;
    }

    WireFrame out;
    out.type = static_cast<MsgType>(type);
    out.request_id = load_u64_le(frame.data() + 8);
    out.payload.assign(frame.substr(kWireHeaderBytes, payload_len));
    drop(total);
    ++stats_.frames_decoded;
    return out;
  }
}

void FrameDecoder::finish() {
  if (pending().empty()) return;
  // The stream ended mid-frame: a torn write, a drop, or tail garbage. If
  // we were already resyncing the corruption was charged when sync was
  // lost; otherwise this torn frame is its own (single) reject.
  if (!resyncing_) ++stats_.short_frame;
  drop(pending().size());
}

// ---------------------------------------------------------------------------
// Message payloads.

std::string encode_plan_request(const PlanRequest& request) {
  std::size_t bytes = 4 + request.app.name.size() + 1 + 4 + 7 * 8 + 4 + 4;
  for (const std::string& name : request.allowed_types) bytes += 4 + name.size();
  for (const std::string& name : request.allowed_zones) bytes += 4 + name.size();
  WireWriter w;
  w.reserve(bytes);
  w.str(request.app.name);
  w.u8(static_cast<std::uint8_t>(request.app.category));
  w.i32(request.app.processes);
  w.f64(request.app.instr_gi);
  w.f64(request.app.comm_gb);
  w.f64(request.app.msgs_per_rank);
  w.f64(request.app.io_seq_gb);
  w.f64(request.app.io_rand_gb);
  w.f64(request.app.state_gb);
  w.f64(request.deadline_h);
  w.u32(static_cast<std::uint32_t>(request.allowed_types.size()));
  for (const std::string& name : request.allowed_types) w.str(name);
  w.u32(static_cast<std::uint32_t>(request.allowed_zones.size()));
  for (const std::string& name : request.allowed_zones) w.str(name);
  return w.take();
}

bool decode_plan_request(std::string_view payload, PlanRequest* out) {
  WireReader r(payload);
  PlanRequest req;
  req.app.name = r.str();
  const std::uint8_t category = r.u8();
  if (category > static_cast<std::uint8_t>(AppCategory::kIo)) return false;
  req.app.category = static_cast<AppCategory>(category);
  req.app.processes = r.i32();
  req.app.instr_gi = r.f64();
  req.app.comm_gb = r.f64();
  req.app.msgs_per_rank = r.f64();
  req.app.io_seq_gb = r.f64();
  req.app.io_rand_gb = r.f64();
  req.app.state_gb = r.f64();
  req.deadline_h = r.f64();
  const std::uint32_t n_types = r.u32();
  // Count fields are CRC-authentic but still bounded by the payload itself:
  // each entry needs >= 4 bytes, so an absurd count fails the reads below
  // (never an allocation) — reserve only what could possibly fit.
  if (n_types > payload.size()) return false;
  for (std::uint32_t i = 0; i < n_types && r.ok(); ++i)
    req.allowed_types.push_back(r.str());
  const std::uint32_t n_zones = r.u32();
  if (n_zones > payload.size()) return false;
  for (std::uint32_t i = 0; i < n_zones && r.ok(); ++i)
    req.allowed_zones.push_back(r.str());
  if (!r.done()) return false;
  *out = std::move(req);
  return true;
}

std::string encode_plan_response(const PlanResponse& response) {
  std::size_t bytes = 1 + 8 + 1;
  if (response.plan != nullptr) {
    bytes += 4 + response.plan->app.size() + 6 * 8 + 4 + 1 + 4 + 8 * 8 + 1 + 8;
    for (const GroupPlan& g : response.plan->groups)
      bytes += 5 * 8 + 3 * 4 + 4 + g.name.size() + 4 + g.ckpt_policy.size();
  }
  WireWriter w;
  w.reserve(bytes);
  w.u8(static_cast<std::uint8_t>(response.outcome));
  w.u64(response.epoch);
  w.u8(response.plan != nullptr ? 1 : 0);
  if (response.plan == nullptr) return w.take();
  const Plan& p = *response.plan;
  w.str(p.app);
  w.f64(p.step_hours);
  w.f64(p.deadline_h);
  w.f64(p.state_gb);
  w.u64(p.od.type_index);
  w.f64(p.od.t_h);
  w.i32(p.od.instances);
  w.f64(p.od.rate_usd_h);
  w.u8(p.od.feasible ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(p.groups.size()));
  for (const GroupPlan& g : p.groups) {
    w.u64(g.spec.type_index);
    w.u64(g.spec.zone_index);
    w.str(g.name);
    w.i32(g.instances);
    w.i32(g.t_steps);
    w.f64(g.o_steps);
    w.f64(g.r_steps);
    w.f64(g.bid_usd);
    w.i32(g.f_steps);
    w.str(g.ckpt_policy);
  }
  w.f64(p.expected.cost_usd);
  w.f64(p.expected.time_h);
  w.f64(p.expected.spot_cost_usd);
  w.f64(p.expected.od_cost_usd);
  w.f64(p.expected.spot_time_h);
  w.f64(p.expected.od_time_h);
  w.f64(p.expected.p_complete_on_spot);
  w.f64(p.expected.e_min_ratio);
  w.u8(p.spot_feasible ? 1 : 0);
  w.u64(p.model_evaluations);
  return w.take();
}

bool decode_plan_response(std::string_view payload, PlanResponse* out) {
  WireReader r(payload);
  PlanResponse resp;
  const std::uint8_t outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(PlanOutcome::kShed)) return false;
  resp.outcome = static_cast<PlanOutcome>(outcome);
  resp.epoch = r.u64();
  const std::uint8_t has_plan = r.u8();
  if (has_plan > 1) return false;
  if (has_plan == 0) {
    if (!r.done()) return false;
    *out = std::move(resp);
    return true;
  }
  Plan p;
  p.app = r.str();
  p.step_hours = r.f64();
  p.deadline_h = r.f64();
  p.state_gb = r.f64();
  p.od.type_index = r.u64();
  p.od.t_h = r.f64();
  p.od.instances = r.i32();
  p.od.rate_usd_h = r.f64();
  const std::uint8_t od_feasible = r.u8();
  if (od_feasible > 1) return false;
  p.od.feasible = od_feasible == 1;
  const std::uint32_t n_groups = r.u32();
  if (n_groups > payload.size()) return false;
  for (std::uint32_t i = 0; i < n_groups && r.ok(); ++i) {
    GroupPlan g;
    g.spec.type_index = r.u64();
    g.spec.zone_index = r.u64();
    g.name = r.str();
    g.instances = r.i32();
    g.t_steps = r.i32();
    g.o_steps = r.f64();
    g.r_steps = r.f64();
    g.bid_usd = r.f64();
    g.f_steps = r.i32();
    g.ckpt_policy = r.str();
    p.groups.push_back(std::move(g));
  }
  p.expected.cost_usd = r.f64();
  p.expected.time_h = r.f64();
  p.expected.spot_cost_usd = r.f64();
  p.expected.od_cost_usd = r.f64();
  p.expected.spot_time_h = r.f64();
  p.expected.od_time_h = r.f64();
  p.expected.p_complete_on_spot = r.f64();
  p.expected.e_min_ratio = r.f64();
  const std::uint8_t spot_feasible = r.u8();
  if (spot_feasible > 1) return false;
  p.spot_feasible = spot_feasible == 1;
  p.model_evaluations = static_cast<std::size_t>(r.u64());
  if (!r.done()) return false;
  resp.plan = std::make_shared<const Plan>(std::move(p));
  *out = std::move(resp);
  return true;
}

std::string encode_stats_request() { return {}; }

bool decode_stats_request(std::string_view payload) { return payload.empty(); }

std::string encode_stats_response(const WireTierStats& stats) {
  WireWriter w;
  w.reserve(17 * 8);
  w.u64(stats.epoch);
  w.u64(stats.requests);
  w.u64(stats.hits);
  w.u64(stats.solves);
  w.u64(stats.dedup_joins);
  w.u64(stats.sheds);
  w.u64(stats.routed);
  w.u64(stats.sprayed);
  w.u64(stats.forwarded);
  w.u64(stats.duplicate_solves);
  w.u64(stats.replan_count);
  w.u64(stats.connections);
  w.u64(stats.frames_received);
  w.u64(stats.responses_sent);
  w.u64(stats.wire_sheds);
  w.u64(stats.wire_errors);
  w.u64(stats.frames_rejected);
  return w.take();
}

bool decode_stats_response(std::string_view payload, WireTierStats* out) {
  WireReader r(payload);
  WireTierStats s;
  s.epoch = r.u64();
  s.requests = r.u64();
  s.hits = r.u64();
  s.solves = r.u64();
  s.dedup_joins = r.u64();
  s.sheds = r.u64();
  s.routed = r.u64();
  s.sprayed = r.u64();
  s.forwarded = r.u64();
  s.duplicate_solves = r.u64();
  s.replan_count = r.u64();
  s.connections = r.u64();
  s.frames_received = r.u64();
  s.responses_sent = r.u64();
  s.wire_sheds = r.u64();
  s.wire_errors = r.u64();
  s.frames_rejected = r.u64();
  if (!r.done()) return false;
  *out = s;
  return true;
}

std::string encode_error_response(std::string_view message) {
  WireWriter w;
  w.reserve(4 + message.size());
  w.str(message);
  return w.take();
}

bool decode_error_response(std::string_view payload, std::string* message_out) {
  WireReader r(payload);
  std::string message = r.str();
  if (!r.done()) return false;
  *message_out = std::move(message);
  return true;
}

}  // namespace sompi::net
