// Differential battery for the wire protocol and RPC serving front end
// (src/net, DESIGN.md §15).
//
// Codec: every message type round-trips byte-identically (a decoded request
// re-canonicalizes to the IDENTICAL cache key; a decoded plan reproduces
// plan_fingerprint() byte for byte), and each corruption class rejects with
// exactly one counter bump of exactly its class — never a crash, never a
// dead connection. Serving: responses correlate by request id (not arrival
// order), overload sheds explicitly at the wire door, malformed requests
// fail the request not the connection, shutdown answers everything accepted
// (the drain-on-shutdown completeness law), and a router-aware client keeps
// the tier's forwarding counter at exactly zero while a spray client pays
// the tax. The multi-client chaos stress lives in test_wire_stress.cpp.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "faultinject/injector.h"
#include "net/client.h"
#include "net/pipe.h"
#include "net/server.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "service/sharded/sharded_service.h"

namespace sompi::net {
namespace {

PlanRequest sample_request(double deadline_h) {
  PlanRequest r;
  r.app = paper_profile("BT");
  r.deadline_h = deadline_h;
  return r;
}

// ---------------------------------------------------------------------------
// Primitives.

TEST(WireCodec, Crc32MatchesTheStandardCheckValue) {
  // The universal CRC-32/IEEE check vector.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(WireCodec, PrimitivesRoundTripAndAreLittleEndian) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.f64(0.1);  // inexact in decimal — must travel by bit pattern
  w.str("hello");

  // Spot-check the canonical layout: u16 low byte first.
  EXPECT_EQ(static_cast<unsigned char>(w.bytes()[1]), 0xEFu);
  EXPECT_EQ(static_cast<unsigned char>(w.bytes()[2]), 0xBEu);

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xABu);
  EXPECT_EQ(r.u16(), 0xBEEFu);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  const double f = r.f64();
  std::uint64_t got_bits = 0, want_bits = 0;
  const double want = 0.1;
  std::memcpy(&got_bits, &f, sizeof f);
  std::memcpy(&want_bits, &want, sizeof want);
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(WireCodec, NegativeZeroSurvivesByBitPattern) {
  WireWriter w;
  w.f64(-0.0);
  WireReader r(w.bytes());
  const double v = r.f64();
  EXPECT_TRUE(std::signbit(v));
  EXPECT_TRUE(r.done());
}

TEST(WireCodec, ReaderLatchesFalseInsteadOfReadingOutOfBounds) {
  WireReader r(std::string_view("\x01\x02", 2));
  EXPECT_EQ(r.u32(), 0u);  // needs 4 bytes, has 2
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // every later read is a zero, never UB
  EXPECT_FALSE(r.done());

  // A length prefix larger than the remaining bytes latches too.
  WireReader s(std::string_view("\x10\x00\x00\x00ab", 6));
  EXPECT_EQ(s.str(), "");
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// Message round trips.

TEST(WireCodec, PlanRequestRoundTripsToTheIdenticalCacheKey) {
  PlanRequest request = sample_request(17.25);
  request.allowed_types = {"m1.xlarge", "c1.medium", "m1.xlarge"};
  request.allowed_zones = {"us-east-1b", "us-east-1a"};

  PlanRequest decoded;
  ASSERT_TRUE(decode_plan_request(encode_plan_request(request), &decoded));
  EXPECT_EQ(decoded.app.name, request.app.name);
  EXPECT_EQ(decoded.allowed_types, request.allowed_types);
  EXPECT_EQ(decoded.allowed_zones, request.allowed_zones);
  // The contract the plan cache depends on: canonicalizing the decoded
  // request yields the byte-identical key (doubles travelled bit-exact).
  EXPECT_EQ(canonical_key(canonicalized(decoded)), canonical_key(canonicalized(request)));
}

TEST(WireCodec, StatsResponseRoundTripsEveryCounter) {
  WireTierStats stats;
  stats.epoch = 1;
  stats.requests = 2;
  stats.hits = 3;
  stats.solves = 4;
  stats.dedup_joins = 5;
  stats.sheds = 6;
  stats.routed = 7;
  stats.sprayed = 8;
  stats.forwarded = 9;
  stats.duplicate_solves = 10;
  stats.replan_count = 11;
  stats.connections = 12;
  stats.frames_received = 13;
  stats.responses_sent = 14;
  stats.wire_sheds = 15;
  stats.wire_errors = 16;
  stats.frames_rejected = 17;

  WireTierStats decoded;
  ASSERT_TRUE(decode_stats_response(encode_stats_response(stats), &decoded));
  EXPECT_EQ(decoded, stats);
}

TEST(WireCodec, ErrorAndStatsRequestRoundTrip) {
  std::string message;
  ASSERT_TRUE(decode_error_response(encode_error_response("queue on fire"), &message));
  EXPECT_EQ(message, "queue on fire");
  EXPECT_TRUE(decode_stats_request(encode_stats_request()));
  EXPECT_FALSE(decode_stats_request("unexpected"));
}

TEST(WireCodec, ShedResponseRoundTripsWithoutAPlan) {
  PlanResponse shed;
  shed.outcome = PlanOutcome::kShed;
  shed.epoch = 42;
  PlanResponse decoded;
  ASSERT_TRUE(decode_plan_response(encode_plan_response(shed), &decoded));
  EXPECT_EQ(decoded.outcome, PlanOutcome::kShed);
  EXPECT_EQ(decoded.epoch, 42u);
  EXPECT_EQ(decoded.plan, nullptr);
}

// ---------------------------------------------------------------------------
// Framing through arbitrary chunk splits.

TEST(WireCodec, DecoderYieldsFramesThroughArbitraryChunkSplits) {
  std::string stream;
  stream += encode_frame(MsgType::kPlanRequest, 7, "alpha");
  stream += encode_frame(MsgType::kStatsRequest, 8, "");
  stream += encode_frame(MsgType::kErrorResponse, 9, std::string(300, 'z'));

  FrameDecoder decoder;
  std::vector<WireFrame> frames;
  std::size_t chunk = 1;
  for (std::size_t at = 0; at < stream.size(); at += chunk, chunk = chunk % 7 + 1) {
    decoder.feed(stream.substr(at, chunk));
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  decoder.finish();

  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, MsgType::kPlanRequest);
  EXPECT_EQ(frames[0].request_id, 7u);
  EXPECT_EQ(frames[0].payload, "alpha");
  EXPECT_EQ(frames[1].type, MsgType::kStatsRequest);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].request_id, 9u);
  EXPECT_EQ(frames[2].payload, std::string(300, 'z'));
  EXPECT_EQ(decoder.stats().rejects(), 0u);
  EXPECT_EQ(decoder.stats().frames_decoded, 3u);
  EXPECT_EQ(decoder.stats().bytes_consumed, stream.size());
}

// ---------------------------------------------------------------------------
// Corruption classes: one test per class, each asserting EXACTLY one reject
// of exactly its class — the "one reject increments exactly one counter"
// contract of WireCodecStats.

TEST(WireCorruption, FlippedPayloadBitIsOneCrcMismatch) {
  std::string frame = encode_frame(MsgType::kPlanRequest, 5, std::string(40, 'x'));
  frame[kWireHeaderBytes + 11] ^= 0x04;

  FrameDecoder decoder;
  decoder.feed(frame);
  EXPECT_FALSE(decoder.next().has_value());
  decoder.finish();
  EXPECT_EQ(decoder.stats().crc_mismatch, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
  EXPECT_EQ(decoder.stats().frames_decoded, 0u);
}

TEST(WireCorruption, FlippedMagicIsOneBadMagic) {
  std::string frame = encode_frame(MsgType::kErrorResponse, 6, "boom");
  frame[0] ^= 0xFF;

  FrameDecoder decoder;
  decoder.feed(frame);
  EXPECT_FALSE(decoder.next().has_value());
  decoder.finish();
  EXPECT_EQ(decoder.stats().bad_magic, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
  EXPECT_EQ(decoder.stats().frames_decoded, 0u);
}

TEST(WireCorruption, TruncatedStreamIsOneShortFrame) {
  const std::string frame = encode_frame(MsgType::kPlanResponse, 7, "partial");
  FrameDecoder decoder;
  decoder.feed(frame.substr(0, frame.size() - 3));
  EXPECT_FALSE(decoder.next().has_value());
  decoder.finish();
  EXPECT_EQ(decoder.stats().short_frame, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
}

TEST(WireCorruption, SplicedGarbageResyncsToTheIntactFrame) {
  const std::string frame = encode_frame(MsgType::kPlanRequest, 77, "survivor");
  // The nastiest prefix: the first bytes OF THE MAGIC itself ("WI"), so the
  // stream opens with a false magic prefix and the real magic lands
  // mid-buffer — and feed byte-by-byte, so the decoder must resync through
  // a magic that is split across feed() boundaries.
  const std::string spliced = frame.substr(0, 2) + frame;

  FrameDecoder decoder;
  std::vector<WireFrame> frames;
  for (const char byte : spliced) {
    decoder.feed(std::string_view(&byte, 1));
    while (auto f = decoder.next()) frames.push_back(std::move(*f));
  }
  decoder.finish();

  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].request_id, 77u);
  EXPECT_EQ(frames[0].payload, "survivor");
  // One lost-sync run = one bad_magic, however many bytes and feeds it took.
  EXPECT_EQ(decoder.stats().bad_magic, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
}

TEST(WireCorruption, OverlongDeclarationRejectsBeforeBuffering) {
  FrameDecoder decoder(FrameDecoder::Config{.max_payload_bytes = 64});
  decoder.feed(encode_frame(MsgType::kPlanRequest, 8, std::string(65, 'p')));
  EXPECT_FALSE(decoder.next().has_value());
  decoder.finish();
  EXPECT_EQ(decoder.stats().overlong_frame, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
}

TEST(WireCorruption, UnknownVersionRejectsTheFrameNotTheStream) {
  FrameDecoder decoder;
  decoder.feed(encode_frame_raw(/*version=*/7, /*type=*/1, 9, "future"));
  decoder.feed(encode_frame(MsgType::kStatsRequest, 10, ""));
  const auto survivor = decoder.next();
  decoder.finish();
  // The versioned reject consumed exactly its own frame; the next one lives.
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->request_id, 10u);
  EXPECT_EQ(decoder.stats().unknown_version, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
}

TEST(WireCorruption, UnknownTypeRejectsOnlyWithAValidCrc) {
  FrameDecoder decoder;
  decoder.feed(encode_frame_raw(kWireVersion, /*type=*/99, 11, ""));
  EXPECT_FALSE(decoder.next().has_value());
  decoder.finish();
  // unknown_type requires a CRC-valid frame — a corrupt frame with a weird
  // type byte is a crc_mismatch, not an unknown_type (tested above).
  EXPECT_EQ(decoder.stats().unknown_type, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
}

TEST(WireCorruption, MalformedPayloadIsTheCallersSingleReject) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(MsgType::kPlanRequest, 12, "\x01"));
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());  // framing-valid: the codec hands it over
  PlanRequest request;
  EXPECT_FALSE(decode_plan_request(frame->payload, &request));
  decoder.note_bad_payload();
  decoder.finish();
  EXPECT_EQ(decoder.stats().bad_payload, 1u);
  EXPECT_EQ(decoder.stats().rejects(), 1u);
}

TEST(WireCorruption, TrailingJunkAfterAPayloadFailsItsParse) {
  const std::string good = encode_plan_request(sample_request(12.0));
  PlanRequest request;
  ASSERT_TRUE(decode_plan_request(good, &request));
  EXPECT_FALSE(decode_plan_request(good + "x", &request));
}

TEST(WireCorruption, GarbageStormNeverCrashesAndDecodesNothing) {
  // 4 KiB of deterministic pseudo-random bytes: no frame, no crash, every
  // byte consumed and accounted.
  std::string garbage(4096, '\0');
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (char& byte : garbage) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<char>(x & 0xFF);
  }
  FrameDecoder decoder;
  for (std::size_t at = 0; at < garbage.size(); at += 37) {
    decoder.feed(garbage.substr(at, 37));
    while (decoder.next().has_value()) {
    }
  }
  decoder.finish();
  EXPECT_EQ(decoder.stats().frames_decoded, 0u);
  EXPECT_GE(decoder.stats().rejects(), 1u);
  EXPECT_EQ(decoder.stats().bytes_consumed, garbage.size());
}

// ---------------------------------------------------------------------------
// DuplexPipe: stream semantics, half-close, chaos-free determinism.

TEST(WirePipe, StreamsBytesInOrderAcrossArbitraryReads) {
  DuplexPipe pipe({});
  ASSERT_TRUE(pipe.a().write("hello "));
  ASSERT_TRUE(pipe.a().write("world"));
  std::string got;
  while (got.size() < 11) {
    const std::string chunk = pipe.b().read(3);  // caps force re-chunking
    ASSERT_FALSE(chunk.empty());
    got += chunk;
  }
  EXPECT_EQ(got, "hello world");

  // Full duplex: the other direction is independent.
  ASSERT_TRUE(pipe.b().write("pong"));
  EXPECT_EQ(pipe.a().read(64), "pong");
}

TEST(WirePipe, CloseFailsWritesAndDrainsReadsToEof) {
  DuplexPipe pipe({});
  ASSERT_TRUE(pipe.a().write("last words"));
  pipe.a().close();
  EXPECT_FALSE(pipe.a().write("too late"));
  // The peer drains what was buffered, then sees EOF ("").
  std::string got;
  for (;;) {
    const std::string chunk = pipe.b().read(4);
    if (chunk.empty()) break;
    got += chunk;
  }
  EXPECT_EQ(got, "last words");
  EXPECT_FALSE(pipe.b().write("into the void"));
}

TEST(WirePipe, ShutdownReadIsAHalfClose) {
  DuplexPipe pipe({});
  ASSERT_TRUE(pipe.b().write("buffered before shutdown"));
  pipe.a().shutdown_read();
  // a still drains what b wrote first, then EOF; b's new writes fail.
  std::string got;
  for (;;) {
    const std::string chunk = pipe.a().read(64);
    if (chunk.empty()) break;
    got += chunk;
  }
  EXPECT_EQ(got, "buffered before shutdown");
  EXPECT_FALSE(pipe.b().write("after"));
  // The OTHER direction stays open: a can still write, b still reads.
  ASSERT_TRUE(pipe.a().write("reply"));
  EXPECT_EQ(pipe.b().read(64), "reply");
}

/// Chunk sizes one seeded short-read stream yields when every read is
/// preceded by `empty_polls` try_read() calls on the drained channel.
std::vector<std::size_t> short_read_chunks(int empty_polls,
                                           std::unordered_map<std::string, std::uint64_t>* ops) {
  fi::FaultPlan plan;
  plan.seed = 0x5407EADull;
  plan.p_wire_short_read = 0.5;
  fi::FaultInjector injector(plan);
  DuplexPipe pipe({.faults = &injector, .label = "polls"});
  std::vector<std::size_t> sizes;
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < empty_polls; ++i) EXPECT_FALSE(pipe.b().try_read(64).has_value());
    EXPECT_TRUE(pipe.a().write(std::string(40, 'x')));
    for (std::size_t got = 0; got < 40;) {
      const std::string chunk = pipe.b().read(64);
      if (chunk.empty()) return sizes;  // unreachable: the pipe stays open
      sizes.push_back(chunk.size());
      got += chunk.size();
    }
  }
  *ops = injector.op_counts();
  return sizes;
}

TEST(WirePipe, EmptyPollsLeaveTheShortReadStreamUnchanged) {
  std::unordered_map<std::string, std::uint64_t> quiet_ops;
  std::unordered_map<std::string, std::uint64_t> polled_ops;
  const std::vector<std::size_t> quiet = short_read_chunks(0, &quiet_ops);
  const std::vector<std::size_t> polled = short_read_chunks(100, &polled_ops);
  EXPECT_EQ(quiet, polled);
  EXPECT_EQ(quiet_ops, polled_ops);
  // The chaos was live: some reads were capped to a few bytes.
  EXPECT_TRUE(std::any_of(quiet.begin(), quiet.end(), [](std::size_t n) { return n <= 4; }));
  EXPECT_GT(quiet.size(), 32u);
}

TEST(WirePipe, TryReadPollsWithoutBlockingAndSeesEof) {
  DuplexPipe pipe({});
  EXPECT_FALSE(pipe.b().try_read().has_value());  // empty and open
  ASSERT_TRUE(pipe.a().write("abc"));
  EXPECT_EQ(pipe.b().try_read(2), std::optional<std::string>("ab"));
  pipe.a().close();
  EXPECT_EQ(pipe.b().try_read(), std::optional<std::string>("c"));  // drains first
  EXPECT_EQ(pipe.b().try_read(), std::optional<std::string>(""));   // then EOF
}

// ---------------------------------------------------------------------------
// Serving end to end.

class WireServing : public ::testing::Test {
 protected:
  static ServiceConfig fast_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 64};
    c.max_concurrent_solves = 2;
    c.max_queued_solves = 64;
    c.opt.max_candidates = 3;
    c.opt.max_groups = 2;
    c.opt.setup.log_levels = 3;
    c.opt.setup.failure.samples = 400;
    c.opt.ratio_bins = 32;
    return c;
  }

  ShardedConfig tier_config(std::size_t shards) const {
    ShardedConfig c;
    c.shards = shards;
    c.vnodes = 32;
    c.salt = 0xD15EA5EULL;
    c.service = fast_config();
    return c;
  }

  PlanRequest request(double factor) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * factor;
    return r;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(WireServing, PlansServedOverTheWireMatchTheInProcessOracle) {
  const std::vector<double> factors = {1.3, 1.5, 1.3, 1.7, 1.5, 1.9};
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedPlanService oracle(&catalog_, &est_, market_, tier_config(1));
    ShardedPlanService tier(&catalog_, &est_, market_, tier_config(shards));
    PlanServerLoop server(&tier, {});
    PlanClient client(&server, ClientMode::kRouted);

    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (i == 3) {
        // Mid-stream epoch bump, identically into both fan-outs.
        const std::vector<PriceUpdate> updates = {PriceUpdate{{0, 0}, {0.021, 0.027}}};
        oracle.fanout().ingest(updates);
        tier.fanout().ingest(updates);
      }
      const PlanResponse got = client.plan(request(factors[i]));
      const PlanResponse want = oracle.serve(request(factors[i]));
      EXPECT_EQ(got.outcome, want.outcome) << "step " << i;
      EXPECT_EQ(got.epoch, want.epoch) << "step " << i;
      ASSERT_NE(got.plan, nullptr) << "step " << i;
      ASSERT_NE(want.plan, nullptr) << "step " << i;
      // The headline invariant: the wire is invisible, byte for byte.
      EXPECT_EQ(plan_fingerprint(*got.plan), plan_fingerprint(*want.plan)) << "step " << i;
    }
    EXPECT_EQ(client.codec_stats().rejects(), 0u);
  }
}

TEST_F(WireServing, ResponsesCorrelateByRequestIdNotArrivalOrder) {
  const PlanRequest slow_request = request(1.3);
  const PlanRequest fast_request = request(1.7);
  const std::string slow_key = canonical_key(canonicalized(slow_request));

  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool release = false;
  ShardedConfig config = tier_config(2);
  config.service.solve_hook = [&](const std::string& key, std::uint64_t) {
    if (key != slow_key) return;
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return release; });
  };

  ShardedPlanService tier(&catalog_, &est_, market_, config);
  PlanServerLoop server(&tier, {.workers = 2});
  PlanClient client(&server, ClientMode::kRouted);

  const std::uint64_t slow_id = client.submit(slow_request);
  const std::uint64_t fast_id = client.submit(fast_request);

  // The LATER submission completes first — its solve isn't latched.
  std::vector<ClientCompletion> first;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (first.empty() && std::chrono::steady_clock::now() < deadline) {
    first = client.harvest();
    if (first.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  client.drain();
  std::vector<ClientCompletion> rest = client.harvest();

  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(rest.size(), 1u);
  // Out-of-order arrival, correct correlation: each id carries ITS plan.
  EXPECT_EQ(first[0].request_id, fast_id);
  EXPECT_EQ(rest[0].request_id, slow_id);
  ASSERT_NE(first[0].response.plan, nullptr);
  ASSERT_NE(rest[0].response.plan, nullptr);
  const PlanResponse want_slow = tier.serve(slow_request);
  const PlanResponse want_fast = tier.serve(fast_request);
  EXPECT_EQ(plan_fingerprint(*first[0].response.plan), plan_fingerprint(*want_fast.plan));
  EXPECT_EQ(plan_fingerprint(*rest[0].response.plan), plan_fingerprint(*want_slow.plan));
}

TEST_F(WireServing, OverloadShedsExplicitlyAtTheWireDoor) {
  const PlanRequest slow_request = request(1.4);
  const std::string slow_key = canonical_key(canonicalized(slow_request));

  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool release = false;
  std::atomic<bool> solving{false};
  ShardedConfig config = tier_config(1);
  config.service.solve_hook = [&](const std::string& key, std::uint64_t) {
    if (key != slow_key) return;
    solving.store(true);
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return release; });
  };

  ShardedPlanService tier(&catalog_, &est_, market_, config);
  PlanServerLoop server(&tier, {.workers = 1, .max_in_flight = 1});
  PlanClient client(&server, ClientMode::kRouted);

  const std::uint64_t slow_id = client.submit(slow_request);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!solving.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(solving.load());

  // The budget (1) is fully occupied by the latched solve: the next request
  // is shed AT THE WIRE, immediately, with an explicit kShed response.
  const std::uint64_t shed_id = client.submit(request(1.8));
  std::vector<ClientCompletion> shed;
  while (shed.empty() && std::chrono::steady_clock::now() < deadline) {
    shed = client.harvest();
    if (shed.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  client.drain();
  const std::vector<ClientCompletion> rest = client.harvest();

  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].request_id, shed_id);
  EXPECT_TRUE(shed[0].error.empty());  // a shed is data, not an error
  EXPECT_EQ(shed[0].response.outcome, PlanOutcome::kShed);
  EXPECT_EQ(shed[0].response.plan, nullptr);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].request_id, slow_id);
  ASSERT_NE(rest[0].response.plan, nullptr);
  EXPECT_EQ(server.stats().wire_sheds, 1u);
}

TEST_F(WireServing, InvalidRequestFailsTheRequestNotTheConnection) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(2));
  PlanServerLoop server(&tier, {});
  PlanClient client(&server, ClientMode::kRouted);

  PlanRequest bad = request(1.5);
  bad.allowed_types = {"no-such-type"};  // validation throws inside serve()
  EXPECT_THROW((void)client.plan(bad), std::runtime_error);
  EXPECT_GE(server.stats().wire_errors, 1u);

  // The connection survived: the next request on this client succeeds.
  const PlanResponse good = client.plan(request(1.5));
  ASSERT_NE(good.plan, nullptr);
}

TEST_F(WireServing, BlockedPlanCallFailsWhenItsConnectionDrops) {
  // One shard, one connection ("conn0s0"). Pick the first seed whose drop
  // stream spares the client's request write (op 0 of side "/a") and fires
  // on the server's response write (op 0 of side "/b"): the caller is
  // already blocked reading when its connection goes down.
  fi::FaultPlan plan;
  plan.p_wire_drop = 0.5;
  for (plan.seed = 1;; ++plan.seed) {
    fi::FaultInjector probe(plan);
    const bool client_drops = probe.fires(fi::Channel::kWireDrop, "conn0s0/a");
    if (!client_drops && probe.fires(fi::Channel::kWireDrop, "conn0s0/b")) break;
  }
  fi::FaultInjector injector(plan);

  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool release = false;
  std::atomic<bool> solving{false};
  ShardedConfig config = tier_config(1);
  config.service.solve_hook = [&](const std::string&, std::uint64_t) {
    solving.store(true);
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return release; });
  };
  ShardedPlanService tier(&catalog_, &est_, market_, config);
  PlanServerLoop server(&tier, {.workers = 1, .faults = &injector});
  PlanClient client(&server, ClientMode::kRouted);

  std::string error;
  std::thread caller([&] {
    try {
      (void)client.plan(request(1.5));
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!solving.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(solving.load());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let the caller block
  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    release = true;
  }
  latch_cv.notify_all();
  caller.join();
  EXPECT_EQ(error, "connection dropped");
  EXPECT_EQ(injector.injected_count(), 1u);
}

TEST_F(WireServing, ShutdownAnswersEverythingAcceptedBeforeClosing) {
  ShardedPlanService oracle(&catalog_, &est_, market_, tier_config(1));
  const std::vector<double> factors = {1.3, 1.4, 1.5, 1.6, 1.7, 1.8};
  // 512-byte pipes hold about one response: the client reads nothing until
  // shutdown() has returned, so the pump's flushes land in full pipes and
  // must not wait on them.
  for (const std::size_t pipe_bytes : {std::size_t{1} << 16, std::size_t{512}}) {
    SCOPED_TRACE("pipe_capacity_bytes=" + std::to_string(pipe_bytes));
    ShardedPlanService tier(&catalog_, &est_, market_, tier_config(2));
    auto server = std::make_unique<PlanServerLoop>(
        &tier, ServerConfig{.pipe_capacity_bytes = pipe_bytes});
    PlanClient client(server.get(), ClientMode::kRouted);

    std::map<std::uint64_t, std::string> want;
    for (const double factor : factors) {
      const std::uint64_t id = client.submit(request(factor));
      want[id] = plan_fingerprint(*oracle.serve(request(factor)).plan);
    }
    // Every frame above is already buffered in its pipe (submit's write is
    // synchronous), so the drain law says all six get real answers.
    server->shutdown();
    client.drain();
    const std::vector<ClientCompletion> done = client.harvest();

    ASSERT_EQ(done.size(), factors.size());
    std::set<std::uint64_t> seen;
    for (const ClientCompletion& completion : done) {
      EXPECT_TRUE(seen.insert(completion.request_id).second) << "completed twice";
      ASSERT_EQ(want.count(completion.request_id), 1u);
      EXPECT_TRUE(completion.error.empty()) << completion.error;
      ASSERT_NE(completion.response.plan, nullptr);
      EXPECT_EQ(plan_fingerprint(*completion.response.plan), want[completion.request_id]);
    }
  }
}

TEST_F(WireServing, RoutedClientNeverForwards) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(8));
  PlanServerLoop server(&tier, {});
  PlanClient client(&server, ClientMode::kRouted);

  const std::vector<double> factors = {1.30, 1.35, 1.40, 1.45, 1.50,
                                       1.55, 1.60, 1.65, 1.70, 1.75};
  for (const double factor : factors) ASSERT_NE(client.plan(request(factor)).plan, nullptr);

  // Every request landed on its ring home: zero forwards, zero rejects.
  const WireTierStats stats = server.stats();
  EXPECT_EQ(stats.requests, factors.size());
  EXPECT_EQ(stats.sprayed, factors.size());  // wire requests enter via serve_on
  EXPECT_EQ(stats.forwarded, 0u);
  EXPECT_EQ(stats.duplicate_solves, 0u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
  EXPECT_EQ(client.codec_stats().rejects(), 0u);
}

TEST_F(WireServing, SprayClientPaysExactlyTheMisrouteTax) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(8));
  PlanServerLoop server(&tier, {});
  PlanClient client(&server, ClientMode::kSpray);

  const std::vector<double> factors = {1.30, 1.35, 1.40, 1.45, 1.50,
                                       1.55, 1.60, 1.65, 1.70, 1.75};
  std::uint64_t expected_forwards = 0;
  for (std::size_t i = 0; i < factors.size(); ++i) {
    // Spray sends request i down connection i % shards; the tier forwards
    // it iff that is not the key's ring home.
    if (tier.home_shard(request(factors[i])) != i % tier.shard_count()) ++expected_forwards;
    ASSERT_NE(client.plan(request(factors[i])).plan, nullptr);
  }
  ASSERT_GT(expected_forwards, 0u);  // distinct keys over 8 shards: some miss

  const WireTierStats stats = server.stats();
  EXPECT_EQ(stats.requests, factors.size());
  EXPECT_EQ(stats.forwarded, expected_forwards);
  // The forward is a detour, not a re-solve: the one-solve economy holds.
  EXPECT_EQ(stats.duplicate_solves, 0u);
}

TEST_F(WireServing, StatsRoundTripMatchesTheServersLocalView) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {});
  PlanClient client(&server, ClientMode::kRouted);
  for (const double factor : {1.3, 1.5, 1.3}) (void)client.plan(request(factor));

  const WireTierStats got = client.server_stats();
  const WireTierStats want = server.stats();
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.solves, want.solves);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.forwarded, want.forwarded);
  EXPECT_EQ(got.connections, want.connections);
  EXPECT_EQ(got.frames_received, want.frames_received);
  EXPECT_EQ(got.frames_rejected, 0u);
  // The server counts a response before its bytes can reach the peer, so
  // the three plan responses this client already observed must all be in
  // the snapshot — and the stats response itself is not (the snapshot is
  // encoded before it is written). Exactly 3, deterministically.
  EXPECT_EQ(got.responses_sent, 3u);
  EXPECT_GE(want.responses_sent, got.responses_sent);
}

}  // namespace
}  // namespace sompi::net
