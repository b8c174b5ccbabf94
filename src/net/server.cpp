#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"

namespace sompi::net {

namespace {

/// Adds the monotonic growth of `now` over `folded` to `aggregate`, then
/// marks it folded. Lets stats() read live codec counters without racing the
/// reader thread that owns the decoder.
void fold_codec_delta(WireCodecStats* aggregate, WireCodecStats* folded,
                      const WireCodecStats& now) {
  WireCodecStats delta = now;
  delta.frames_decoded -= folded->frames_decoded;
  delta.bytes_consumed -= folded->bytes_consumed;
  delta.bad_magic -= folded->bad_magic;
  delta.short_frame -= folded->short_frame;
  delta.overlong_frame -= folded->overlong_frame;
  delta.crc_mismatch -= folded->crc_mismatch;
  delta.unknown_version -= folded->unknown_version;
  delta.unknown_type -= folded->unknown_type;
  delta.bad_payload -= folded->bad_payload;
  *aggregate += delta;
  *folded = now;
}

}  // namespace

PlanServerLoop::PlanServerLoop(ShardedPlanService* tier, ServerConfig config)
    : tier_(tier), config_(config) {
  SOMPI_REQUIRE(tier_ != nullptr);
  SOMPI_REQUIRE(config_.max_in_flight >= 1);
  BatchConfig batch;
  batch.workers = config_.workers;
  // With queue_capacity >= max_in_flight the submission queue can never be
  // full while the wire budget admits (queued <= in-flight <= budget), so
  // submit_on never blocks under the loop mutex.
  batch.queue_capacity = std::max(config_.queue_capacity, config_.max_in_flight);
  batch_ = std::make_unique<AsyncBatchService>(tier_, batch);
  pump_ = std::thread([this] { pump_loop(); });
}

PlanServerLoop::~PlanServerLoop() { shutdown(); }

PipeEndpoint* PlanServerLoop::connect(std::size_t landing_shard) {
  SOMPI_REQUIRE(landing_shard < tier_->shard_count());
  std::lock_guard<std::mutex> lock(mutex_);
  SOMPI_REQUIRE_MSG(accepting_, "connect() after shutdown()");
  auto connection = std::make_unique<Connection>();
  connection->landing_shard = landing_shard;
  DuplexPipe::Config pipe_config;
  pipe_config.capacity_bytes = config_.pipe_capacity_bytes;
  pipe_config.faults = config_.faults;
  pipe_config.label =
      "conn" + std::to_string(connections_accepted_.load()) + "s" + std::to_string(landing_shard);
  connection->pipe = std::make_unique<DuplexPipe>(pipe_config);
  connection->server_end = &connection->pipe->b();
  PipeEndpoint* client_end = &connection->pipe->a();
  Connection* raw = connection.get();
  connections_.push_back(std::move(connection));
  connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  raw->reader = std::thread([this, raw] { reader_loop(raw); });
  return client_end;
}

void PlanServerLoop::reader_loop(Connection* connection) {
  FrameDecoder decoder(FrameDecoder::Config{config_.max_payload_bytes});
  std::vector<std::pair<std::uint64_t, PlanRequest>> arrivals;
  std::string hit_bytes;      // inline-answered warm hits, one write per chunk
  std::uint64_t hit_frames = 0;
  const auto flush_hits = [&] {
    if (hit_bytes.empty()) return;
    std::lock_guard<std::mutex> lock(connection->write_mutex);
    // Counter before bytes (everywhere a response goes out): a client that
    // has observed a response must find it already counted in stats(); a
    // failed write (chaos drop, closed pipe) nets the count back to zero.
    responses_sent_.fetch_add(hit_frames, std::memory_order_relaxed);
    if (!connection->server_end->write_unbounded(hit_bytes))
      responses_sent_.fetch_sub(hit_frames, std::memory_order_relaxed);
    hit_bytes.clear();
    hit_frames = 0;
  };
  for (;;) {
    const std::string chunk = connection->server_end->read(65536);
    if (chunk.empty()) break;  // closed (peer, chaos, or shutdown) and drained
    decoder.feed(chunk);
    arrivals.clear();
    while (auto frame = decoder.next()) {
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      if (frame->type == MsgType::kPlanRequest) {
        PlanRequest request;
        if (!decode_plan_request(frame->payload, &request)) {
          decoder.note_bad_payload();
          write_error(connection, frame->request_id, "malformed plan_request payload");
          continue;
        }
        // Warm-hit fast path: an epoch-current cached plan is answered
        // right here in the reader — no in-flight budget, no worker or
        // pump handoff. Everything else takes the batch path below.
        if (std::optional<PlanResponse> hit =
                tier_->try_serve_hit(connection->landing_shard, request)) {
          hit_bytes +=
              encode_frame(MsgType::kPlanResponse, frame->request_id,
                           encode_plan_response(*hit));
          ++hit_frames;
          continue;
        }
        arrivals.emplace_back(frame->request_id, std::move(request));
        continue;
      }
      // Per-connection order is preserved: a non-plan frame flushes the
      // batch gathered so far before it is answered.
      flush_hits();
      admit_plan_requests(connection, &arrivals);
      on_frame(connection, &decoder, *frame);
    }
    {
      // Codec counters before the chunk's plan responses go out, like
      // responses_sent: a client that has read one finds its request's
      // bytes already counted in codec_stats().
      std::lock_guard<std::mutex> lock(mutex_);
      fold_codec_delta(&codec_stats_, &connection->folded, decoder.stats());
    }
    flush_hits();
    admit_plan_requests(connection, &arrivals);
  }
  decoder.finish();
  std::lock_guard<std::mutex> lock(mutex_);
  fold_codec_delta(&codec_stats_, &connection->folded, decoder.stats());
}

void PlanServerLoop::admit_plan_requests(
    Connection* connection, std::vector<std::pair<std::uint64_t, PlanRequest>>* arrivals) {
  if (arrivals->empty()) return;
  std::size_t admitted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // No draining gate: after shutdown() shuts the reads, a reader only
    // drains frames that were buffered before it, and those are owed a real
    // answer (the drain-on-shutdown law).
    const std::size_t used = std::min(config_.max_in_flight, in_flight_.size());
    admitted = std::min(arrivals->size(), config_.max_in_flight - used);
    if (admitted > 0) {
      std::vector<PlanRequest> requests;
      requests.reserve(admitted);
      for (std::size_t i = 0; i < admitted; ++i)
        requests.push_back(std::move((*arrivals)[i].second));
      // One queue-lock acquisition and one worker wakeup for the burst;
      // queue_capacity >= max_in_flight keeps this non-blocking under the
      // loop mutex (see the constructor).
      const std::vector<std::uint64_t> tickets =
          batch_->submit_many_on(connection->landing_shard, requests);
      for (std::size_t i = 0; i < admitted; ++i)
        in_flight_.emplace(tickets[i], std::make_pair(connection, (*arrivals)[i].first));
    }
  }
  // Whatever exceeded the budget is shed explicitly at the wire door.
  for (std::size_t i = admitted; i < arrivals->size(); ++i) {
    wire_sheds_.fetch_add(1, std::memory_order_relaxed);
    PlanResponse shed;
    shed.outcome = PlanOutcome::kShed;
    shed.epoch = tier_->fanout().epoch();
    write_response(connection, (*arrivals)[i].first, shed);
  }
  arrivals->clear();
}

void PlanServerLoop::on_frame(Connection* connection, FrameDecoder* decoder,
                              const WireFrame& frame) {
  switch (frame.type) {
    case MsgType::kPlanRequest:
      return;  // handled by reader_loop / admit_plan_requests
    case MsgType::kStatsRequest: {
      if (!decode_stats_request(frame.payload)) {
        decoder->note_bad_payload();
        write_error(connection, frame.request_id, "malformed stats_request payload");
        return;
      }
      const std::string payload = encode_stats_response(stats());
      const std::string bytes =
          encode_frame(MsgType::kStatsResponse, frame.request_id, payload);
      std::lock_guard<std::mutex> lock(connection->write_mutex);
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
      if (!connection->server_end->write_unbounded(bytes))
        responses_sent_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    case MsgType::kPlanResponse:
    case MsgType::kStatsResponse:
    case MsgType::kErrorResponse:
      // Known frame types that only ever flow server→client.
      write_error(connection, frame.request_id, "unexpected message type at server");
      return;
  }
}

void PlanServerLoop::write_response(Connection* connection, std::uint64_t request_id,
                                    const PlanResponse& response) {
  const std::string bytes =
      encode_frame(MsgType::kPlanResponse, request_id, encode_plan_response(response));
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!connection->server_end->write_unbounded(bytes))
    responses_sent_.fetch_sub(1, std::memory_order_relaxed);
}

void PlanServerLoop::write_error(Connection* connection, std::uint64_t request_id,
                                 std::string_view message) {
  wire_errors_.fetch_add(1, std::memory_order_relaxed);
  const std::string bytes =
      encode_frame(MsgType::kErrorResponse, request_id, encode_error_response(message));
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!connection->server_end->write_unbounded(bytes))
    responses_sent_.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t PlanServerLoop::dispatch_ready(std::chrono::milliseconds wait) {
  std::vector<BatchCompletion> batch = batch_->harvest_wait(wait);
  // Straggler gather: on a loaded (or single-core) host the workers and the
  // pump would otherwise ping-pong one completion at a time. A few bounded
  // yields let the rest of the burst finish so it ships in the same sweep;
  // the bound keeps a slow solve from delaying responses already done.
  if (!batch.empty()) {
    for (int spin = 0, stale = 0; spin < 16 && stale < 2; ++spin) {
      std::this_thread::yield();
      std::vector<BatchCompletion> more = batch_->harvest(0);
      if (more.empty()) {
        ++stale;
        continue;
      }
      stale = 0;
      std::move(more.begin(), more.end(), std::back_inserter(batch));
    }
  }
  // Coalesce: one correlation-lock acquisition and one pipe write (one
  // reader wakeup) per connection per sweep, not per response — the
  // difference between the wire and the in-process batch path is thread
  // handoffs, so the pump amortizes them.
  std::vector<std::pair<Connection*, std::uint64_t>> routes(batch.size(), {nullptr, 0});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto it = in_flight_.find(batch[i].ticket);
      if (it == in_flight_.end()) continue;  // unreachable by construction
      routes[i] = it->second;
      in_flight_.erase(it);
    }
  }
  struct Outbox {
    std::string bytes;
    std::uint64_t frames = 0;
  };
  std::unordered_map<Connection*, Outbox> outboxes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchCompletion& completion = batch[i];
    Connection* connection = routes[i].first;
    const std::uint64_t request_id = routes[i].second;
    if (connection == nullptr) continue;
    Outbox& box = outboxes[connection];
    if (!completion.error.empty()) {
      wire_errors_.fetch_add(1, std::memory_order_relaxed);
      box.bytes += encode_frame(MsgType::kErrorResponse, request_id,
                                encode_error_response(completion.error));
    } else {
      box.bytes += encode_frame(MsgType::kPlanResponse, request_id,
                                encode_plan_response(completion.response));
    }
    ++box.frames;
  }
  for (auto& [connection, box] : outboxes) {
    std::lock_guard<std::mutex> lock(connection->write_mutex);
    responses_sent_.fetch_add(box.frames, std::memory_order_relaxed);
    if (!connection->server_end->write_unbounded(box.bytes))
      responses_sent_.fetch_sub(box.frames, std::memory_order_relaxed);
  }
  return batch.size();
}

void PlanServerLoop::pump_loop() {
  for (;;) {
    dispatch_ready(std::chrono::milliseconds(50));
    if (pump_stop_.load(std::memory_order_acquire)) {
      // The batch is drained by now (shutdown orders it so); one final
      // non-blocking sweep flushes anything completed since the last pass.
      dispatch_ready(std::chrono::milliseconds(0));
      return;
    }
  }
}

void PlanServerLoop::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) return;  // second call: already shut down
    accepting_ = false;
  }
  // 1. Stop intake: readers drain their buffered requests, then exit.
  std::vector<Connection*> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& connection : connections_) connections.push_back(connection.get());
  }
  for (Connection* connection : connections) connection->server_end->shutdown_read();
  for (Connection* connection : connections)
    if (connection->reader.joinable()) connection->reader.join();
  // 2. Everything admitted finishes solving.
  batch_->drain();
  // 3. The pump flushes every completion, then stops — the completeness law:
  //    each admitted request has its response written before any close.
  pump_stop_.store(true, std::memory_order_release);
  if (pump_.joinable()) pump_.join();
  // 4. Only now do connections close (clients still drain buffered frames).
  for (Connection* connection : connections) connection->server_end->close();
  batch_->stop();
}

WireCodecStats PlanServerLoop::codec_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return codec_stats_;
}

WireTierStats PlanServerLoop::stats() const {
  const ShardedStats tier = tier_->stats();
  WireTierStats s;
  s.epoch = tier.total.epoch;
  s.requests = tier.total.requests;
  s.hits = tier.total.hits;
  s.solves = tier.total.solves;
  s.dedup_joins = tier.total.dedup_joins;
  s.sheds = tier.total.sheds;
  s.routed = tier.routed;
  s.sprayed = tier.sprayed;
  s.forwarded = tier.forwarded;
  s.duplicate_solves = tier.duplicate_solves;
  s.replan_count = tier.total.replan_count;
  s.connections = connections_accepted_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.wire_sheds = wire_sheds_.load(std::memory_order_relaxed);
  s.wire_errors = wire_errors_.load(std::memory_order_relaxed);
  s.frames_rejected = codec_stats().rejects();
  return s;
}

}  // namespace sompi::net
