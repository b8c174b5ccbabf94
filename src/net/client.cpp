#include "net/client.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.h"
#include "service/request.h"

namespace sompi::net {

namespace {

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

ClientCompletion failed(std::uint64_t request_id, std::string error) {
  ClientCompletion completion;
  completion.request_id = request_id;
  completion.error = std::move(error);
  return completion;
}

/// Largest chunk one pipe read takes.
constexpr std::size_t kReadChunk = 65536;

}  // namespace

PlanClient::PlanClient(PlanServerLoop* server, ClientMode mode)
    : router_(RouterConfig{server->tier()->config().shards, server->tier()->config().vnodes,
                           server->tier()->config().salt}),
      mode_(mode) {
  // One connection per shard; connection i is shard i's "listener".
  const std::size_t shards = server->tier()->shard_count();
  connections_.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    auto connection = std::make_unique<Connection>();
    connection->endpoint = server->connect(shard);
    connections_.push_back(std::move(connection));
  }
}

PlanClient::~PlanClient() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
  }
  for (const auto& connection : connections_) connection->endpoint->close();
}

std::size_t PlanClient::pick_shard(const PlanRequest& request) const {
  if (mode_ == ClientMode::kSpray)
    return static_cast<std::size_t>(spray_cursor_.load(std::memory_order_relaxed)) %
           connections_.size();
  return route_for(encode_plan_request(request), request);
}

std::size_t PlanClient::shard_for(const std::string& payload, const PlanRequest& request) {
  if (mode_ == ClientMode::kSpray)
    return static_cast<std::size_t>(spray_cursor_.fetch_add(1, std::memory_order_relaxed)) %
           connections_.size();
  return route_for(payload, request);
}

std::size_t PlanClient::route_for(const std::string& payload,
                                  const PlanRequest& request) const {
  {
    std::lock_guard<std::mutex> lock(route_mutex_);
    if (const auto it = route_memo_.find(payload); it != route_memo_.end())
      return it->second;
  }
  std::size_t shard;
  // A request the server will reject (invalid deadline etc.) cannot be
  // canonicalized locally; it still needs SOME connection to be rejected on.
  try {
    shard = router_.route(canonical_key(canonicalized(request)));
  } catch (...) {
    shard = 0;
  }
  std::lock_guard<std::mutex> lock(route_mutex_);
  if (route_memo_.size() >= kRouteMemoCapacity) route_memo_.clear();
  route_memo_.emplace(payload, shard);
  return shard;
}

std::uint64_t PlanClient::send(std::size_t shard, MsgType type, std::string_view payload,
                               bool awaited) {
  Connection& connection = *connections_[shard];
  const std::uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  {
    // Claimed before the frame exists on the wire: a concurrent harvest()
    // can never take a blocking call's completion.
    std::lock_guard<std::mutex> lock(mutex_);
    SOMPI_REQUIRE_MSG(!closing_, "send() on a closing client");
    connection.outstanding.insert(id);
    if (awaited) awaited_.insert(id);
  }
  const std::string bytes = encode_frame(type, id, payload);
  bool wrote;
  {
    std::lock_guard<std::mutex> lock(connection.write_mutex);
    wrote = connection.endpoint->write(bytes);
  }
  if (!wrote) fail_unsent(connection, {id});
  return id;
}

std::uint64_t PlanClient::submit(const PlanRequest& request) {
  const std::string payload = encode_plan_request(request);
  return send(shard_for(payload, request), MsgType::kPlanRequest, payload, /*awaited=*/false);
}

std::vector<std::uint64_t> PlanClient::submit_batch(const std::vector<PlanRequest>& requests) {
  // Coalesce per connection: encode every frame first, register all ids,
  // then ONE pipe write per shard — one server-reader wakeup per shard per
  // batch instead of one per request.
  std::vector<std::uint64_t> ids(requests.size());
  std::vector<std::string> buffers(connections_.size());
  std::vector<std::vector<std::uint64_t>> batch_ids(connections_.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string payload = encode_plan_request(requests[i]);
    const std::size_t shard = shard_for(payload, requests[i]);
    ids[i] = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    buffers[shard] += encode_frame(MsgType::kPlanRequest, ids[i], payload);
    batch_ids[shard].push_back(ids[i]);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SOMPI_REQUIRE_MSG(!closing_, "submit_batch() on a closing client");
    for (std::size_t shard = 0; shard < connections_.size(); ++shard)
      connections_[shard]->outstanding.insert(batch_ids[shard].begin(), batch_ids[shard].end());
  }
  for (std::size_t shard = 0; shard < connections_.size(); ++shard) {
    if (buffers[shard].empty()) continue;
    Connection& connection = *connections_[shard];
    bool wrote;
    {
      std::lock_guard<std::mutex> lock(connection.write_mutex);
      wrote = connection.endpoint->write(buffers[shard]);
    }
    if (!wrote) fail_unsent(connection, batch_ids[shard]);
  }
  return ids;
}

template <typename Wanted>
bool PlanClient::read_step(std::unique_lock<std::mutex>& lock, Wanted wanted, bool block) {
  // Claim the reader role under mutex_: one connection for a blocking read,
  // every wanted one for a poll.
  std::vector<Connection*> claimed;
  for (const auto& connection : connections_) {
    if (connection->reading || connection->eof || !wanted(*connection)) continue;
    connection->reading = true;
    claimed.push_back(connection.get());
    if (block) break;
  }
  if (claimed.empty()) return false;
  // Read outside the lock, so other waiters and harvest() proceed.
  lock.unlock();
  std::vector<Decoded> decoded(claimed.size());
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    Connection& connection = *claimed[i];
    if (block) {
      decode_chunk(connection, connection.endpoint->read(kReadChunk), &decoded[i]);
      continue;
    }
    while (!decoded[i].eof) {
      std::optional<std::string> chunk = connection.endpoint->try_read(kReadChunk);
      if (!chunk) break;
      decode_chunk(connection, *chunk, &decoded[i]);
    }
  }
  lock.lock();
  for (std::size_t i = 0; i < claimed.size(); ++i) park(*claimed[i], std::move(decoded[i]));
  // Waiters may want a result parked above, or a reader role given back.
  done_cv_.notify_all();
  return true;
}

template <typename Ready, typename Wanted>
void PlanClient::wait_reading(std::unique_lock<std::mutex>& lock, Ready ready, Wanted wanted) {
  // Leader: read a wanted connection nobody reads. Follower: a reader holds
  // every connection this wait needs; it notifies once it has parked.
  while (!ready())
    if (!read_step(lock, wanted, /*block=*/true)) done_cv_.wait(lock);
}

PlanResponse PlanClient::plan(const PlanRequest& request) {
  const std::string payload = encode_plan_request(request);
  const std::size_t shard = shard_for(payload, request);
  const std::uint64_t id = send(shard, MsgType::kPlanRequest, payload, /*awaited=*/true);
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, id, shard);
  ClientCompletion completion = std::move(done_.at(id));
  done_.erase(id);
  lock.unlock();
  if (!completion.error.empty()) throw std::runtime_error(completion.error);
  return std::move(completion.response);
}

WireTierStats PlanClient::server_stats() {
  const std::uint64_t id =
      send(0, MsgType::kStatsRequest, encode_stats_request(), /*awaited=*/true);
  std::unique_lock<std::mutex> lock(mutex_);
  await(lock, id, 0);
  if (const auto it = stats_done_.find(id); it != stats_done_.end()) {
    WireTierStats stats = it->second;
    stats_done_.erase(it);
    return stats;
  }
  ClientCompletion completion = std::move(done_.at(id));
  done_.erase(id);
  throw std::runtime_error(completion.error.empty() ? "stats request failed"
                                                    : completion.error);
}

void PlanClient::await(std::unique_lock<std::mutex>& lock, std::uint64_t request_id,
                       std::size_t shard) {
  const Connection* home = connections_[shard].get();
  wait_reading(
      lock,
      [&] { return done_.count(request_id) != 0 || stats_done_.count(request_id) != 0; },
      [&](const Connection& connection) { return &connection == home; });
  awaited_.erase(request_id);
}

std::vector<ClientCompletion> PlanClient::harvest(std::size_t max) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Drain every connection that owes a response and that nobody reads,
  // without blocking, before collecting.
  read_step(
      lock, [](const Connection& connection) { return !connection.outstanding.empty(); },
      /*block=*/false);
  std::vector<ClientCompletion> out;
  for (auto it = done_.begin(); it != done_.end();) {
    if (max != 0 && out.size() >= max) break;
    if (awaited_.count(it->first) != 0) {
      ++it;
      continue;
    }
    out.push_back(std::move(it->second));
    it = done_.erase(it);
  }
  return out;
}

void PlanClient::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_reading(
      lock,
      [&] {
        return std::all_of(connections_.begin(), connections_.end(),
                           [](const std::unique_ptr<Connection>& c) {
                             return c->outstanding.empty();
                           });
      },
      [](const Connection& connection) { return !connection.outstanding.empty(); });
}

WireCodecStats PlanClient::codec_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return codec_stats_;
}

void PlanClient::complete(Connection& connection, ClientCompletion completion) {
  // Whoever takes the id out of `outstanding` completes it, so a
  // write-failure completion, a response and the EOF sweep never double up.
  if (connection.outstanding.erase(completion.request_id) == 0) return;
  const std::uint64_t request_id = completion.request_id;
  done_.emplace(request_id, std::move(completion));
}

void PlanClient::fail_unsent(Connection& connection, const std::vector<std::uint64_t>& ids) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t id : ids)
      complete(connection, failed(id, "connection dropped (write)"));
  }
  done_cv_.notify_all();
}

void PlanClient::park(Connection& connection, Decoded decoded) {
  for (ClientCompletion& completion : decoded.completions)
    complete(connection, std::move(completion));
  for (const auto& [id, stats] : decoded.stats)
    if (connection.outstanding.erase(id) != 0) stats_done_.emplace(id, stats);
  fold_codec_delta(&codec_stats_, &connection.folded, connection.decoder.stats());
  connection.reading = false;
  if (!decoded.eof) return;
  // The connection is down: fail exactly the requests still outstanding on
  // it. Every close closes both directions, so a later send on it fails at
  // its write instead of waiting here.
  connection.eof = true;
  const std::vector<std::uint64_t> orphans(connection.outstanding.begin(),
                                           connection.outstanding.end());
  for (const std::uint64_t id : orphans) complete(connection, failed(id, "connection dropped"));
}

void PlanClient::decode_chunk(Connection& connection, const std::string& chunk,
                              Decoded* out) {
  FrameDecoder& decoder = connection.decoder;
  if (chunk.empty()) {
    decoder.finish();
    out->eof = true;
    return;
  }
  decoder.feed(chunk);
  while (auto frame = decoder.next()) {
    ClientCompletion completion;
    completion.request_id = frame->request_id;
    switch (frame->type) {
      case MsgType::kPlanResponse: {
        if (!decode_plan_response(frame->payload, &completion.response)) {
          decoder.note_bad_payload();
          completion.error = "malformed plan_response payload";
        }
        out->completions.push_back(std::move(completion));
        break;
      }
      case MsgType::kStatsResponse: {
        WireTierStats stats;
        if (decode_stats_response(frame->payload, &stats)) {
          out->stats.emplace_back(frame->request_id, stats);
        } else {
          decoder.note_bad_payload();
          completion.error = "malformed stats_response payload";
          out->completions.push_back(std::move(completion));
        }
        break;
      }
      case MsgType::kErrorResponse: {
        std::string message;
        if (!decode_error_response(frame->payload, &message)) {
          decoder.note_bad_payload();
          message = "malformed error_response payload";
        }
        completion.error = message.empty() ? "server error" : message;
        out->completions.push_back(std::move(completion));
        break;
      }
      case MsgType::kPlanRequest:
      case MsgType::kStatsRequest:
        // Client-bound streams never carry these; a CRC-valid frame that
        // does is a payload-level protocol violation.
        decoder.note_bad_payload();
        break;
    }
  }
}

}  // namespace sompi::net
