// PlanClient — the router-aware wire client (DESIGN.md §15).
//
// A client opens ONE connection per shard and builds its OWN ShardRouter
// from the tier's (shards, vnodes, salt) — routing is a pure function of
// that config, so an independently constructed ring agrees with the server's
// on every key. In kRouted mode each request is canonicalized locally and
// sent down the connection of its ring home: it lands where it lives, the
// tier's forwarding counter stays 0, and the hot path never pays a cross-
// shard hop. kSpray round-robins instead (what a router-oblivious load
// balancer does) — every misrouted request shows up in the tier's
// forwarded counter, which is exactly how the routing-quality gate measures
// the difference.
//
// The API mirrors the in-process service: blocking plan() and a
// submit/harvest/drain async-batch surface. Correlation is by client-chosen
// request id; responses may arrive in any order and a dropped connection
// (chaos or server shutdown) fails only the requests outstanding on it —
// each becomes an error completion, nothing blocks forever.
//
// The client starts no threads; its callers read the responses. harvest()
// polls every connection without blocking. A blocking call whose result is
// missing becomes its connection's reader when nobody reads it (leader):
// it blocks in the pipe read outside the client lock and parks what it
// decodes; every other waiter sleeps on the completion condition. The
// server never waits for a client to read (server.h), so responses nobody
// has collected yet queue in their pipes: a caller may submit any number
// of requests before it harvests, as with the in-process service.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/server.h"
#include "net/wire.h"
#include "service/sharded/shard_router.h"

namespace sompi::net {

enum class ClientMode {
  kRouted,  ///< ring-route each request to its home shard's connection
  kSpray,   ///< round-robin across connections (router-oblivious baseline)
};

struct ClientCompletion {
  std::uint64_t request_id = 0;
  PlanResponse response;
  /// Non-empty iff the request failed at the wire (error frame, malformed
  /// response, dropped connection); response.plan is null then.
  std::string error;
};

class PlanClient {
 public:
  /// Dials one connection per shard on `server` (borrowed; must outlive the
  /// client or be shut down first — a shutdown server just fails requests).
  PlanClient(PlanServerLoop* server, ClientMode mode);
  ~PlanClient();

  PlanClient(const PlanClient&) = delete;
  PlanClient& operator=(const PlanClient&) = delete;

  /// Blocking round trip. Throws std::runtime_error on a wire failure.
  PlanResponse plan(const PlanRequest& request);

  /// Async batch surface, mirroring AsyncBatchService.
  std::uint64_t submit(const PlanRequest& request);
  std::vector<std::uint64_t> submit_batch(const std::vector<PlanRequest>& requests);
  /// Finished completions, each exactly once (0 = all available). Non-blocking.
  std::vector<ClientCompletion> harvest(std::size_t max = 0);
  /// Blocks until every submitted request has a completion waiting.
  void drain();

  /// Server-side tier + wire counters via a StatsRequest round trip.
  /// Throws std::runtime_error on a wire failure.
  WireTierStats server_stats();

  /// This client's codec rejects (torn/dropped responses under chaos).
  WireCodecStats codec_stats() const;

  std::size_t connection_count() const { return connections_.size(); }
  const ShardRouter& router() const { return router_; }

  /// The connection index request would be sent on (test/diagnostic surface;
  /// does not consume a request id or round-robin slot).
  std::size_t pick_shard(const PlanRequest& request) const;

 private:
  struct Connection {
    PipeEndpoint* endpoint = nullptr;  ///< owned by the server loop
    std::mutex write_mutex;
    /// Used only by the thread holding the reader role (`reading`).
    FrameDecoder decoder;
    // Guarded by the client mutex_:
    bool reading = false;  ///< some thread is reading this connection
    bool eof = false;      ///< read side is down; `outstanding` was failed
    /// Request ids sent on this connection and not yet completed; a drop
    /// fails exactly these.
    std::set<std::uint64_t> outstanding;
    WireCodecStats folded;  ///< decoder counters already in codec_stats_
  };

  /// What a reader decoded while it held the role.
  struct Decoded {
    std::vector<ClientCompletion> completions;
    std::vector<std::pair<std::uint64_t, WireTierStats>> stats;
    bool eof = false;
  };

  /// Feeds one read chunk ("" = EOF) to the decoder. Needs the reader role.
  static void decode_chunk(Connection& connection, const std::string& chunk, Decoded* out);
  /// Parks what a reader decoded and gives up its role; at EOF fails the
  /// connection's outstanding ids. Requires mutex_; caller notifies after.
  void park(Connection& connection, Decoded decoded);
  /// Parks `completion` iff its id is still outstanding on `connection`, so
  /// each id completes exactly once. Requires mutex_.
  void complete(Connection& connection, ClientCompletion completion);
  /// Completes `ids`, whose frames could not be written, as dropped.
  void fail_unsent(Connection& connection, const std::vector<std::uint64_t>& ids);
  /// The reader-role step, the one rule that keeps each id completing
  /// once: claims connections `wanted` selects that nobody reads (one if
  /// `block`, all otherwise), reads them outside mutex_ (one blocking read,
  /// or try_read until empty), parks the result and notifies done_cv_.
  /// Returns false when there was nothing to claim. Requires mutex_.
  template <typename Wanted>
  bool read_step(std::unique_lock<std::mutex>& lock, Wanted wanted, bool block);
  /// Blocks until `ready()` holds (checked under mutex_): reads an unread
  /// connection `wanted` selects (leader), or waits on done_cv_.
  template <typename Ready, typename Wanted>
  void wait_reading(std::unique_lock<std::mutex>& lock, Ready ready, Wanted wanted);
  /// Waits until a blocking call's id, sent on `shard`, has completed.
  void await(std::unique_lock<std::mutex>& lock, std::uint64_t request_id, std::size_t shard);
  /// The connection a request goes out on (consumes a round-robin slot).
  std::size_t shard_for(const std::string& payload, const PlanRequest& request);
  /// Registers a new id as outstanding (and as awaited, for a blocking
  /// call) under mutex_, then writes its frame.
  std::uint64_t send(std::size_t shard, MsgType type, std::string_view payload, bool awaited);
  /// Ring home of a request, memoized by its encoded payload bytes: repeat
  /// requests (the warm-hit common case) skip re-canonicalization and pay a
  /// hash lookup instead. Byte-different encodings of the same canonical
  /// request simply occupy two memo slots — both map to the same home.
  std::size_t route_for(const std::string& payload, const PlanRequest& request) const;

  ShardRouter router_;
  ClientMode mode_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<std::uint64_t> spray_cursor_{0};

  /// encoded PlanRequest payload → ring home (see route_for). Guarded by
  /// route_mutex_; bounded by wholesale clear at kRouteMemoCapacity.
  static constexpr std::size_t kRouteMemoCapacity = 4096;
  mutable std::mutex route_mutex_;
  mutable std::unordered_map<std::string, std::size_t> route_memo_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::map<std::uint64_t, ClientCompletion> done_;
  /// Stats responses route here instead of done_ (different payload type).
  std::map<std::uint64_t, WireTierStats> stats_done_;
  /// Ids a blocking call waits for; harvest() skips them. Registered with
  /// the id's outstanding entry, before its frame is written.
  std::set<std::uint64_t> awaited_;
  WireCodecStats codec_stats_;
  bool closing_ = false;
};

}  // namespace sompi::net
