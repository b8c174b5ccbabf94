// PlanServerLoop — the wire-serving front end of the sharded plan tier
// (DESIGN.md §15).
//
//   client ── DuplexPipe ──► per-connection reader ──► AsyncBatchService
//                                   │ (decode, budget)        │ workers
//                                   │                         ▼
//   client ◄── writer mutex ◄── completion pump ◄──── BatchCompletion
//
// One reader thread per connection feeds a FrameDecoder and classifies every
// frame; a single completion pump harvests the batch service and writes each
// response to the connection its request arrived on, correlated by the
// request id the client chose (responses can complete out of submission
// order — the id is the contract, not ordering). A bounded in-flight budget
// turns overload into explicit kShed responses at the wire door, before the
// batch queue, mirroring the tier's own admission control.
//
// The client end runs no threads (client.h): a response written here is
// read by the client thread that waits for it, so an inline warm hit
// crosses one thread besides the caller — this connection's reader. Hence
// no response write ever waits for the client to read
// (PipeEndpoint::write_unbounded): the bytes queue in the connection's pipe,
// its output buffer, so one connection nobody reads yet cannot stall the
// pump's writes to the others, its reader's intake of new requests, or
// shutdown().
//
// The connection a request arrives on IS its landing shard: requests are
// submitted with serve_on(connection.landing), so the tier's routed /
// sprayed / forwarded ledger measures the CLIENT's routing quality — a
// router-aware client lands every key on its ring home and the forwarding
// counter stays 0; a spray client pays one forward per misrouted request.
//
// Shutdown obeys the drain-on-shutdown completeness law, tested as such:
// every plan request whose frame was buffered before shutdown() is admitted
// (within the in-flight budget) and gets exactly one response frame written
// before its connection closes. (Reads are shut first and drained, the batch
// drains, the pump flushes, and only then do connections close.)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/pipe.h"
#include "net/wire.h"
#include "service/sharded/batch.h"
#include "service/sharded/sharded_service.h"

namespace sompi::net {

struct ServerConfig {
  /// Worker threads in the underlying AsyncBatchService.
  std::size_t workers = 4;
  /// Batch submission-queue bound (submit blocks when full, but the wire
  /// budget below sheds before that can matter in practice).
  std::size_t queue_capacity = 1024;
  /// Plan requests admitted but not yet answered, across all connections;
  /// the next one past this is shed with an explicit kShed response.
  std::size_t max_in_flight = 256;
  /// Per-direction pipe buffer.
  std::size_t pipe_capacity_bytes = 1 << 16;
  /// Frames above this payload size are rejected as overlong.
  std::size_t max_payload_bytes = 1 << 20;
  /// Optional chaos injected into every accepted connection's pipe.
  fi::FaultInjector* faults = nullptr;
};

class PlanServerLoop {
 public:
  /// `tier` is borrowed and must outlive the loop.
  PlanServerLoop(ShardedPlanService* tier, ServerConfig config);
  /// Calls shutdown() (drains, then closes).
  ~PlanServerLoop();

  PlanServerLoop(const PlanServerLoop&) = delete;
  PlanServerLoop& operator=(const PlanServerLoop&) = delete;

  /// Accepts a new connection whose requests land on `landing_shard` (the
  /// shard whose listener the client dialed) and returns the CLIENT side of
  /// its pipe. The endpoint stays valid until the loop is destroyed.
  PipeEndpoint* connect(std::size_t landing_shard);

  /// Graceful drain: stop reading, answer everything already admitted, then
  /// close every connection. Idempotent.
  void shutdown();

  /// Aggregate tier + wire counters (the payload of a StatsResponse).
  WireTierStats stats() const;

  /// Codec counters across every connection's requests; bytes_consumed is
  /// the client→server byte total.
  WireCodecStats codec_stats() const;

  ShardedPlanService* tier() { return tier_; }

 private:
  struct Connection {
    std::size_t landing_shard = 0;
    std::unique_ptr<DuplexPipe> pipe;
    PipeEndpoint* server_end = nullptr;  ///< owned by pipe
    std::mutex write_mutex;              ///< pump and reader both write
    std::thread reader;
    /// Decoder counters already folded into the loop aggregate (the reader
    /// folds deltas after every chunk, so stats() is live and race-free).
    WireCodecStats folded;
  };

  void reader_loop(Connection* connection);
  void pump_loop();
  void on_frame(Connection* connection, FrameDecoder* decoder, const WireFrame& frame);
  /// Bulk-admits the plan requests gathered from one read chunk: one budget
  /// check + one batch enqueue (one worker wakeup) for the whole burst;
  /// whatever exceeds the in-flight budget is shed explicitly. Clears
  /// `arrivals`.
  void admit_plan_requests(Connection* connection,
                           std::vector<std::pair<std::uint64_t, PlanRequest>>* arrivals);
  /// Serializes + frames a response and writes it on `connection`.
  void write_response(Connection* connection, std::uint64_t request_id,
                      const PlanResponse& response);
  void write_error(Connection* connection, std::uint64_t request_id,
                   std::string_view message);
  /// Drains every available completion to its connection. Returns the count.
  std::size_t dispatch_ready(std::chrono::milliseconds wait);

  ShardedPlanService* tier_;
  ServerConfig config_;
  std::unique_ptr<AsyncBatchService> batch_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// ticket → (connection, client request id) for in-flight plan requests.
  std::unordered_map<std::uint64_t, std::pair<Connection*, std::uint64_t>> in_flight_;
  bool accepting_ = true;

  // Wire counters (tier counters live in the tier).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> wire_sheds_{0};
  std::atomic<std::uint64_t> wire_errors_{0};
  /// Codec counters aggregated across all connections (guarded by mutex_;
  /// readers fold their decoder's deltas in after every chunk).
  WireCodecStats codec_stats_;

  std::atomic<bool> pump_stop_{false};
  std::thread pump_;
};

}  // namespace sompi::net
