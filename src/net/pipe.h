// In-process socket-pair transport (DESIGN.md §15).
//
// A DuplexPipe is two bounded byte channels glued back to back: what one
// endpoint writes the other reads, in order, in arbitrary chunk splits —
// exactly the stream (not datagram) semantics of a TCP socket, minus the
// kernel. Being in-process keeps the whole serving stack deterministic and
// lets chaos come from the same seed-derived FaultInjector as every other
// subsystem:
//
//   wire.torn_write   the write delivers only a deterministic prefix
//                     (FaultInjector::torn_length) and the connection drops
//   wire.drop         the connection drops instead of writing
//   wire.short_read   a read is capped to a few bytes — maximal chunk
//                     fragmentation, no data loss (exercises every resume
//                     point in FrameDecoder::feed)
//
// Closing is one-way-visible like a socket: after close() (or a chaos drop)
// writes fail and reads drain whatever was already buffered, then return 0.
// Every blocking call is condition-variable based — no spinning — so the
// 8-client stress tests run clean under TSan. write_unbounded() never waits
// for the reader (the level may pass capacity); try_read() polls without
// blocking; an empty poll draws no chaos decision, so polling never shifts a
// seed's short-read stream.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "faultinject/injector.h"

namespace sompi::net {

/// One direction of a pipe: a bounded, blocking, chunk-preserving byte queue.
class ByteChannel {
 public:
  explicit ByteChannel(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Appends all of `bytes`, blocking while the channel is over capacity.
  /// Returns false (writing nothing) once the channel is closed.
  bool write(std::string_view bytes);

  /// write() without the wait: appends all of `bytes` even past capacity,
  /// so the level is bounded by the writer, not by the reader.
  bool write_unbounded(std::string_view bytes);

  /// Takes up to `max_bytes` from the front, blocking while the channel is
  /// empty and open. Returns an empty string only at closed-and-drained.
  std::string read(std::size_t max_bytes);

  /// read() without the wait: std::nullopt while the channel is empty and
  /// open.
  std::optional<std::string> try_read(std::size_t max_bytes);

  /// True when read() would not block: bytes are buffered or the channel is
  /// closed. Lock-free: the cheap probe before a try_read().
  bool readable() const {
    return size_.load(std::memory_order_acquire) != 0 ||
           closed_.load(std::memory_order_acquire);
  }

  /// Idempotent; wakes every blocked reader and writer.
  void close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Bytes of buffer storage held, read or not. Once the channel drains it
  /// is at most the capacity, so a burst past it is not kept.
  std::size_t storage_bytes() const;

 private:
  /// Appends `bytes` unless closed. Requires mutex_.
  bool append(std::string_view bytes);
  /// Moves up to `max_bytes` out of a non-empty buffer. Requires mutex_.
  std::string take(std::size_t max_bytes);
  /// Unread bytes. Requires mutex_.
  std::size_t level() const { return buffer_.size() - head_; }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable readable_;
  std::condition_variable writable_;
  /// Bytes [head_, size) are unread. The read prefix is reclaimed when the
  /// channel drains, or by an append once it is at least as long as the
  /// unread rest (one move per byte at most, amortized).
  std::string buffer_;
  std::size_t head_ = 0;
  /// level() and the closed flag, published for the lock-free probe;
  /// written only under mutex_.
  std::atomic<std::size_t> size_{0};
  std::atomic<bool> closed_{false};
};

class PipeEndpoint;

/// The socket pair. Create one, hand endpoint `a()` to the client side and
/// `b()` to the server side; both stay valid for the pipe's lifetime.
class DuplexPipe {
 public:
  struct Config {
    std::size_t capacity_bytes = 1 << 16;
    /// Optional chaos; borrowed, may be null. Decision streams are keyed by
    /// `label` + endpoint side so same-seed runs replay identically.
    fi::FaultInjector* faults = nullptr;
    std::string label = "pipe";
  };

  explicit DuplexPipe(Config config);

  PipeEndpoint& a() { return *a_; }
  PipeEndpoint& b() { return *b_; }

 private:
  std::unique_ptr<ByteChannel> a_to_b_;
  std::unique_ptr<ByteChannel> b_to_a_;
  std::unique_ptr<PipeEndpoint> a_;
  std::unique_ptr<PipeEndpoint> b_;
};

/// One side of a DuplexPipe. Not owned by callers; lives in the pipe.
class PipeEndpoint {
 public:
  PipeEndpoint(ByteChannel* out, ByteChannel* in, fi::FaultInjector* faults,
               std::string chaos_key)
      : out_(out), in_(in), faults_(faults), chaos_key_(std::move(chaos_key)) {}

  /// Writes the whole buffer (stream semantics: one write may arrive as many
  /// reads). Under chaos a torn write delivers a deterministic prefix and
  /// closes the connection; a drop closes it without writing. Returns false
  /// once the connection is down.
  bool write(std::string_view bytes);

  /// write() that never waits for the peer to read: the bytes queue past the
  /// pipe's capacity, like a server's per-connection output buffer. A writer
  /// serving many connections uses it so that one unread connection cannot
  /// stall the others. Same chaos as write().
  bool write_unbounded(std::string_view bytes);

  /// Reads up to `max_bytes` (at least 1 unless closed-and-drained, which
  /// returns ""). Short-read chaos caps the chunk size; it never loses data.
  std::string read(std::size_t max_bytes = 4096);

  /// read() without the wait: std::nullopt while nothing is buffered and the
  /// connection is open. The short-read decision is drawn only when the read
  /// goes ahead, so empty polls leave the chaos stream untouched. One reader
  /// at a time, as with a socket.
  std::optional<std::string> try_read(std::size_t max_bytes = 4096);

  /// Closes BOTH directions — like shutdown(SHUT_RDWR): peers' writes start
  /// failing and their reads drain then EOF.
  void close();
  /// Closes only the INCOMING direction — like shutdown(SHUT_RD): this
  /// side's reads drain then EOF and the peer's writes start failing, but
  /// this side can still write (the drain path during graceful shutdown).
  void shutdown_read() { in_->close(); }
  bool closed() const { return out_->closed() && in_->closed(); }

 private:
  /// write() or write_unbounded(), after the drop and torn-write draws.
  bool send(std::string_view bytes, bool bounded);
  /// `max_bytes`, capped by a short-read chaos decision when one fires.
  std::size_t read_cap(std::size_t max_bytes);

  ByteChannel* out_;
  ByteChannel* in_;
  fi::FaultInjector* faults_;
  std::string chaos_key_;
};

}  // namespace sompi::net
