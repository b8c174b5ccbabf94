#include "net/pipe.h"

#include <algorithm>

namespace sompi::net {

bool ByteChannel::write(std::string_view bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Admission is all-or-nothing per write: wait for the level to fall below
  // capacity, then append the whole chunk (a bounded overshoot of one write,
  // which keeps writes atomic — no interleaving of two writers' bytes).
  writable_.wait(lock, [&] { return closed_ || buffer_.size() < capacity_; });
  return append(bytes);
}

bool ByteChannel::write_unbounded(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  return append(bytes);
}

bool ByteChannel::append(std::string_view bytes) {
  if (closed_) return false;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  size_.store(buffer_.size(), std::memory_order_release);
  readable_.notify_all();
  return true;
}

std::string ByteChannel::read(std::size_t max_bytes) {
  std::unique_lock<std::mutex> lock(mutex_);
  readable_.wait(lock, [&] { return closed_ || !buffer_.empty(); });
  if (buffer_.empty()) return {};  // closed and drained
  return take(max_bytes);
}

std::optional<std::string> ByteChannel::try_read(std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!buffer_.empty()) return take(max_bytes);
  if (closed_) return std::string();  // closed and drained
  return std::nullopt;
}

std::string ByteChannel::take(std::size_t max_bytes) {
  const std::size_t n = std::min(max_bytes, buffer_.size());
  std::string out(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(n));
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(n));
  size_.store(buffer_.size(), std::memory_order_release);
  writable_.notify_all();
  return out;
}

void ByteChannel::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  readable_.notify_all();
  writable_.notify_all();
}

DuplexPipe::DuplexPipe(Config config)
    : a_to_b_(std::make_unique<ByteChannel>(config.capacity_bytes)),
      b_to_a_(std::make_unique<ByteChannel>(config.capacity_bytes)),
      a_(std::make_unique<PipeEndpoint>(a_to_b_.get(), b_to_a_.get(), config.faults,
                                        config.label + "/a")),
      b_(std::make_unique<PipeEndpoint>(b_to_a_.get(), a_to_b_.get(), config.faults,
                                        config.label + "/b")) {}

bool PipeEndpoint::write(std::string_view bytes) { return send(bytes, /*bounded=*/true); }

bool PipeEndpoint::write_unbounded(std::string_view bytes) {
  return send(bytes, /*bounded=*/false);
}

bool PipeEndpoint::send(std::string_view bytes, bool bounded) {
  const auto put = [&](std::string_view chunk) {
    return bounded ? out_->write(chunk) : out_->write_unbounded(chunk);
  };
  if (faults_ != nullptr) {
    if (faults_->fires(fi::Channel::kWireDrop, chaos_key_)) {
      close();
      return false;
    }
    std::uint64_t op = 0;
    if (faults_->fires(fi::Channel::kWireTornWrite, chaos_key_, &op)) {
      const std::size_t keep = faults_->torn_length(chaos_key_, op, bytes.size());
      if (keep > 0) put(bytes.substr(0, keep));
      close();
      return false;
    }
  }
  return put(bytes);
}

std::size_t PipeEndpoint::read_cap(std::size_t max_bytes) {
  std::size_t cap = max_bytes;
  std::uint64_t op = 0;
  if (faults_ != nullptr &&
      faults_->fires(fi::Channel::kWireShortRead, chaos_key_, &op)) {
    // Maximal fragmentation: force the reader's reassembly path without
    // losing a byte. 1–4 bytes splits headers, lengths and CRCs alike.
    cap = std::min<std::size_t>(cap, 1 + op % 4);
  }
  return std::max<std::size_t>(cap, 1);
}

std::string PipeEndpoint::read(std::size_t max_bytes) { return in_->read(read_cap(max_bytes)); }

std::optional<std::string> PipeEndpoint::try_read(std::size_t max_bytes) {
  // Probe first: an empty poll must not consume a short-read decision.
  if (!in_->readable()) return std::nullopt;
  return in_->try_read(read_cap(max_bytes));
}

void PipeEndpoint::close() {
  out_->close();
  in_->close();
}

}  // namespace sompi::net
