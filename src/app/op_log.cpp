#include "app/op_log.hpp"

#include <algorithm>
#include <cstdio>

namespace evs::app {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_u64(std::uint64_t hash, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Per-op framing overhead budgeted on top of the body when sizing a
/// delta answer (sender, op_seq and length varints).
constexpr std::size_t kOpWireOverhead = 24;

}  // namespace

std::uint64_t roll_op_hash(std::uint64_t hash, const LoggedOp& op) {
  // FNV-1a over (previous hash, sender, op_seq, body length, body).
  std::uint64_t h = fnv_u64(14695981039346656037ull, hash);
  h = fnv_u64(h, op.sender.site.value);
  h = fnv_u64(h, op.sender.incarnation);
  h = fnv_u64(h, op.op_seq);
  h = fnv_u64(h, op.body.size());
  for (const std::uint8_t byte : op.body) {
    h ^= byte;
    h *= kFnvPrime;
  }
  return h;
}

Bytes encode_ops(const std::vector<const LoggedOp*>& ops) {
  Encoder enc;
  enc.put_varint(ops.size());
  for (const LoggedOp* op : ops) {
    enc.put_process(op->sender);
    enc.put_varint(op->op_seq);
    enc.put_bytes(op->body);
  }
  return std::move(enc).take();
}

std::vector<LoggedOp> decode_ops(const Bytes& bytes) {
  Decoder dec(bytes);
  const std::uint64_t n = dec.get_varint();
  // Every op costs at least three encoded bytes.
  if (n > dec.remaining()) throw DecodeError("op list count too large");
  std::vector<LoggedOp> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    LoggedOp op;
    op.sender = dec.get_process();
    op.op_seq = dec.get_varint();
    op.body = dec.get_bytes();
    ops.push_back(std::move(op));
  }
  dec.expect_end();
  return ops;
}

std::string OpLog::op_key(std::uint64_t index) {
  // Fixed-width hex keeps the records in index order inside the store.
  char digits[17];
  std::snprintf(digits, sizeof digits, "%016llx",
                static_cast<unsigned long long>(index));
  return std::string(kOpPrefix) + digits;
}

void OpLog::append(const LoggedOp& op) {
  ++index_;
  hash_ = roll_op_hash(hash_, op);
  if (store_ != nullptr) {
    Encoder enc;
    enc.reserve(op.body.size() + 24);
    enc.put_u64(hash_);
    enc.put_process(op.sender);
    enc.put_varint(op.op_seq);
    enc.put_bytes(op.body);
    std::string key = op_key(index_);
    const std::size_t bytes = key.size() + enc.size();
    store_->put(key, std::move(enc).take());
    op_bytes_since_snapshot_ += bytes;
    ++stats_.ops_logged;
    stats_.op_bytes_logged += bytes;
  }
  keep(op);
}

void OpLog::append_recovered(LoggedOp op, std::uint64_t hash_after) {
  ++index_;
  hash_ = hash_after;
  keep(std::move(op));
}

void OpLog::keep(LoggedOp op) {
  if (config_.ring_bytes == 0) {
    ring_base_index_ = index_;  // no ring: only the position itself
    ring_base_hash_ = hash_;
    return;
  }
  ring_bytes_ += op.body.size();
  ring_.push_back(RingEntry{std::move(op), hash_});
  while (ring_bytes_ > config_.ring_bytes && !ring_.empty()) {
    ring_bytes_ -= ring_.front().op.body.size();
    ring_base_hash_ = ring_.front().hash_after;
    ++ring_base_index_;
    ring_.pop_front();
  }
}

void OpLog::reset(std::uint64_t index, std::uint64_t hash) {
  index_ = index;
  hash_ = hash;
  ring_.clear();
  ring_bytes_ = 0;
  ring_base_index_ = index;
  ring_base_hash_ = hash;
}

void OpLog::resume(const RecoveredLog& log) {
  reset(log.index, log.hash);
  last_snapshot_bytes_ = log.snapshot_bytes;
  op_bytes_since_snapshot_ = log.op_bytes;
}

bool OpLog::snapshot_due() const {
  return store_ != nullptr &&
         op_bytes_since_snapshot_ >
             std::max(config_.snapshot_min_bytes, last_snapshot_bytes_);
}

void OpLog::write_snapshot(const Bytes& state) {
  if (store_ == nullptr) return;
  Encoder enc;
  enc.reserve(state.size() + 24);
  enc.put_varint(index_);
  enc.put_u64(hash_);
  enc.put_bytes(state);
  last_snapshot_bytes_ = enc.size();
  ++stats_.snapshots;
  stats_.snapshot_bytes += enc.size();
  // Snapshot first, then the erase: a crash between the two leaves op
  // records that load() skips (at or behind the snapshot's index) or
  // rejects (a foreign chain), never a state that misses an op.
  store_->put(kSnapshotKey, std::move(enc).take());
  store_->erase_prefix(kOpPrefix);
  op_bytes_since_snapshot_ = 0;
}

std::optional<std::vector<const LoggedOp*>> OpLog::suffix_after(
    std::uint64_t index, std::uint64_t hash, std::size_t max_bytes) const {
  if (index > index_ || index < ring_base_index_) return std::nullopt;
  // The hash of this history at `index` is the ring's base or the hash
  // after one of its entries.
  const std::size_t skip = static_cast<std::size_t>(index - ring_base_index_);
  if (skip > ring_.size()) return std::nullopt;
  const std::uint64_t have =
      skip == 0 ? ring_base_hash_ : ring_[skip - 1].hash_after;
  if (have != hash) return std::nullopt;
  std::vector<const LoggedOp*> ops;
  std::size_t bytes = 0;
  for (std::size_t i = skip; i < ring_.size(); ++i) {
    bytes += ring_[i].op.body.size() + kOpWireOverhead;
    if (bytes > max_bytes) return std::nullopt;
    ops.push_back(&ring_[i].op);
  }
  return ops;
}

std::optional<RecoveredLog> OpLog::load(const runtime::StableStore& store) {
  RecoveredLog log;
  if (const auto bytes = store.get(kSnapshotKey)) {
    try {
      Decoder dec(*bytes);
      log.index = dec.get_varint();
      log.hash = dec.get_u64();
      log.snapshot = dec.get_bytes();
      dec.expect_end();
      log.snapshot_bytes = bytes->size();
    } catch (const DecodeError&) {
      return std::nullopt;
    }
  }
  std::uint64_t hash = log.hash;
  for (std::uint64_t index = log.index + 1;; ++index) {
    const std::string key = op_key(index);
    const auto bytes = store.get(key);
    if (!bytes) break;
    LoggedOp op;
    std::uint64_t recorded = 0;
    try {
      Decoder dec(*bytes);
      recorded = dec.get_u64();
      op.sender = dec.get_process();
      op.op_seq = dec.get_varint();
      op.body = dec.get_bytes();
      dec.expect_end();
    } catch (const DecodeError&) {
      break;
    }
    hash = roll_op_hash(hash, op);
    if (hash != recorded) break;  // not this snapshot's history
    log.ops.push_back(std::move(op));
    log.hashes.push_back(hash);
    log.op_bytes += key.size() + bytes->size();
  }
  return log;
}

}  // namespace evs::app
