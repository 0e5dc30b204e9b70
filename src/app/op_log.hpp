// Ordered-op log: the durable and in-memory history of a group object.
//
// Every ordered Object operation a member applies gets the next index of
// its object history, and a rolling hash over that history names the
// state it leads to: two members at the same (index, hash) applied the
// same ops from the same starting state. The log keeps that position and
//
//   - persists each applied op as one small store record (key
//     "object.op.<index as 16 hex digits>"), plus a full snapshot only
//     when the state is replaced by a settle or the op records since the
//     last snapshot outgrow it; the snapshot record drops the ops behind
//     it with one erase-prefix, so boot loads the snapshot and replays at
//     most max(snapshot_min_bytes, snapshot size) of ops;
//   - keeps a byte-bounded ring of recent ops, from which a source answers
//     a rejoiner's delta Pull with the op suffix after the rejoiner's
//     (index, hash) basis.
//
// Record layout (values codec-encoded):
//
//   object.snapshot   varint index, u64 hash, bytes state
//   object.op.<hex>   u64 hash after the op, process sender, varint
//                     op_seq, bytes body
//
// Each op record carries the hash its op leads to, so recovery replays
// only a chain that continues the snapshot: records left behind by an
// older history (a crash between a replacing snapshot and the erase of
// the old ops) end the replay instead of corrupting the state.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "runtime/runtime.hpp"

namespace evs::app {

/// One ordered Object operation as delivered: who sent it, the sender's
/// op sequence number, and the object-level body.
struct LoggedOp {
  ProcessId sender;
  std::uint64_t op_seq = 0;
  Bytes body;

  bool operator==(const LoggedOp&) const = default;
};

/// The rolling history hash after `op` is applied at `hash`.
std::uint64_t roll_op_hash(std::uint64_t hash, const LoggedOp& op);

/// Wire form of an op list (a delta answer): varint count, then per op
/// process sender, varint op_seq, bytes body.
Bytes encode_ops(const std::vector<const LoggedOp*>& ops);
std::vector<LoggedOp> decode_ops(const Bytes& bytes);

struct OpLogConfig {
  /// Ring capacity in op-body bytes; 0 keeps no ring (no delta answers).
  std::size_t ring_bytes = 0;
  /// A snapshot is written once the op records since the last one exceed
  /// max(snapshot_min_bytes, size of that snapshot): the amortised
  /// snapshot cost stays within one byte per op byte, and boot replays at
  /// most that many bytes of ops.
  std::size_t snapshot_min_bytes = 256u << 10;
};

struct OpLogStats {
  std::uint64_t ops_logged = 0;       // op records written
  std::uint64_t op_bytes_logged = 0;  // their encoded size, keys included
  std::uint64_t snapshots = 0;        // snapshot records written
  std::uint64_t snapshot_bytes = 0;   // their encoded size
};

/// What load() found in a store: the snapshot (empty state at (0, 0) when
/// none was written) and the chain of ops after it.
struct RecoveredLog {
  std::optional<Bytes> snapshot;
  std::uint64_t index = 0;
  std::uint64_t hash = 0;
  std::vector<LoggedOp> ops;
  /// hashes[i] is the history hash after ops[i].
  std::vector<std::uint64_t> hashes;
  /// Encoded sizes found on disk (the snapshot record, the op records).
  std::size_t snapshot_bytes = 0;
  std::size_t op_bytes = 0;
};

class OpLog {
 public:
  static constexpr const char* kSnapshotKey = "object.snapshot";
  static constexpr const char* kOpPrefix = "object.op.";

  explicit OpLog(OpLogConfig config = {}) : config_(config) {}

  /// Persist records to `store` from now on (nullptr: memory only).
  void attach(runtime::StableStore* store) { store_ = store; }

  std::uint64_t index() const { return index_; }
  std::uint64_t hash() const { return hash_; }

  /// An op was applied: advances (index, hash), keeps the op in the ring
  /// and, with a store attached, writes its record.
  void append(const LoggedOp& op);

  /// Boot replay of an op that load() read back: takes the hash load()
  /// already rolled and checked, and keeps the op in the ring without
  /// writing its record again.
  void append_recovered(LoggedOp op, std::uint64_t hash_after);

  /// The state was replaced by one cut at (index, hash): moves the
  /// position there and forgets the ring, whose ops belong to the old
  /// history. The caller persists the new state with write_snapshot().
  void reset(std::uint64_t index, std::uint64_t hash);

  /// Boot: takes the position of `log`'s snapshot and its on-disk sizes,
  /// so the snapshot threshold covers the records already there. The
  /// caller then replays log.ops through append_recovered().
  void resume(const RecoveredLog& log);

  /// Whether the op records since the last snapshot outgrew it.
  bool snapshot_due() const;

  /// Writes `state` as the snapshot at the current position, then drops
  /// every op record (those behind it are covered, none ahead exist yet).
  void write_snapshot(const Bytes& state);

  /// The ops after basis (index, hash) up to the current position, from
  /// the ring; nullopt when the basis is ahead, outside the ring or its
  /// hash disagrees with this history, or when the ops' encoded bodies
  /// would exceed `max_bytes`.
  std::optional<std::vector<const LoggedOp*>> suffix_after(
      std::uint64_t index, std::uint64_t hash, std::size_t max_bytes) const;

  /// Reads the snapshot and its op chain back from `store`. A snapshot
  /// that does not decode yields nullopt (start empty); the op chain ends
  /// at the first missing, undecodable or foreign record.
  static std::optional<RecoveredLog> load(const runtime::StableStore& store);

  static std::string op_key(std::uint64_t index);

  std::size_t ring_size() const { return ring_.size(); }
  std::size_t ring_bytes() const { return ring_bytes_; }
  const OpLogStats& stats() const { return stats_; }

 private:
  /// Keeps `op`, just applied at the current position, in the ring.
  void keep(LoggedOp op);

  struct RingEntry {
    LoggedOp op;
    std::uint64_t hash_after = 0;
  };

  OpLogConfig config_;
  runtime::StableStore* store_ = nullptr;
  std::uint64_t index_ = 0;
  std::uint64_t hash_ = 0;
  /// Ring of the most recent ops: entries carry indices
  /// (ring_base_index_, index_], ring_base_* names the position before
  /// the first entry.
  std::deque<RingEntry> ring_;
  std::size_t ring_bytes_ = 0;
  std::uint64_t ring_base_index_ = 0;
  std::uint64_t ring_base_hash_ = 0;
  /// Encoded bytes of op records written since the last snapshot, and
  /// that snapshot's size.
  std::size_t op_bytes_since_snapshot_ = 0;
  std::size_t last_snapshot_bytes_ = 0;
  OpLogStats stats_;
};

}  // namespace evs::app
