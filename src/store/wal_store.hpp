// Durable StableStore: append-only write-ahead log + snapshots.
//
// WalStore implements the runtime::StableStore seam (the paper's
// "permanent part of the local state", Section 3) on a real filesystem,
// so a SIGKILL'd evs_node recovers its epoch, incarnation and object
// state from disk instead of rejoining empty.
//
// Layout of the store directory:
//
//   wal.log       append-only log of put/erase records
//   snapshot.db   latest compaction point (atomically renamed into place)
//
// Record framing (WAL): [u32 len][u32 crc32][body], both little-endian,
// where len is the body size and crc32 covers the body only. The body is
// codec-encoded: u8 kind (1 = put, 2 = erase, 3 = erase-prefix), key (or
// prefix) as a varint-prefixed string, and for puts the value as
// varint-prefixed bytes — an empty value therefore encodes distinctly
// from an erase, so `put(k, {})` round-trips as present-with-empty, never
// as absent. One erase-prefix record drops a whole key range (an object's
// op log behind its snapshot) without a record per key.
//
// Group commit: put()/erase() apply to the in-memory image immediately
// (read-your-writes) and append the encoded record to a pending buffer;
// nothing touches the kernel until flush(), which issues one write() and
// one fdatasync() for the whole batch. The net runtime calls flush() from
// an event-loop flush hook, so every put coalesced within one loop
// iteration shares a single fsync — the amortisation bench/store_wal
// measures. Durability is therefore at flush boundaries: a crash between
// put() and flush() loses the tail batch, which the protocol tolerates
// exactly as it tolerates crashing just before the put.
//
// Snapshots: compact() writes the full image to snapshot.tmp, fsyncs,
// renames over snapshot.db, fsyncs the directory, then truncates the WAL.
// Replaying the complete WAL over the snapshot it produced is idempotent
// (records apply last-writer-wins in order), so a crash between the
// rename and the truncate recovers correctly.
//
// Recovery (constructor): load snapshot.db if present (magic + whole-file
// CRC; a corrupt snapshot is counted and skipped), then replay wal.log
// record by record. The first short or CRC-failing record ends the replay
// — a torn tail from a crash mid-write — and the file is truncated back
// to the last good boundary so subsequent appends extend a clean log.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"

namespace evs::store {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `n` bytes: the
/// checksum of every WAL record body and of the snapshot file.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

struct WalStoreConfig {
  /// Directory holding wal.log + snapshot.db; created if missing (one
  /// level — the parent must exist).
  std::string dir;
  /// WAL size (bytes of synced records) above which flush() triggers an
  /// automatic compaction; 0 disables auto-compaction.
  std::size_t snapshot_after_bytes = 4u << 20;
  /// fdatasync on every flush (the durability half of group commit).
  /// Tests may disable to separate batching behaviour from sync cost.
  bool sync = true;
};

/// Cheap always-on accumulators, exported under "store." by
/// export_metrics(); the CI bench smoke asserts fsync_calls < puts under
/// batching.
struct WalStoreStats {
  std::uint64_t puts = 0;
  std::uint64_t erases = 0;
  std::uint64_t prefix_erases = 0;
  std::uint64_t flushes = 0;
  std::uint64_t fsync_calls = 0;
  std::uint64_t wal_records = 0;  // records synced to the log
  std::uint64_t wal_bytes = 0;    // framed bytes synced to the log
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;  // size of the latest snapshot
  // Recovery: what the constructor found on disk.
  std::uint64_t recovered_snapshot_keys = 0;
  std::uint64_t recovered_records = 0;
  std::uint64_t torn_tail_bytes = 0;       // bytes dropped at the WAL tail
  std::uint64_t snapshot_decode_errors = 0;  // corrupt snapshot skipped
};

class WalStore final : public runtime::StableStore {
 public:
  /// Opens (creating if needed) the store directory and recovers the
  /// image: snapshot first, then a torn-tail-tolerant WAL replay. Throws
  /// std::runtime_error when the directory or files cannot be opened.
  explicit WalStore(WalStoreConfig config);
  ~WalStore() override;

  WalStore(const WalStore&) = delete;
  WalStore& operator=(const WalStore&) = delete;

  // StableStore — reads serve from the in-memory image (read-your-writes
  // within an unflushed batch), writes buffer until flush().
  void put(const std::string& key, Bytes value) override;
  std::optional<Bytes> get(const std::string& key) const override;
  void erase(const std::string& key) override;
  bool contains(const std::string& key) const override;
  void erase_prefix(const std::string& prefix) override;

  /// Group commit: one write() + one fdatasync() covering every record
  /// buffered since the last flush. No-op when nothing is pending.
  void flush();

  /// Snapshot + WAL truncation (see header comment for the crash-safe
  /// ordering). Pending records need no separate sync — their effects are
  /// in the image the snapshot serialises.
  void compact();

  std::size_t size() const { return entries_.size(); }
  /// Total payload bytes held in the image (MemoryStore-compatible).
  std::size_t bytes() const;
  /// Records buffered but not yet synced.
  std::size_t pending_records() const { return pending_records_; }
  std::size_t wal_size() const { return wal_size_; }

  const WalStoreStats& stats() const { return stats_; }

  /// Projects stats + sync latency/batch-size histograms under
  /// `prefix.` ("store." in the net runtime's /metrics).
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) const;

 private:
  void append_record(Bytes body);
  void load_snapshot();
  void replay_wal();
  void write_snapshot();

  WalStoreConfig config_;
  std::string wal_path_;
  std::string snapshot_path_;
  int wal_fd_ = -1;
  int dir_fd_ = -1;

  std::map<std::string, Bytes> entries_;
  Bytes pending_;                    // framed records awaiting flush()
  std::size_t pending_records_ = 0;
  std::size_t wal_size_ = 0;         // synced bytes currently in wal.log

  WalStoreStats stats_;
  obs::Histogram sync_us_;        // write+fdatasync latency per flush
  obs::Histogram batch_records_;  // records amortised per fsync
};

}  // namespace evs::store
