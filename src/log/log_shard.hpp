// Sharded shared log, part 1: one shard (CORFU-style, view-synchronous).
//
// The shared log is the classic shared-memory abstraction over a cluster:
// append(bytes) -> global position, read(pos), tail(), seal(epoch),
// fill(pos), trim(pos). We shard it across G group instances hosted by
// the same processes (src/net/runtime.hpp's multi-group hosting): each
// shard is one view-synchronous group whose sv-set sequencer *is* the
// CORFU sequencer — an append is an ordered object multicast, and every
// replica assigns the next shard-local position to it at delivery, so
// position assignment and the write are one atomic step in the total
// order (no holes can form inside a shard; fill exists for the *global*
// interleaving, see below).
//
// Global positions interleave shards round-robin:
//
//   global = local * G + shard_index        local = global / G
//   owning shard of a global position = global % G
//
// so G shards appending concurrently produce a dense global position
// space, each shard dense in its own residue class. The global tail is
// the max over shards of their next unassigned global position. A slow
// shard leaves the positions of its residue class unassigned while
// faster shards run ahead — fill(global_pos) force-occupies such a
// position with junk so in-order global readers are not blocked by it
// (CORFU's hole-filling, relocated to the shard map).
//
// Epoch fencing (CORFU's seal) reuses the view-epoch machinery: seal(e)
// is itself an ordered multicast; once applied, the shard refuses
// appends while its installed view epoch is <= e, answering
// InvalidEpoch{current} — exactly the outcome a client sees across an
// e-view change, so a client's re-fence path covers both. A view
// change advances the epoch past the seal and re-opens the shard.
//
// A log shard serves only in a majority partition (can_serve): unlike the
// mergeable KV, a log must be single-copy ordered — two partitions both
// assigning positions would fork history. State merging after heals is
// therefore trivial: pick the longest prefix (clusters cannot diverge).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "app/group_object.hpp"

namespace evs::log {

struct LogShardConfig {
  app::GroupObjectConfig object;
  /// This shard's index and the shard count G of the sharded log.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
};

/// One record slot. Data records carry bytes; filled slots are junk
/// minted by fill(); trimmed slots are gone entirely (below trim_floor_).
struct LogSlot {
  bool filled = false;  // true: junk from fill(), data empty
  std::string data;
};

class LogShard : public app::GroupObjectBase {
 public:
  explicit LogShard(LogShardConfig config);

  std::uint32_t shard_index() const { return config_.shard_index; }
  std::uint32_t shard_count() const { return config_.shard_count; }

  /// Next unassigned *global* position of this shard's residue class
  /// (local tail mapped through the interleaving).
  std::uint64_t global_tail() const {
    return next_local_ * config_.shard_count + config_.shard_index;
  }
  std::uint64_t local_tail() const { return next_local_; }
  std::uint64_t trim_floor() const { return trim_floor_; }
  std::uint64_t sealed_epoch() const { return sealed_epoch_; }
  /// Sealed right now: appends refused until a view change outruns the
  /// sealed epoch.
  bool sealed() const { return view_epoch() <= sealed_epoch_; }
  std::size_t records() const { return slots_.size(); }

  std::string admin_status_json() const override;

 protected:
  /// Majority partitions only: a log forked across partitions is no log.
  bool can_serve(const std::vector<ProcessId>& members) const override;
  Bytes snapshot_state() const override;
  void install_state(const Bytes& snapshot) override;
  Bytes merge_cluster_states(const std::vector<Bytes>& snapshots) override;
  std::uint64_t state_version() const override { return version_; }
  void on_object_deliver(ProcessId sender, const Bytes& payload) override;
  /// LogRead/LogTail answered locally by any serving member; LogAppend/
  /// LogSeal/LogTrim/LogFill are ordered writes, accepted only at the
  /// view coordinator (NotLeader{coordinator_site} elsewhere) and
  /// completed when the multicast delivers back.
  void svc_dispatch(runtime::SvcRequest req,
                    runtime::SvcRespondFn respond) override;

 private:
  enum class OpKind : std::uint8_t {
    Append = 1,
    Seal = 2,
    Trim = 3,
    Fill = 4,
  };

  bool is_coordinator() const;
  /// Applies one ordered op; returns the local position it assigned
  /// (Append/Fill) or 0.
  void apply_append(std::string record);
  void apply_fill(std::uint64_t local);
  void apply_trim(std::uint64_t local);
  void apply_seal(std::uint64_t epoch);

  static Bytes encode_state(const LogShard& s);
  void decode_state(Decoder& dec);

  LogShardConfig config_;
  /// local position -> slot; keys in [trim_floor_, next_local_).
  std::map<std::uint64_t, LogSlot> slots_;
  std::uint64_t next_local_ = 0;   // next local position to assign
  std::uint64_t trim_floor_ = 0;   // local positions below are trimmed
  std::uint64_t sealed_epoch_ = 0;
  std::uint64_t version_ = 0;      // bumps on every applied op
  /// Local position assigned by the most recently applied Append/Fill —
  /// read by svc finish lambdas, which run right after the apply.
  std::uint64_t last_assigned_local_ = 0;
};

}  // namespace evs::log
