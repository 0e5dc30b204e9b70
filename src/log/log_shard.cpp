#include "log/log_shard.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/check.hpp"

namespace evs::log {

using runtime::SvcOp;
using runtime::SvcRequest;
using runtime::SvcRespondFn;
using runtime::SvcResponse;

namespace {

/// Strict decimal u64; nullopt on anything else (positions and epochs
/// arrive as client-controlled strings).
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

}  // namespace

LogShard::LogShard(LogShardConfig config)
    : app::GroupObjectBase(config.object), config_(config) {
  EVS_CHECK(config_.shard_count >= 1);
  EVS_CHECK(config_.shard_index < config_.shard_count);
}

bool LogShard::can_serve(const std::vector<ProcessId>& members) const {
  // Single-copy ordering: only a majority of the universe may assign
  // positions, so two partitions can never both extend the log.
  return members.size() * 2 > config_.object.endpoint.universe.size();
}

bool LogShard::is_coordinator() const {
  return eview().view.id.coordinator == id();
}

void LogShard::svc_dispatch(SvcRequest req, SvcRespondFn respond) {
  switch (req.op) {
    case SvcOp::LogRead: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      const auto global = parse_u64(req.key);
      if (!global || *global % config_.shard_count != config_.shard_index) {
        respond(SvcResponse::unsupported());  // misrouted / malformed
        return;
      }
      const std::uint64_t local = *global / config_.shard_count;
      if (local < trim_floor_) {
        respond(SvcResponse::ok(view_epoch(), "T"));
        return;
      }
      if (local >= next_local_) {
        // Not yet assigned: the reader caught the tail; retry or fill.
        respond(SvcResponse::conflict(
            config_.object.svc_retry_after_ms));
        return;
      }
      const auto it = slots_.find(local);
      if (it == slots_.end() || it->second.filled) {
        respond(SvcResponse::ok(view_epoch(), "F"));
        return;
      }
      respond(SvcResponse::ok(view_epoch(), "D" + it->second.data));
      return;
    }
    case SvcOp::LogTail: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      respond(SvcResponse::ok(view_epoch(), std::to_string(global_tail())));
      return;
    }
    case SvcOp::LogAppend: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      if (sealed()) {
        // The CORFU fence: a sealed shard refuses new appends until a
        // view change advances the epoch past the seal. Same outcome as
        // an epoch fence, so a client's re-fence path handles both.
        respond(SvcResponse::invalid_epoch(view_epoch()));
        return;
      }
      if (!is_coordinator()) {
        respond(SvcResponse::not_leader(
            eview().view.id.coordinator.site.value, view_epoch()));
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(OpKind::Append));
      enc.put_string(req.value);
      svc_multicast(std::move(enc).take(), std::move(respond), [this]() {
        // Runs right after apply_append assigned this op's position.
        const std::uint64_t global =
            last_assigned_local_ * config_.shard_count + config_.shard_index;
        return SvcResponse::ok(view_epoch(), std::to_string(global));
      });
      return;
    }
    case SvcOp::LogSeal: {
      const auto epoch = parse_u64(req.key);
      if (!epoch) {
        respond(SvcResponse::unsupported());
        return;
      }
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      if (!is_coordinator()) {
        respond(SvcResponse::not_leader(
            eview().view.id.coordinator.site.value, view_epoch()));
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(OpKind::Seal));
      enc.put_varint(*epoch);
      svc_multicast(std::move(enc).take(), std::move(respond), [this]() {
        return SvcResponse::ok(view_epoch(),
                               std::to_string(sealed_epoch_));
      });
      return;
    }
    case SvcOp::LogTrim:
    case SvcOp::LogFill: {
      const auto global = parse_u64(req.key);
      if (!global || *global % config_.shard_count != config_.shard_index) {
        respond(SvcResponse::unsupported());
        return;
      }
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      if (!is_coordinator()) {
        respond(SvcResponse::not_leader(
            eview().view.id.coordinator.site.value, view_epoch()));
        return;
      }
      const std::uint64_t local = *global / config_.shard_count;
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(
          req.op == SvcOp::LogTrim ? OpKind::Trim : OpKind::Fill));
      enc.put_varint(local);
      const std::string echo = req.key;
      svc_multicast(std::move(enc).take(), std::move(respond),
                    [this, echo]() {
                      return SvcResponse::ok(view_epoch(), echo);
                    });
      return;
    }
    default:
      respond(SvcResponse::unsupported());
  }
}

void LogShard::on_object_deliver(ProcessId sender, const Bytes& payload) {
  (void)sender;
  Decoder dec(payload);
  switch (static_cast<OpKind>(dec.get_u8())) {
    case OpKind::Append:
      apply_append(dec.get_string());
      break;
    case OpKind::Seal:
      apply_seal(dec.get_varint());
      break;
    case OpKind::Trim:
      apply_trim(dec.get_varint());
      break;
    case OpKind::Fill:
      apply_fill(dec.get_varint());
      break;
  }
}

void LogShard::apply_append(std::string record) {
  // Position assignment and write are one step in the total order: every
  // replica assigns the same local position to the same multicast.
  // Appends ordered before a seal landed still apply after it — the
  // fence is at admission, the order stays deterministic.
  const std::uint64_t local = next_local_++;
  slots_[local] = LogSlot{false, std::move(record)};
  last_assigned_local_ = local;
  ++version_;
}

void LogShard::apply_fill(std::uint64_t local) {
  if (local < next_local_) {
    ++version_;  // occupied (data raced the fill and won) — no-op
    return;
  }
  // Junk-fill everything up to and including `local`: in-order global
  // readers fill positions front to back, so the range is length 1 in
  // practice; filling it densely keeps every position below the tail
  // occupied.
  for (std::uint64_t l = next_local_; l <= local; ++l)
    slots_[l] = LogSlot{true, {}};
  next_local_ = local + 1;
  last_assigned_local_ = local;
  ++version_;
}

void LogShard::apply_trim(std::uint64_t local) {
  if (local > trim_floor_) {
    trim_floor_ = std::min(local, next_local_);
    slots_.erase(slots_.begin(), slots_.lower_bound(trim_floor_));
  }
  ++version_;
}

void LogShard::apply_seal(std::uint64_t epoch) {
  sealed_epoch_ = std::max(sealed_epoch_, epoch);
  ++version_;
}

Bytes LogShard::encode_state(const LogShard& s) {
  Encoder enc;
  enc.put_varint(s.version_);
  enc.put_varint(s.next_local_);
  enc.put_varint(s.trim_floor_);
  enc.put_varint(s.sealed_epoch_);
  enc.put_varint(s.slots_.size());
  for (const auto& [local, slot] : s.slots_) {
    enc.put_varint(local);
    enc.put_u8(slot.filled ? 1 : 0);
    enc.put_string(slot.data);
  }
  return std::move(enc).take();
}

void LogShard::decode_state(Decoder& dec) {
  // Decode the whole snapshot into temporaries before committing: a
  // truncated or bit-flipped snapshot throws DecodeError with the shard's
  // state untouched (the settle engine counts the rejection); the old
  // in-place decode left half-mutated protocol state behind the throw.
  const std::uint64_t version = dec.get_varint();
  const std::uint64_t next_local = dec.get_varint();
  const std::uint64_t trim_floor = dec.get_varint();
  const std::uint64_t sealed_epoch = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  // Every slot costs at least 3 encoded bytes; a length field larger than
  // the remaining payload can ever justify is corruption, not a big log.
  if (n > dec.remaining()) throw DecodeError("LogShard: slot count too large");
  std::map<std::uint64_t, LogSlot> slots;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t local = dec.get_varint();
    LogSlot slot;
    slot.filled = dec.get_u8() != 0;
    slot.data = dec.get_string();
    slots[local] = std::move(slot);
  }
  dec.expect_end();
  version_ = version;
  next_local_ = next_local;
  trim_floor_ = trim_floor;
  sealed_epoch_ = sealed_epoch;
  slots_ = std::move(slots);
}

Bytes LogShard::snapshot_state() const { return encode_state(*this); }

void LogShard::install_state(const Bytes& snapshot) {
  Decoder dec(snapshot);
  decode_state(dec);
}

Bytes LogShard::merge_cluster_states(const std::vector<Bytes>& snapshots) {
  // Majority-only serving means clusters cannot diverge: the states are
  // prefixes of one history. Adopt the longest (ties: highest version),
  // which is exactly the most-advanced prefix.
  const Bytes* best = nullptr;
  std::uint64_t best_tail = 0;
  std::uint64_t best_version = 0;
  for (const Bytes& snapshot : snapshots) {
    // Validate the whole candidate, not just its header: a truncated or
    // bit-flipped snapshot must fail the merge here (counted upstream),
    // not win on a corrupt tail field and poison the install.
    Decoder dec(snapshot);
    const std::uint64_t version = dec.get_varint();
    const std::uint64_t tail = dec.get_varint();
    dec.get_varint();  // trim_floor
    dec.get_varint();  // sealed_epoch
    const std::uint64_t n = dec.get_varint();
    if (n > dec.remaining()) throw DecodeError("LogShard: slot count too large");
    for (std::uint64_t i = 0; i < n; ++i) {
      dec.get_varint();
      dec.get_u8();
      dec.get_string();
    }
    dec.expect_end();
    if (best == nullptr || tail > best_tail ||
        (tail == best_tail && version > best_version)) {
      best = &snapshot;
      best_tail = tail;
      best_version = version;
    }
  }
  if (best == nullptr)
    throw DecodeError("LogShard: no cluster state to merge");
  return *best;
}

std::string LogShard::admin_status_json() const {
  // The endpoint's JSON with the shard's own block spliced in.
  std::string base = app::GroupObjectBase::admin_status_json();
  EVS_CHECK(!base.empty() && base.back() == '}');
  base.pop_back();
  std::ostringstream os;
  os << base << ",\"log\":{\"shard\":" << config_.shard_index
     << ",\"shards\":" << config_.shard_count
     << ",\"global_tail\":" << global_tail()
     << ",\"local_tail\":" << next_local_
     << ",\"trim_floor\":" << trim_floor_
     << ",\"sealed_epoch\":" << sealed_epoch_
     << ",\"sealed\":" << (sealed() ? "true" : "false")
     << ",\"records\":" << slots_.size() << "}}";
  return os.str();
}

}  // namespace evs::log
