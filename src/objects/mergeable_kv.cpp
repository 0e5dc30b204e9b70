#include "objects/mergeable_kv.hpp"

#include <algorithm>

namespace evs::objects {

MergeableKv::MergeableKv(app::GroupObjectConfig config)
    : app::GroupObjectBase(std::move(config)) {}

bool MergeableKv::can_serve(const std::vector<ProcessId>& members) const {
  (void)members;
  return true;  // progress in every partition
}

bool MergeableKv::put(const std::string& key, const std::string& value) {
  if (!serving_normal()) return false;
  Encoder enc;
  enc.put_string(key);
  enc.put_string(value);
  enc.put_varint(lamport_ + 1);
  object_multicast(std::move(enc).take());
  return true;
}

std::optional<std::string> MergeableKv::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.value;
}

void MergeableKv::svc_dispatch(runtime::SvcRequest req,
                               runtime::SvcRespondFn respond) {
  using runtime::SvcOp;
  using runtime::SvcResponse;
  switch (req.op) {
    case SvcOp::Get:
      respond(SvcResponse::ok(view_epoch(), get(req.key).value_or("")));
      return;
    case SvcOp::Put: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      Encoder enc;
      enc.put_string(req.key);
      enc.put_string(req.value);
      enc.put_varint(lamport_ + 1);
      svc_multicast(std::move(enc).take(), std::move(respond),
                    [this]() { return SvcResponse::ok(view_epoch()); });
      return;
    }
    default:
      respond(SvcResponse::unsupported());
  }
}

void MergeableKv::on_object_deliver(ProcessId sender, const Bytes& payload) {
  Decoder dec(payload);
  std::string key = dec.get_string();
  std::string value = dec.get_string();
  const std::uint64_t stamp = dec.get_varint();
  lamport_ = std::max(lamport_, stamp);
  Entry& entry = entries_[std::move(key)];
  // Last-writer-wins with writer-id tiebreak.
  if (std::make_pair(stamp, sender) >=
      std::make_pair(entry.stamp, entry.writer)) {
    entry.value = std::move(value);
    entry.stamp = stamp;
    entry.writer = sender;
  }
  ++version_;
}

Bytes MergeableKv::encode_entries(const std::map<std::string, Entry>& entries,
                                  std::uint64_t version, std::uint64_t lamport) {
  Encoder enc;
  enc.put_varint(version);
  enc.put_varint(lamport);
  enc.put_varint(entries.size());
  for (const auto& [key, entry] : entries) {
    enc.put_string(key);
    enc.put_string(entry.value);
    enc.put_varint(entry.stamp);
    enc.put_process(entry.writer);
  }
  return std::move(enc).take();
}

void MergeableKv::decode_entries(Decoder& dec,
                                 std::map<std::string, Entry>& out,
                                 std::uint64_t& version, std::uint64_t& lamport) {
  version = dec.get_varint();
  lamport = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  // Each entry takes several encoded bytes: a count beyond the remaining
  // payload is a corrupt length field, rejected before it can loop.
  if (n > dec.remaining()) throw DecodeError("MergeableKv: entry count too large");
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = dec.get_string();
    Entry entry;
    entry.value = dec.get_string();
    entry.stamp = dec.get_varint();
    entry.writer = dec.get_process();
    out[std::move(key)] = std::move(entry);
  }
  dec.expect_end();
}

Bytes MergeableKv::snapshot_state() const {
  return encode_entries(entries_, version_, lamport_);
}

void MergeableKv::install_state(const Bytes& snapshot) {
  Decoder dec(snapshot);
  std::map<std::string, Entry> entries;
  std::uint64_t version = 0;
  std::uint64_t lamport = 0;
  decode_entries(dec, entries, version, lamport);
  // Exactly the snapshot: the group object re-applies the ops past the
  // install's cut, so every replica at one op-log position holds the
  // same state, version and clock included.
  entries_ = std::move(entries);
  version_ = version;
  lamport_ = lamport;
}

Bytes MergeableKv::merge_cluster_states(const std::vector<Bytes>& snapshots) {
  std::map<std::string, Entry> merged;
  std::uint64_t version = 0;
  std::uint64_t lamport = 0;
  for (const Bytes& snapshot : snapshots) {
    Decoder dec(snapshot);
    std::map<std::string, Entry> entries;
    std::uint64_t v = 0;
    std::uint64_t l = 0;
    decode_entries(dec, entries, v, l);
    version = std::max(version, v);
    lamport = std::max(lamport, l);
    for (auto& [key, entry] : entries) {
      const auto it = merged.find(key);
      if (it == merged.end() ||
          std::make_pair(entry.stamp, entry.writer) >
              std::make_pair(it->second.stamp, it->second.writer)) {
        merged[key] = std::move(entry);
      }
    }
  }
  return encode_entries(merged, version + 1, lamport);
}

}  // namespace evs::objects
