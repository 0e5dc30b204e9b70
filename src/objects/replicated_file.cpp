#include "objects/replicated_file.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace evs::objects {

namespace {

constexpr const char* kStateKey = "file.state";

}  // namespace

ReplicatedFile::ReplicatedFile(ReplicatedFileConfig config)
    : app::GroupObjectBase(config.object), config_(std::move(config)) {
  for (const SiteId site : config_.object.endpoint.universe)
    total_votes_ += votes_of(site);
  if (config_.quorum == 0) config_.quorum = total_votes_ / 2 + 1;
}

std::uint32_t ReplicatedFile::votes_of(SiteId site) const {
  const auto it = config_.votes.find(site);
  return it == config_.votes.end() ? 1 : it->second;
}

void ReplicatedFile::on_start() {
  // Permanent local state: a recovered incarnation resumes from its
  // site's replica (possibly stale — the settle protocol fixes that).
  // Behind persist_state the base's op log recovers it instead.
  if (const auto bytes = config_.object.persist_state
                             ? std::nullopt
                             : store().get(kStateKey)) {
    try {
      Decoder dec(*bytes);
      version_ = dec.get_varint();
      content_ = dec.get_string();
    } catch (const DecodeError&) {
      version_ = 0;
      content_.clear();
    }
  }
  app::GroupObjectBase::on_start();
}

bool ReplicatedFile::can_serve(const std::vector<ProcessId>& members) const {
  std::uint32_t votes = 0;
  for (const ProcessId member : members) votes += votes_of(member.site);
  return votes >= config_.quorum;
}

bool ReplicatedFile::write(const std::string& content) {
  if (!serving_normal()) return false;
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(Op::Write));
  enc.put_varint(version_ + 1);
  enc.put_string(content);
  object_multicast(std::move(enc).take());
  return true;
}

bool ReplicatedFile::append(const std::string& data) {
  if (!serving_normal()) return false;
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(Op::Append));
  enc.put_string(data);
  object_multicast(std::move(enc).take());
  return true;
}

std::optional<std::string> ReplicatedFile::read() const {
  // Reads are permitted in N- and R-mode (stale data is allowed); a
  // process that has never installed any state has nothing to return.
  if (mode() == app::Mode::Settling && !state_current()) return std::nullopt;
  return content_;
}

void ReplicatedFile::on_object_deliver(ProcessId sender, const Bytes& payload) {
  (void)sender;
  Decoder dec(payload);
  switch (static_cast<Op>(dec.get_u8())) {
    case Op::Write: {
      const std::uint64_t new_version = dec.get_varint();
      std::string new_content = dec.get_string();
      // Total order makes versions monotone; a concurrent write raced an
      // earlier one and was ordered second — it wins with a bumped version.
      version_ = std::max(version_ + 1, new_version);
      content_ = std::move(new_content);
      break;
    }
    case Op::Append:
      // Appends carry no version: each replica applies them in the one
      // global delivery order, so version/content stay identical.
      ++version_;
      content_ += dec.get_string();
      break;
    default:
      throw DecodeError("ReplicatedFile: bad op");
  }
  ++writes_applied_;
  persist();
}

void ReplicatedFile::svc_dispatch(runtime::SvcRequest req,
                                  runtime::SvcRespondFn respond) {
  using runtime::SvcOp;
  using runtime::SvcResponse;
  switch (req.op) {
    case SvcOp::Get: {
      const auto content = read();
      if (!content) {
        respond(svc_unavailable());  // settling with no state yet
        return;
      }
      respond(SvcResponse::ok(view_epoch(), *content));
      return;
    }
    case SvcOp::Put: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(Op::Write));
      enc.put_varint(version_ + 1);
      enc.put_string(req.value);
      svc_multicast(std::move(enc).take(), std::move(respond),
                    [this]() { return SvcResponse::ok(view_epoch()); });
      return;
    }
    case SvcOp::Append: {
      if (!serving_normal()) {
        respond(svc_unavailable());
        return;
      }
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(Op::Append));
      enc.put_string(req.value);
      svc_multicast(std::move(enc).take(), std::move(respond),
                    [this]() { return SvcResponse::ok(view_epoch()); });
      return;
    }
    default:
      respond(SvcResponse::unsupported());
  }
}

Bytes ReplicatedFile::snapshot_state() const {
  Encoder enc;
  enc.put_varint(version_);
  enc.put_string(content_);
  return std::move(enc).take();
}

void ReplicatedFile::install_state(const Bytes& snapshot) {
  // The settle engine only installs the agreed authoritative state. A
  // local version that is *higher* can only come from writes applied in a
  // superseded view that never reached a quorum — they are correctly
  // discarded here (one-copy semantics).
  // Decode to temporaries and demand exhaustion before committing: a
  // malformed snapshot must be rejected whole (the settle engine counts
  // the DecodeError), never half-installed.
  Decoder dec(snapshot);
  const std::uint64_t version = dec.get_varint();
  std::string content = dec.get_string();
  dec.expect_end();
  version_ = version;
  content_ = std::move(content);
  persist();
}

Bytes ReplicatedFile::snapshot_small() const {
  Encoder enc;
  enc.put_varint(version_);
  enc.put_string("");  // content follows via chunks
  return std::move(enc).take();
}

void ReplicatedFile::install_small(const Bytes& snapshot) {
  Decoder dec(snapshot);
  const std::uint64_t version = dec.get_varint();
  dec.get_string();  // empty content placeholder
  dec.expect_end();
  // Adopt the version marker only; local content stays (stale reads are
  // allowed) until the streamed full state arrives.
  if (version > version_) version_ = version;
}

Bytes ReplicatedFile::merge_cluster_states(const std::vector<Bytes>& snapshots) {
  // Write quorums intersect, so at most one cluster can have accepted
  // writes; the highest version is the authoritative copy.
  Bytes best;
  bool found = false;
  std::uint64_t best_version = 0;
  for (const Bytes& snapshot : snapshots) {
    // Validate the whole candidate, not just the version header — a
    // malformed cluster snapshot must fail the merge (counted upstream),
    // not win it and detonate on install.
    Decoder dec(snapshot);
    const std::uint64_t version = dec.get_varint();
    dec.get_string();
    dec.expect_end();
    if (!found || version > best_version) {
      found = true;
      best_version = version;
      best = snapshot;
    }
  }
  if (!found) throw DecodeError("ReplicatedFile: no cluster state to merge");
  return best;
}

void ReplicatedFile::persist() {
  if (config_.object.persist_state) return;  // the op log persists it
  store().put(kStateKey, snapshot_state());
}

}  // namespace evs::objects
