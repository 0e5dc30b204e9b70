// The paper's first worked example (Section 3): a group object
// implementing a file with read and write external operations.
//
// "With respect to write operations, the group object should behave
//  exactly as if there were only one copy of the file; with respect to
//  read operations, it is allowable to return stale data."
//
// Each replica holds a vote; writes need a quorum of votes obtainable in
// at most one concurrent view. Mode interpretation (straight from the
// paper): a quorum view is N-mode (reads + writes), a non-quorum view is
// R-mode (reads only — the reduced external-operation subset), and a view
// where some members hold stale replicas is S-mode until they are brought
// up to date.
//
// Writes are multicast through the totally-ordered channel, so replicas
// apply them in one global order; version numbers are monotonic. The
// file content and version persist in the site's stable store, modelling
// the permanent part of the local state (recovery reloads them) — unless
// config.object.persist_state hands durability to the group object's
// ordered-op log, which also gives the file its delta rejoin.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "app/group_object.hpp"

namespace evs::objects {

struct ReplicatedFileConfig {
  app::GroupObjectConfig object;
  /// Votes per site; sites absent from the map hold 1 vote.
  std::map<SiteId, std::uint32_t> votes;
  /// Votes needed for a write quorum; 0 = strict majority of total votes.
  std::uint32_t quorum = 0;
};

class ReplicatedFile : public app::GroupObjectBase {
 public:
  explicit ReplicatedFile(ReplicatedFileConfig config);

  /// External operation: write the whole file. Returns false when the
  /// object is not in N-mode (no quorum or still settling) — the caller
  /// must retry later, exactly as a client of the paper's object would.
  bool write(const std::string& content);

  /// External operation: read. Allowed in N- and R-mode; may be stale.
  std::optional<std::string> read() const;

  /// External operation: append to the file. Ordered like write(); each
  /// replica applies appends in the one global order, so the content
  /// stays identical everywhere. Returns false when not in N-mode.
  bool append(const std::string& data);

  std::uint64_t version() const { return version_; }
  const std::string& content() const { return content_; }
  std::uint64_t writes_applied() const { return writes_applied_; }

  void on_start() override;

 protected:
  bool can_serve(const std::vector<ProcessId>& members) const override;
  Bytes snapshot_state() const override;
  void install_state(const Bytes& snapshot) override;
  /// Split-transfer support (Section 5): the small critical piece is the
  /// version metadata — enough for the group to proceed while the bulk
  /// content streams in concurrently.
  Bytes snapshot_small() const override;
  void install_small(const Bytes& snapshot) override;
  Bytes merge_cluster_states(const std::vector<Bytes>& snapshots) override;
  std::uint64_t state_version() const override { return version_; }
  void on_object_deliver(ProcessId sender, const Bytes& payload) override;
  /// External clients: Get serves read() (Unavailable while settling
  /// without state); Put is a whole-file write and Append an ordered
  /// append, both completing when applied or fenced by a view change.
  void svc_dispatch(runtime::SvcRequest req,
                    runtime::SvcRespondFn respond) override;

 private:
  enum class Op : std::uint8_t { Write = 1, Append = 2 };

  std::uint32_t votes_of(SiteId site) const;
  void persist();

  ReplicatedFileConfig config_;
  std::uint32_t total_votes_ = 0;
  std::uint64_t version_ = 0;
  std::string content_;
  std::uint64_t writes_applied_ = 0;
};

}  // namespace evs::objects
