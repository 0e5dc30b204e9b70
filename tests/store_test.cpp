// Durable store tests: the StableStore conformance suite run against both
// MemoryStore and WalStore (same observable semantics, including the
// empty-value-vs-absent-key distinction), plus WAL-specific coverage —
// group-commit batching, reopen persistence, snapshot compaction, and a
// differential recovery test that crashes the log at every record
// boundary (and in a torn tail) and compares the recovered image against
// a reference model.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "app/op_log.hpp"
#include "runtime/runtime.hpp"
#include "store/wal_store.hpp"

namespace evs {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("evs_store_" + std::string(test->name()) + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

store::WalStoreConfig wal_config(const std::string& dir) {
  store::WalStoreConfig config;
  config.dir = dir;
  config.snapshot_after_bytes = 0;  // tests compact explicitly
  return config;
}

// ---------------------------------------------------------------------------
// Conformance suite: every StableStore implementation must behave
// identically through the interface. Parameterised over a factory so the
// same assertions run against MemoryStore and WalStore.

struct StoreFactory {
  std::string name;
  std::function<std::unique_ptr<runtime::StableStore>(const std::string& dir)>
      make;
};

// gtest's default printer dumps the factory's bytes, which hold heap and
// code addresses; the test names CTest discovers would differ every build.
void PrintTo(const StoreFactory& factory, std::ostream* os) {
  *os << factory.name;
}

class StoreConformanceTest : public testing::TestWithParam<StoreFactory> {
 protected:
  std::unique_ptr<runtime::StableStore> make() {
    return GetParam().make(dir_.str());
  }

 private:
  TempDir dir_;
};

TEST_P(StoreConformanceTest, PutGetEraseRoundTrip) {
  auto store = make();
  EXPECT_FALSE(store->contains("k"));
  EXPECT_EQ(store->get("k"), std::nullopt);
  store->put("k", to_bytes("v1"));
  EXPECT_TRUE(store->contains("k"));
  EXPECT_EQ(store->get("k"), to_bytes("v1"));
  store->put("k", to_bytes("v2"));  // overwrite replaces
  EXPECT_EQ(store->get("k"), to_bytes("v2"));
  store->erase("k");
  EXPECT_FALSE(store->contains("k"));
  EXPECT_EQ(store->get("k"), std::nullopt);
  store->erase("k");  // erase of absent key is a no-op
  EXPECT_FALSE(store->contains("k"));
}

TEST_P(StoreConformanceTest, EmptyValueIsPresentNotAbsent) {
  auto store = make();
  store->put("empty", Bytes{});
  ASSERT_TRUE(store->contains("empty"));
  const auto got = store->get("empty");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
  // Overwriting a real value with an empty one must not read as erasure.
  store->put("k", to_bytes("data"));
  store->put("k", Bytes{});
  ASSERT_TRUE(store->contains("k"));
  EXPECT_EQ(store->get("k"), Bytes{});
  store->erase("k");
  EXPECT_FALSE(store->contains("k"));
}

TEST_P(StoreConformanceTest, BinaryKeysAndValues) {
  auto store = make();
  const std::string key("k\0ey\xff", 6);
  Bytes value{0x00, 0xff, 0x7f, 0x80, 0x00};
  store->put(key, value);
  EXPECT_EQ(store->get(key), value);
  EXPECT_FALSE(store->contains(std::string("k\0ey", 4)));
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
  store->put("big", big);
  EXPECT_EQ(store->get("big"), big);
}

TEST_P(StoreConformanceTest, ManyKeysIndependent) {
  auto store = make();
  for (int i = 0; i < 100; ++i)
    store->put("key" + std::to_string(i), to_bytes("v" + std::to_string(i)));
  for (int i = 0; i < 100; i += 2) store->erase("key" + std::to_string(i));
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (i % 2 == 0) {
      EXPECT_FALSE(store->contains(key)) << key;
    } else {
      EXPECT_EQ(store->get(key), to_bytes("v" + std::to_string(i))) << key;
    }
  }
}

TEST_P(StoreConformanceTest, ErasePrefixDropsExactlyTheRange) {
  auto store = make();
  for (const char* key : {"op.", "op.1", "op.2", "oq", "o", "state"})
    store->put(key, to_bytes(key));
  store->erase_prefix("op.");
  for (const char* key : {"op.", "op.1", "op.2"})
    EXPECT_FALSE(store->contains(key)) << key;
  for (const char* key : {"oq", "o", "state"})
    EXPECT_EQ(store->get(key), to_bytes(key)) << key;
  store->erase_prefix("nothing-here");  // matching nothing is a no-op
  EXPECT_TRUE(store->contains("state"));
}

INSTANTIATE_TEST_SUITE_P(
    Stores, StoreConformanceTest,
    testing::Values(
        StoreFactory{"MemoryStore",
                     [](const std::string&) -> std::unique_ptr<runtime::StableStore> {
                       return std::make_unique<runtime::MemoryStore>();
                     }},
        StoreFactory{"WalStore",
                     [](const std::string& dir)
                         -> std::unique_ptr<runtime::StableStore> {
                       return std::make_unique<store::WalStore>(wal_config(dir));
                     }}),
    [](const testing::TestParamInfo<StoreFactory>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// WAL-specific behaviour.

TEST(WalStoreTest, ReopenRecoversImageIncludingEmptyValues) {
  TempDir dir;
  {
    store::WalStore store(wal_config(dir.str()));
    store.put("a", to_bytes("alpha"));
    store.put("b", Bytes{});
    store.put("c", to_bytes("gone"));
    store.erase("c");
    store.flush();
  }
  store::WalStore reopened(wal_config(dir.str()));
  EXPECT_EQ(reopened.get("a"), to_bytes("alpha"));
  ASSERT_TRUE(reopened.contains("b"));
  EXPECT_EQ(reopened.get("b"), Bytes{});
  EXPECT_FALSE(reopened.contains("c"));
  EXPECT_EQ(reopened.stats().recovered_records, 4u);
}

TEST(WalStoreTest, DestructorFlushesPendingBatch) {
  TempDir dir;
  {
    store::WalStore store(wal_config(dir.str()));
    store.put("k", to_bytes("v"));
    EXPECT_EQ(store.pending_records(), 1u);
    // No explicit flush: teardown is the last durability point.
  }
  store::WalStore reopened(wal_config(dir.str()));
  EXPECT_EQ(reopened.get("k"), to_bytes("v"));
}

TEST(WalStoreTest, GroupCommitAmortisesFsyncAcrossBatch) {
  TempDir dir;
  store::WalStore store(wal_config(dir.str()));
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 16; ++i)
      store.put("k" + std::to_string(i), to_bytes(std::to_string(batch)));
    EXPECT_EQ(store.pending_records(), 16u);
    EXPECT_EQ(store.stats().fsync_calls, static_cast<std::uint64_t>(batch));
    store.flush();
    EXPECT_EQ(store.pending_records(), 0u);
  }
  EXPECT_EQ(store.stats().puts, 64u);
  EXPECT_EQ(store.stats().fsync_calls, 4u);  // one per batch, not per put
  EXPECT_EQ(store.stats().wal_records, 64u);
  EXPECT_LT(store.stats().fsync_calls, store.stats().puts);
  store.flush();  // empty flush is free
  EXPECT_EQ(store.stats().flushes, 4u);
}

TEST(WalStoreTest, CompactionShrinksWalAndSurvivesReopen) {
  TempDir dir;
  {
    store::WalStore store(wal_config(dir.str()));
    for (int i = 0; i < 50; ++i) store.put("k", to_bytes("version" + std::to_string(i)));
    store.put("other", to_bytes("kept"));
    store.flush();
    EXPECT_GT(store.wal_size(), 0u);
    store.compact();
    EXPECT_EQ(store.wal_size(), 0u);
    EXPECT_EQ(store.stats().snapshots, 1u);
    // Post-compaction writes land in the (now empty) log.
    store.put("post", to_bytes("compact"));
    store.flush();
  }
  store::WalStore reopened(wal_config(dir.str()));
  EXPECT_EQ(reopened.get("k"), to_bytes("version49"));
  EXPECT_EQ(reopened.get("other"), to_bytes("kept"));
  EXPECT_EQ(reopened.get("post"), to_bytes("compact"));
  EXPECT_EQ(reopened.stats().recovered_snapshot_keys, 2u);
  EXPECT_EQ(reopened.stats().recovered_records, 1u);  // only "post" replays
}

TEST(WalStoreTest, AutoCompactionTriggersOnThreshold) {
  TempDir dir;
  store::WalStoreConfig config = wal_config(dir.str());
  config.snapshot_after_bytes = 1024;
  store::WalStore store(config);
  for (int i = 0; i < 100; ++i) {
    store.put("k" + std::to_string(i % 7), Bytes(64, 0xab));
    store.flush();
  }
  EXPECT_GT(store.stats().snapshots, 0u);
  EXPECT_LE(store.wal_size(), 2048u);
  store::WalStore reopened(wal_config(dir.str()));
  EXPECT_EQ(reopened.size(), 7u);
}

TEST(WalStoreTest, TornTailIsDroppedAndTruncated) {
  TempDir dir;
  {
    store::WalStore store(wal_config(dir.str()));
    store.put("good", to_bytes("kept"));
    store.put("torn", to_bytes("this record will be cut mid-body"));
    store.flush();
  }
  const std::string wal = dir.str() + "/wal.log";
  const auto full = fs::file_size(wal);
  fs::resize_file(wal, full - 5);  // cut into the last record's body
  {
    store::WalStore recovered(wal_config(dir.str()));
    EXPECT_EQ(recovered.get("good"), to_bytes("kept"));
    EXPECT_FALSE(recovered.contains("torn"));
    EXPECT_EQ(recovered.stats().recovered_records, 1u);
    EXPECT_GT(recovered.stats().torn_tail_bytes, 0u);
    // The tail was truncated: appends continue from the good boundary.
    recovered.put("after", to_bytes("clean"));
    recovered.flush();
  }
  store::WalStore again(wal_config(dir.str()));
  EXPECT_EQ(again.get("good"), to_bytes("kept"));
  EXPECT_EQ(again.get("after"), to_bytes("clean"));
  EXPECT_EQ(again.stats().torn_tail_bytes, 0u);
}

TEST(WalStoreTest, CorruptRecordEndsReplayAtLastGoodBoundary) {
  TempDir dir;
  {
    store::WalStore store(wal_config(dir.str()));
    store.put("first", to_bytes("ok"));
    store.put("second", to_bytes("corrupted below"));
    store.flush();
  }
  // Flip a bit in the last record's body: CRC catches it, replay stops.
  const std::string wal = dir.str() + "/wal.log";
  {
    std::FILE* f = std::fopen(wal.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);
    int c = std::fgetc(f);
    std::fseek(f, -3, SEEK_END);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  store::WalStore recovered(wal_config(dir.str()));
  EXPECT_EQ(recovered.get("first"), to_bytes("ok"));
  EXPECT_FALSE(recovered.contains("second"));
  EXPECT_GT(recovered.stats().torn_tail_bytes, 0u);
}

TEST(WalStoreTest, CorruptSnapshotIsCountedAndSkipped) {
  TempDir dir;
  {
    store::WalStore store(wal_config(dir.str()));
    store.put("snapped", to_bytes("in snapshot"));
    store.flush();
    store.compact();
    store.put("logged", to_bytes("in wal"));
    store.flush();
  }
  // External corruption of the snapshot payload (the rename discipline
  // never produces this): recovery counts it and falls back to the WAL.
  const std::string snap = dir.str() + "/snapshot.db";
  {
    std::FILE* f = std::fopen(snap.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 10, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 10, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  store::WalStore recovered(wal_config(dir.str()));
  EXPECT_EQ(recovered.stats().snapshot_decode_errors, 1u);
  EXPECT_FALSE(recovered.contains("snapped"));  // lost with the snapshot
  EXPECT_EQ(recovered.get("logged"), to_bytes("in wal"));
}

TEST(WalStoreTest, ExportMetricsProjectsStatsAndHistograms) {
  TempDir dir;
  store::WalStore store(wal_config(dir.str()));
  for (int i = 0; i < 10; ++i) store.put("k" + std::to_string(i), to_bytes("v"));
  store.flush();
  obs::MetricsRegistry registry;
  store.export_metrics(registry, "store");
  EXPECT_EQ(registry.counter("store.puts").value(), 10u);
  EXPECT_EQ(registry.counter("store.fsync_calls").value(), 1u);
  EXPECT_EQ(registry.counter("store.keys").value(), 10u);
  EXPECT_EQ(registry.histogram("store.batch_records").count(), 1u);
  EXPECT_DOUBLE_EQ(registry.histogram("store.batch_records").max(), 10.0);
  EXPECT_EQ(registry.histogram("store.sync_us").count(), 1u);
}

TEST(WalStoreTest, Crc32MatchesTheStandardCheckAndABitwiseReference) {
  const std::string check = "123456789";
  EXPECT_EQ(store::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                         check.size()),
            0xCBF43926u);
  // Bit-at-a-time CRC over every length 0..40 at every start offset 0..7:
  // the eight-byte steps and the byte tail meet each alignment.
  const auto bitwise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int k = 0; k < 8; ++k)
        crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
  };
  std::mt19937 rng(5);
  std::vector<std::uint8_t> buf(48);
  for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 40; ++n) {
      EXPECT_EQ(store::crc32(buf.data() + offset, n),
                bitwise(buf.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential recovery.

namespace {

/// Byte offset of every record boundary in a WAL (0, end-of-record-1, ...,
/// file size). Parses the [u32 len][u32 crc] framing directly.
std::vector<std::uintmax_t> record_boundaries(const fs::path& wal) {
  std::vector<std::uintmax_t> cuts = {0};
  std::FILE* f = std::fopen(wal.string().c_str(), "rb");
  if (f == nullptr) return cuts;
  std::uintmax_t pos = 0;
  unsigned char header[8];
  while (std::fread(header, 1, 8, f) == 8) {
    const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                              static_cast<std::uint32_t>(header[1]) << 8 |
                              static_cast<std::uint32_t>(header[2]) << 16 |
                              static_cast<std::uint32_t>(header[3]) << 24;
    pos += 8 + len;
    cuts.push_back(pos);
    std::fseek(f, static_cast<long>(len), SEEK_CUR);
  }
  std::fclose(f);
  return cuts;
}

void copy_dir(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to);
  for (const auto& entry : fs::directory_iterator(from))
    fs::copy_file(entry.path(), to / entry.path().filename());
}

}  // namespace

// A random put/erase schedule runs against the real store with
// compaction disabled, so every logged operation stays in the WAL. Then a
// simulated crash at every record boundary (truncate the log there): the
// recovered image must equal the reference model replayed to exactly that
// many operations. A second pass tears the tail mid-record at each
// boundary: the partial record must be dropped, recovering the boundary's
// model.
TEST(WalStoreDifferentialTest, CrashAtEveryRecordBoundaryMatchesModel) {
  TempDir dir;
  const fs::path base = fs::path(dir.str()) / "base";
  std::mt19937 rng(20260807);
  const std::vector<std::string> keys = {"a", "b", "c", "dd", "eee", ""};

  // models[k] = reference image after the first k logged records. An
  // erase of an absent key logs nothing, mirroring the store.
  std::vector<std::map<std::string, Bytes>> models = {{}};
  {
    store::WalStore store(wal_config(base.string()));
    std::map<std::string, Bytes> model;
    for (int i = 0; i < 150; ++i) {
      const int pick = static_cast<int>(rng() % 10);
      if (pick < 7) {
        const std::string& key = keys[rng() % keys.size()];
        Bytes value(rng() % 40, static_cast<std::uint8_t>(rng()));
        store.put(key, value);
        model[key] = std::move(value);
        models.push_back(model);
      } else if (pick < 9) {
        const std::string& key = keys[rng() % keys.size()];
        store.erase(key);
        if (model.erase(key) > 0) models.push_back(model);
      } else {
        store.flush();  // vary the batch boundaries, not the contents
      }
    }
    store.flush();
  }

  const std::vector<std::uintmax_t> cuts = record_boundaries(base / "wal.log");
  ASSERT_EQ(cuts.size(), models.size());
  ASSERT_GT(cuts.size(), 50u);

  const fs::path crash = fs::path(dir.str()) / "crash";
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    // Clean cut at boundary k: exactly the first k records survive.
    copy_dir(base, crash);
    fs::resize_file(crash / "wal.log", cuts[k]);
    {
      store::WalStore recovered(wal_config(crash.string()));
      EXPECT_EQ(recovered.stats().recovered_records, k);
      EXPECT_EQ(recovered.stats().torn_tail_bytes, 0u);
      ASSERT_EQ(recovered.size(), models[k].size()) << "boundary " << k;
      for (const auto& [key, value] : models[k])
        EXPECT_EQ(recovered.get(key), value) << "boundary " << k;
    }
    // Torn tail: cut partway into record k+1 (header, then body); the
    // partial record is dropped and the image equals boundary k's model.
    if (k + 1 >= cuts.size()) continue;
    const std::uintmax_t next = cuts[k + 1];
    for (const std::uintmax_t cut :
         {cuts[k] + 3, cuts[k] + 9, next - 1}) {
      if (cut <= cuts[k] || cut >= next) continue;
      copy_dir(base, crash);
      fs::resize_file(crash / "wal.log", cut);
      store::WalStore recovered(wal_config(crash.string()));
      EXPECT_EQ(recovered.stats().recovered_records, k) << "cut " << cut;
      EXPECT_EQ(recovered.stats().torn_tail_bytes, cut - cuts[k]);
      ASSERT_EQ(recovered.size(), models[k].size()) << "cut " << cut;
      for (const auto& [key, value] : models[k])
        EXPECT_EQ(recovered.get(key), value) << "cut " << cut;
      // Recovery truncated the tail: a reopen sees a clean log.
      store::WalStore again(wal_config(crash.string()));
      EXPECT_EQ(again.stats().torn_tail_bytes, 0u);
      EXPECT_EQ(again.stats().recovered_records, k);
    }
  }
}

// Snapshots interleaved with the schedule: crash (copy) at each durable
// point after a compact and verify snapshot + WAL-suffix replay composes
// to the model.
TEST(WalStoreDifferentialTest, SnapshotPlusSuffixReplayMatchesModel) {
  TempDir dir;
  const fs::path base = fs::path(dir.str()) / "base";
  std::mt19937 rng(99);
  std::map<std::string, Bytes> model;
  std::vector<std::map<std::string, Bytes>> checkpoints;
  std::vector<fs::path> copies;
  {
    store::WalStore store(wal_config(base.string()));
    for (int i = 0; i < 200; ++i) {
      const std::string key = "k" + std::to_string(rng() % 9);
      if (rng() % 4 == 0) {
        store.erase(key);
        model.erase(key);
      } else {
        Bytes value(rng() % 30, static_cast<std::uint8_t>(i));
        store.put(key, value);
        model[key] = std::move(value);
      }
      if (i % 37 == 36) {
        store.flush();
        store.compact();
      }
      if (i % 23 == 22) {
        store.flush();
        const fs::path copy = fs::path(dir.str()) / ("cp" + std::to_string(i));
        copy_dir(base, copy);
        copies.push_back(copy);
        checkpoints.push_back(model);
      }
    }
  }
  ASSERT_GT(copies.size(), 4u);
  for (std::size_t i = 0; i < copies.size(); ++i) {
    store::WalStore recovered(wal_config(copies[i].string()));
    ASSERT_EQ(recovered.size(), checkpoints[i].size()) << "checkpoint " << i;
    for (const auto& [key, value] : checkpoints[i])
      EXPECT_EQ(recovered.get(key), value) << "checkpoint " << i;
  }
}

// ---------------------------------------------------------------------------
// Op-log records (app/op_log.hpp) over the WAL: whatever the crash point,
// recovery yields a snapshot plus op chain whose replay is a prefix of
// the history that was logged — never a gap, a foreign op or a reorder.

namespace {

/// The model object: its state is the list of op bodies applied so far,
/// and a snapshot encodes that list.
using Model = std::vector<Bytes>;

Bytes encode_model(const Model& model) {
  Encoder enc;
  enc.put_varint(model.size());
  for (const Bytes& body : model) enc.put_bytes(body);
  return std::move(enc).take();
}

/// Snapshot + op-chain replay of whatever load() finds.
Model replay(const runtime::StableStore& store) {
  const auto log = app::OpLog::load(store);
  EXPECT_TRUE(log.has_value());
  Model model;
  if (!log) return model;
  if (log->snapshot) {
    Decoder dec(*log->snapshot);
    const std::uint64_t n = dec.get_varint();
    for (std::uint64_t i = 0; i < n; ++i) model.push_back(dec.get_bytes());
  }
  EXPECT_EQ(model.size(), log->index);
  for (const app::LoggedOp& op : log->ops) model.push_back(op.body);
  return model;
}

app::LoggedOp model_op(std::uint64_t i, std::size_t bytes) {
  return app::LoggedOp{ProcessId{SiteId{1}, 1}, i,
                       Bytes(bytes, static_cast<std::uint8_t>(i))};
}

}  // namespace

// A torn tail inside an op record: the WAL drops the partial record, and
// the op chain ends at the op before it.
TEST(OpLogStoreTest, TornTailInsideAnOpRecordRecoversThePrefix) {
  TempDir dir;
  const fs::path base = fs::path(dir.str()) / "base";
  Model history;
  {
    store::WalStore store(wal_config(base.string()));
    app::OpLog log;
    log.attach(&store);
    for (std::uint64_t i = 1; i <= 6; ++i) {
      log.append(model_op(i, 40));
      history.push_back(model_op(i, 40).body);
      store.flush();
    }
  }
  const std::vector<std::uintmax_t> cuts = record_boundaries(base / "wal.log");
  ASSERT_EQ(cuts.size(), 7u);  // six op records
  const fs::path crash = fs::path(dir.str()) / "crash";
  for (const std::uintmax_t cut : {cuts[5] + 4, cuts[5] + 20, cuts[6] - 1}) {
    copy_dir(base, crash);
    fs::resize_file(crash / "wal.log", cut);
    store::WalStore recovered(wal_config(crash.string()));
    EXPECT_EQ(recovered.stats().torn_tail_bytes, cut - cuts[5]);
    const Model got = replay(recovered);
    EXPECT_EQ(got, Model(history.begin(), history.begin() + 5)) << "cut " << cut;
  }
}

// A crash between the snapshot write and the op truncation leaves the
// ops behind the snapshot in the store: recovery must skip them, not
// replay them twice. When the snapshot replaced the state (a settle
// installed another history), leftover ops beyond its index belong to the
// old history: the hash chain rejects them.
TEST(OpLogStoreTest, CrashBetweenSnapshotAndTruncationRecoversTheSnapshot) {
  TempDir dir;
  const fs::path base = fs::path(dir.str()) / "base";
  Model history;
  {
    store::WalStore store(wal_config(base.string()));
    app::OpLog log;
    log.attach(&store);
    for (std::uint64_t i = 1; i <= 4; ++i) {
      log.append(model_op(i, 30));
      history.push_back(model_op(i, 30).body);
    }
    store.flush();
    log.write_snapshot(encode_model(history));  // snapshot + erase-prefix
    store.flush();
  }
  std::vector<std::uintmax_t> cuts = record_boundaries(base / "wal.log");
  ASSERT_EQ(cuts.size(), 7u);  // 4 ops, the snapshot, the erase
  const fs::path crash = fs::path(dir.str()) / "crash";
  copy_dir(base, crash);
  fs::resize_file(crash / "wal.log", cuts[5]);  // snapshot in, erase lost
  {
    store::WalStore recovered(wal_config(crash.string()));
    EXPECT_TRUE(recovered.contains(app::OpLog::op_key(1)));
    EXPECT_EQ(replay(recovered), history);
  }

  // Replacement: a settle installs a shorter, different history (index 2)
  // over a log whose ops 3 and 4 then survive the lost erase.
  const fs::path replaced = fs::path(dir.str()) / "replaced";
  Model other = {Bytes(8, 0xEE), Bytes(8, 0xDD)};
  {
    store::WalStore store(wal_config(replaced.string()));
    app::OpLog log;
    log.attach(&store);
    for (std::uint64_t i = 1; i <= 4; ++i) log.append(model_op(i, 30));
    store.flush();
    log.reset(2, 0xABCDEFu);
    log.write_snapshot(encode_model(other));
    store.flush();
  }
  cuts = record_boundaries(replaced / "wal.log");
  ASSERT_EQ(cuts.size(), 7u);
  fs::resize_file(replaced / "wal.log", cuts[5]);
  store::WalStore recovered(wal_config(replaced.string()));
  EXPECT_TRUE(recovered.contains(app::OpLog::op_key(3)));
  EXPECT_EQ(replay(recovered), other);
}

// Crash at every record boundary (and torn mid-record) over an op log
// with snapshots, settles that replace the state, and varied batches: the
// recovered replay is exactly the history the records before the cut
// make durable — a prefix of the ops logged since the last replacement.
TEST(OpLogStoreTest, CrashAtEveryBoundaryRecoversAnOpPrefix) {
  TempDir dir;
  const fs::path base = fs::path(dir.str()) / "base";
  std::mt19937 rng(1717);
  // The history as recovery should see it after each logged record:
  // durable[k] = the model replayed from the first k records.
  std::vector<Model> durable = {{}};
  {
    store::WalStore store(wal_config(base.string()));
    app::OpLog log(app::OpLogConfig{0, 600});  // frequent snapshots
    log.attach(&store);
    Model model;
    std::size_t records = 0;
    const auto logged = [&](std::size_t wal_records, const Model& m) {
      while (records < wal_records) {
        durable.push_back(m);
        ++records;
      }
    };
    for (std::uint64_t i = 1; i <= 120; ++i) {
      if (rng() % 25 == 0) {
        // A settle replaces the state with another history's, cut at a
        // smaller index.
        model.resize(model.size() / 2);
        model.push_back(Bytes(5, static_cast<std::uint8_t>(i)));
        log.reset(model.size(), rng());
        log.write_snapshot(encode_model(model));
        // Snapshot then erase: the state is the new one from the
        // snapshot record on.
        durable.push_back(model);
        durable.push_back(model);
        records += 2;
      }
      const app::LoggedOp op = model_op(i, rng() % 60);
      log.append(op);
      model.push_back(op.body);
      durable.push_back(model);
      ++records;
      if (log.snapshot_due()) {
        log.write_snapshot(encode_model(model));
        logged(records + 2, model);
      }
      if (rng() % 4 == 0) store.flush();
    }
    store.flush();
    EXPECT_GT(log.stats().snapshots, 3u);
  }
  const std::vector<std::uintmax_t> cuts = record_boundaries(base / "wal.log");
  ASSERT_EQ(cuts.size(), durable.size());
  const fs::path crash = fs::path(dir.str()) / "crash";
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    copy_dir(base, crash);
    fs::resize_file(crash / "wal.log", cuts[k]);
    {
      store::WalStore recovered(wal_config(crash.string()));
      EXPECT_EQ(replay(recovered), durable[k]) << "boundary " << k;
    }
    if (k + 1 < cuts.size() && cuts[k + 1] - cuts[k] > 9) {
      copy_dir(base, crash);
      fs::resize_file(crash / "wal.log", cuts[k] + 9);
      store::WalStore recovered(wal_config(crash.string()));
      EXPECT_EQ(replay(recovered), durable[k]) << "torn after " << k;
    }
  }
}

}  // namespace
}  // namespace evs
