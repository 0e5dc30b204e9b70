#include "store/wal_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "codec/codec.hpp"

namespace evs::store {
namespace {

constexpr std::uint8_t kRecordPut = 1;
constexpr std::uint8_t kRecordErase = 2;
constexpr std::uint8_t kRecordErasePrefix = 3;
// "EVS1" little-endian; guards against pointing the store at a foreign file.
constexpr std::uint32_t kSnapshotMagic = 0x31535645u;
// A record body can never legitimately approach this; recovery treats a
// larger length prefix as corruption instead of attempting the read.
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

void put_u32_le(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

// Sliced by 8: tables[k][b] is the CRC of byte b followed by k zero
// bytes, so one step folds eight input bytes with eight lookups.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = crc ^ get_u32_le(data);
    const std::uint32_t hi = get_u32_le(data + 4);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
          tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
  }
  for (; n > 0; ++data, --n)
    crc = tables[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("WalStore: " + what + ": " + std::strerror(errno));
}

void write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, p, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    p += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

}  // namespace

WalStore::WalStore(WalStoreConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) throw std::runtime_error("WalStore: empty dir");
  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST)
    fail("mkdir " + config_.dir);
  wal_path_ = config_.dir + "/wal.log";
  snapshot_path_ = config_.dir + "/snapshot.db";
  dir_fd_ = ::open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd_ < 0) fail("open " + config_.dir);
  load_snapshot();
  wal_fd_ = ::open(wal_path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (wal_fd_ < 0) fail("open " + wal_path_);
  replay_wal();
}

WalStore::~WalStore() {
  // Best-effort durability for whatever the host buffered after its last
  // flush hook; a destructor must not throw past a failing disk.
  try {
    flush();
  } catch (const std::exception&) {
  }
  if (wal_fd_ >= 0) ::close(wal_fd_);
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

void WalStore::put(const std::string& key, Bytes value) {
  Encoder body;
  body.reserve(1 + key.size() + value.size() + 10);
  body.put_u8(kRecordPut);
  body.put_string(key);
  body.put_bytes(value);
  append_record(std::move(body).take());
  ++stats_.puts;
  entries_[key] = std::move(value);
}

std::optional<Bytes> WalStore::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void WalStore::erase(const std::string& key) {
  // Erasing an absent key is a no-op both in the image and on disk — the
  // replay would be identical either way, so don't grow the log for it.
  if (entries_.erase(key) == 0) return;
  Encoder body;
  body.put_u8(kRecordErase);
  body.put_string(key);
  append_record(std::move(body).take());
  ++stats_.erases;
}

bool WalStore::contains(const std::string& key) const {
  return entries_.contains(key);
}

void WalStore::erase_prefix(const std::string& prefix) {
  // Like erase(): a prefix matching nothing logs nothing.
  if (runtime::erase_prefix_in(entries_, prefix) == 0) return;
  Encoder body;
  body.put_u8(kRecordErasePrefix);
  body.put_string(prefix);
  append_record(std::move(body).take());
  ++stats_.prefix_erases;
}

void WalStore::append_record(Bytes body) {
  put_u32_le(pending_, static_cast<std::uint32_t>(body.size()));
  put_u32_le(pending_, crc32(body.data(), body.size()));
  pending_.insert(pending_.end(), body.begin(), body.end());
  ++pending_records_;
}

void WalStore::flush() {
  if (pending_.empty()) return;
  const auto start = std::chrono::steady_clock::now();
  write_all(wal_fd_, pending_.data(), pending_.size());
  if (config_.sync) {
    if (::fdatasync(wal_fd_) != 0) fail("fdatasync");
    ++stats_.fsync_calls;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  sync_us_.record(static_cast<double>(elapsed.count()) / 1000.0);
  batch_records_.record(static_cast<double>(pending_records_));
  ++stats_.flushes;
  stats_.wal_records += pending_records_;
  stats_.wal_bytes += pending_.size();
  wal_size_ += pending_.size();
  pending_.clear();
  pending_records_ = 0;
  if (config_.snapshot_after_bytes != 0 &&
      wal_size_ > config_.snapshot_after_bytes)
    compact();
}

void WalStore::compact() {
  // Pending records need no separate sync: their effects are already in
  // the image the snapshot serialises, and the snapshot supersedes the
  // whole log.
  write_snapshot();
  if (::ftruncate(wal_fd_, 0) != 0) fail("ftruncate " + wal_path_);
  if (config_.sync) {
    if (::fdatasync(wal_fd_) != 0) fail("fdatasync");
    ++stats_.fsync_calls;
  }
  wal_size_ = 0;
  pending_.clear();
  pending_records_ = 0;
}

std::size_t WalStore::bytes() const {
  std::size_t total = 0;
  for (const auto& [key, value] : entries_) total += value.size();
  return total;
}

void WalStore::write_snapshot() {
  Encoder payload;
  payload.put_varint(entries_.size());
  for (const auto& [key, value] : entries_) {
    payload.put_string(key);
    payload.put_bytes(value);
  }
  Bytes file;
  file.reserve(8 + payload.size());
  put_u32_le(file, kSnapshotMagic);
  put_u32_le(file, crc32(payload.buffer().data(), payload.size()));
  file.insert(file.end(), payload.buffer().begin(), payload.buffer().end());

  // tmp-write -> fsync -> rename -> fsync(dir): the visible snapshot.db is
  // always a complete image, old or new, never a torn one.
  const std::string tmp = snapshot_path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("open " + tmp);
  try {
    write_all(fd, file.data(), file.size());
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (config_.sync && ::fsync(fd) != 0) {
    ::close(fd);
    fail("fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), snapshot_path_.c_str()) != 0)
    fail("rename " + tmp);
  if (config_.sync) {
    if (::fsync(dir_fd_) != 0) fail("fsync " + config_.dir);
    stats_.fsync_calls += 2;  // snapshot file + directory entry
  }
  ++stats_.snapshots;
  stats_.snapshot_bytes = file.size();
}

void WalStore::load_snapshot() {
  const int fd = ::open(snapshot_path_.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return;
    fail("open " + snapshot_path_);
  }
  Bytes file;
  struct stat st {};
  if (::fstat(fd, &st) == 0 && st.st_size > 0)
    file.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < file.size()) {
    const ssize_t got = ::read(fd, file.data() + off, file.size() - off);
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      fail("read " + snapshot_path_);
    }
    if (got == 0) break;
    off += static_cast<std::size_t>(got);
  }
  ::close(fd);
  file.resize(off);

  // The rename discipline makes a torn snapshot impossible under the
  // crash model; a bad magic/CRC here means external corruption. Count it
  // and recover from whatever the WAL still holds rather than crash.
  if (file.size() < 8 || get_u32_le(file.data()) != kSnapshotMagic ||
      get_u32_le(file.data() + 4) != crc32(file.data() + 8, file.size() - 8)) {
    ++stats_.snapshot_decode_errors;
    return;
  }
  try {
    Decoder dec(file.data() + 8, file.size() - 8);
    const std::uint64_t count = dec.get_varint();
    std::map<std::string, Bytes> image;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string key = dec.get_string();
      image[std::move(key)] = dec.get_bytes();
    }
    dec.expect_end();
    entries_ = std::move(image);
  } catch (const DecodeError&) {
    entries_.clear();
    ++stats_.snapshot_decode_errors;
    return;
  }
  stats_.recovered_snapshot_keys = entries_.size();
  stats_.snapshot_bytes = file.size();
}

void WalStore::replay_wal() {
  struct stat st {};
  if (::fstat(wal_fd_, &st) != 0) fail("fstat " + wal_path_);
  Bytes log(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < log.size()) {
    const ssize_t got =
        ::pread(wal_fd_, log.data() + off, log.size() - off,
                static_cast<off_t>(off));
    if (got < 0) {
      if (errno == EINTR) continue;
      fail("read " + wal_path_);
    }
    if (got == 0) break;
    off += static_cast<std::size_t>(got);
  }
  log.resize(off);

  // Replay until the first short, CRC-failing or undecodable record: a
  // crash mid-append leaves exactly such a torn tail, and everything
  // before it is intact by the append-only discipline.
  std::size_t pos = 0;
  while (pos + 8 <= log.size()) {
    const std::uint32_t len = get_u32_le(log.data() + pos);
    const std::uint32_t crc = get_u32_le(log.data() + pos + 4);
    if (len > kMaxRecordBytes || pos + 8 + len > log.size()) break;
    const std::uint8_t* body = log.data() + pos + 8;
    if (crc32(body, len) != crc) break;
    try {
      Decoder dec(body, len);
      const std::uint8_t kind = dec.get_u8();
      std::string key = dec.get_string();
      if (kind == kRecordPut) {
        Bytes value = dec.get_bytes();
        dec.expect_end();
        entries_[std::move(key)] = std::move(value);
      } else if (kind == kRecordErase) {
        dec.expect_end();
        entries_.erase(key);
      } else if (kind == kRecordErasePrefix) {
        dec.expect_end();
        runtime::erase_prefix_in(entries_, key);
      } else {
        break;
      }
    } catch (const DecodeError&) {
      break;
    }
    pos += 8 + len;
    ++stats_.recovered_records;
  }
  if (pos < log.size()) {
    // Truncate back to the last good boundary so future appends extend a
    // clean log instead of burying garbage mid-file.
    stats_.torn_tail_bytes = log.size() - pos;
    if (::ftruncate(wal_fd_, static_cast<off_t>(pos)) != 0)
      fail("ftruncate " + wal_path_);
    if (config_.sync && ::fdatasync(wal_fd_) != 0) fail("fdatasync");
  }
  wal_size_ = pos;
}

void WalStore::export_metrics(obs::MetricsRegistry& registry,
                              const std::string& prefix) const {
  registry.counter(prefix + ".puts").set(stats_.puts);
  registry.counter(prefix + ".erases").set(stats_.erases);
  registry.counter(prefix + ".prefix_erases").set(stats_.prefix_erases);
  registry.counter(prefix + ".flushes").set(stats_.flushes);
  registry.counter(prefix + ".fsync_calls").set(stats_.fsync_calls);
  registry.counter(prefix + ".wal_records").set(stats_.wal_records);
  registry.counter(prefix + ".wal_bytes").set(stats_.wal_bytes);
  registry.counter(prefix + ".snapshots").set(stats_.snapshots);
  registry.counter(prefix + ".snapshot_bytes").set(stats_.snapshot_bytes);
  registry.counter(prefix + ".recovered_records").set(stats_.recovered_records);
  registry.counter(prefix + ".recovered_snapshot_keys")
      .set(stats_.recovered_snapshot_keys);
  registry.counter(prefix + ".torn_tail_bytes").set(stats_.torn_tail_bytes);
  registry.counter(prefix + ".snapshot_decode_errors")
      .set(stats_.snapshot_decode_errors);
  registry.counter(prefix + ".keys").set(entries_.size());
  registry.counter(prefix + ".bytes").set(bytes());
  registry.counter(prefix + ".pending_records").set(pending_records_);
  registry.counter(prefix + ".wal_size_bytes").set(wal_size_);
  registry.histogram(prefix + ".sync_us") = sync_us_;
  registry.histogram(prefix + ".batch_records") = batch_records_;
}

}  // namespace evs::store
