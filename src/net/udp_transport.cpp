#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "net/datagram.hpp"

namespace evs::net {

namespace {

sockaddr_in to_sockaddr(const PeerAddr& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip);
  sa.sin_port = htons(addr.port);
  return sa;
}

std::uint64_t addr_key(std::uint32_t ip_host_order, std::uint16_t port) {
  return (std::uint64_t{ip_host_order} << 16) | port;
}

void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

/// sendmmsg's vlen bound per invocation (the kernel clamps at UIO_MAXIOV).
constexpr std::size_t kMaxBatch = 1024;

}  // namespace

UdpTransport::UdpTransport(EventLoop& loop, NodeConfig config)
    : loop_(loop), config_(std::move(config)), coalesce_(config_.coalesce) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  EVS_CHECK_MSG(fd_ >= 0, "socket() failed");

  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in bind_addr = to_sockaddr(config_.self_addr());
  EVS_CHECK_MSG(
      ::bind(fd_, reinterpret_cast<sockaddr*>(&bind_addr), sizeof(bind_addr)) ==
          0,
      "bind(" + config_.self_addr().str() + ") failed: " + std::strerror(errno));

  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  EVS_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&actual), &len) == 0);
  bound_port_ = ntohs(actual.sin_port);

  // Self included: a datagram we send to ourselves loops back through the
  // socket and must pass source validation like any other peer's.
  for (const auto& [site, addr] : config_.peers)
    addr_to_site_.emplace(addr_key(addr.ip, addr.port), site);

  // Receive pool: buffers, iovecs and source-address slots are wired to
  // their mmsghdrs once; only msg_namelen/msg_flags reset per recvmmsg.
  recv_buffers_.resize(std::size_t{kRecvBatch} * kRecvBufSize);
  recv_msgs_.resize(kRecvBatch);
  recv_iovs_.resize(kRecvBatch);
  recv_srcs_.resize(kRecvBatch);
  for (unsigned k = 0; k < kRecvBatch; ++k) {
    recv_iovs_[k] = iovec{&recv_buffers_[std::size_t{k} * kRecvBufSize],
                          kRecvBufSize};
    msghdr& hdr = recv_msgs_[k].msg_hdr;
    hdr = msghdr{};
    hdr.msg_name = &recv_srcs_[k];
    hdr.msg_namelen = sizeof(sockaddr_in);
    hdr.msg_iov = &recv_iovs_[k];
    hdr.msg_iovlen = 1;
  }

  loop_.add_fd(fd_, [this]() { on_readable(); });
  flush_hook_ = loop_.add_flush_hook([this]() { flush(); });
}

UdpTransport::~UdpTransport() {
  flush();  // best effort: frames queued before teardown are not stranded
  loop_.remove_flush_hook(flush_hook_);
  if (fd_ >= 0) {
    loop_.remove_fd(fd_);
    ::close(fd_);
  }
}

void UdpTransport::set_drop_site(SiteId site, bool on) {
  if (on) {
    drop_sites_.insert(site);
  } else {
    drop_sites_.erase(site);
  }
}

void UdpTransport::set_deliver(GroupId group, DeliverFn fn) {
  if (fn) {
    deliver_[group] = std::move(fn);
  } else {
    deliver_.erase(group);
  }
}

void UdpTransport::clear_deliver(GroupId group) { deliver_.erase(group); }

void UdpTransport::enqueue(GroupId group, SiteId site,
                           std::uint32_t dest_incarnation,
                           SharedBytes payload) {
  if (drop_all_ || drop_sites_.contains(site)) {
    ++stats_.dropped_rule;
    return;
  }
  if (!config_.peers.contains(site)) {
    ++stats_.dropped_unknown_peer;
    return;
  }
  if (payload.size() > kMaxPayload) {
    ++stats_.dropped_oversize;
    // The leading byte is the gms channel: 2 Membership (a flush ACK),
    // 3 Data (an app Offer or Delta).
    EVS_WARN("udp: payload of " << payload.size()
                                << " bytes exceeds the datagram bound"
                                << " — dropped (group " << group
                                << ", channel " << int{payload.bytes()[0]}
                                << ", dest " << to_string(site) << ")");
    return;
  }
  pending_.push_back(PendingFrame{site, dest_incarnation, group,
                                  current_trace_, std::move(payload)});
}

void UdpTransport::send(ProcessId to, Bytes payload) {
  send(kDefaultGroup, to, std::move(payload));
}

void UdpTransport::send_to_site(SiteId site, Bytes payload) {
  send_to_site(kDefaultGroup, site, std::move(payload));
}

void UdpTransport::send_multi(const std::vector<ProcessId>& recipients,
                              SharedBytes payload) {
  send_multi(kDefaultGroup, recipients, std::move(payload));
}

void UdpTransport::send(GroupId group, ProcessId to, Bytes payload) {
  ++stats_.payload_copies;
  enqueue(group, to.site, to.incarnation, SharedBytes(std::move(payload)));
}

void UdpTransport::send_to_site(GroupId group, SiteId site, Bytes payload) {
  ++stats_.payload_copies;
  enqueue(group, site, /*dest_incarnation=*/0, SharedBytes(std::move(payload)));
}

void UdpTransport::send_multi(GroupId group,
                              const std::vector<ProcessId>& recipients,
                              SharedBytes payload) {
  // Encode-once fan-out: every recipient's queue entry refcounts the one
  // shared buffer; the flush scatter/gathers straight out of it.
  for (const ProcessId to : recipients) {
    ++stats_.payloads_shared;
    enqueue(group, to.site, to.incarnation, payload);
  }
}

void UdpTransport::flush() {
  if (pending_.empty()) return;

  // Group queued frames by (site, incarnation, group, trace) in
  // first-appearance order; per-destination FIFO order is what coalescing
  // and the receiver's split preserve end to end. Group id and trace
  // context live in the datagram header, so frames of different groups —
  // or of different traced requests — never share a coalesced datagram.
  flush_groups_.clear();
  flush_group_order_.clear();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const FlushKey key{pending_[i].site, pending_[i].dest_incarnation,
                       pending_[i].group, pending_[i].trace};
    auto [it, inserted] = flush_groups_.try_emplace(key);
    if (inserted) flush_group_order_.push_back(key);
    it->second.push_back(i);
  }

  // Header/prefix/destination arenas are sized up front from worst-case
  // bounds (one datagram and one prefix per frame), so pointers taken
  // into them below stay stable. iovecs are patched in afterwards.
  const std::size_t n = pending_.size();
  out_headers_.resize(n * kHeaderSize);
  out_prefixes_.resize(n * kSubFramePrefix);
  out_dests_.resize(n);
  out_msgs_.clear();
  out_iov_first_.clear();
  out_iovs_.clear();
  out_frame_counts_.clear();
  out_sizes_.clear();
  out_groups_.clear();
  out_payload_bytes_.clear();

  for (const FlushKey& key : flush_group_order_) {
    const std::vector<std::size_t>& frames = flush_groups_[key];
    const auto peer = config_.peers.find(key.site);
    if (peer == config_.peers.end()) continue;  // guarded at enqueue
    const sockaddr_in dest = to_sockaddr(peer->second);

    std::size_t i = 0;
    while (i < frames.size()) {
      // Greedy pack: as many following frames for this destination as fit
      // under kMaxPayload (with their length prefixes) and the frame cap.
      std::size_t count = 1;
      if (coalesce_) {
        std::size_t wire =
            kSubFramePrefix + pending_[frames[i]].payload.size();
        while (i + count < frames.size() && count < kMaxFramesPerDatagram) {
          const std::size_t next =
              kSubFramePrefix + pending_[frames[i + count]].payload.size();
          if (wire + next > kMaxPayload) break;
          wire += next;
          ++count;
        }
      }

      const std::size_t d = out_msgs_.size();
      std::uint8_t* header = &out_headers_[d * kHeaderSize];
      encode_header(DatagramHeader{self(), key.incarnation, key.group,
                                   key.trace, /*coalesced=*/count > 1},
                    header);
      out_dests_[d] = dest;

      const std::size_t iov_first = out_iovs_.size();
      out_iovs_.push_back(iovec{header, kHeaderSize});
      std::size_t dgram_bytes = kHeaderSize;
      std::size_t payload_bytes = 0;
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t frame = frames[i + k];
        const Bytes& bytes = pending_[frame].payload.bytes();
        if (count > 1) {
          std::uint8_t* prefix = &out_prefixes_[frame * kSubFramePrefix];
          put_u32_le(prefix, static_cast<std::uint32_t>(bytes.size()));
          out_iovs_.push_back(iovec{prefix, kSubFramePrefix});
          dgram_bytes += kSubFramePrefix;
        }
        out_iovs_.push_back(
            iovec{const_cast<std::uint8_t*>(bytes.data()), bytes.size()});
        dgram_bytes += bytes.size();
        payload_bytes += bytes.size();
      }

      mmsghdr msg{};
      msg.msg_hdr.msg_name = &out_dests_[d];
      msg.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msg.msg_hdr.msg_iovlen = out_iovs_.size() - iov_first;
      out_msgs_.push_back(msg);
      out_iov_first_.push_back(iov_first);
      out_frame_counts_.push_back(static_cast<std::uint32_t>(count));
      out_sizes_.push_back(dgram_bytes);
      out_groups_.push_back(key.group);
      out_payload_bytes_.push_back(payload_bytes);
      i += count;
    }
  }

  // All iovecs exist now; point each message at its range.
  for (std::size_t d = 0; d < out_msgs_.size(); ++d)
    out_msgs_[d].msg_hdr.msg_iov = &out_iovs_[out_iov_first_[d]];

  std::size_t base = 0;
  while (base < out_msgs_.size()) {
    const auto vlen = static_cast<unsigned>(
        std::min(out_msgs_.size() - base, kMaxBatch));
    ++stats_.sendmsg_calls;
    const int sent = ::sendmmsg(fd_, &out_msgs_[base], vlen, 0);
    if (sent <= 0) {
      // A full socket buffer or transient network error is loss for the
      // datagram at the head of the batch — the substrate assumes lossy
      // links — and the rest of the batch still gets its chance.
      ++stats_.send_errors;
      ++base;
      continue;
    }
    for (int k = 0; k < sent; ++k) {
      const std::size_t d = base + static_cast<std::size_t>(k);
      ++stats_.datagrams_sent;
      stats_.bytes_sent += out_sizes_[d];
      stats_.frames_sent += out_frame_counts_[d];
      if (out_frame_counts_[d] > 1) ++stats_.datagrams_coalesced;
      GroupWireStats& gs = group_stats_[out_groups_[d]];
      gs.frames_sent += out_frame_counts_[d];
      gs.frame_bytes_sent += out_payload_bytes_[d];
    }
    base += static_cast<std::size_t>(sent);
  }

  pending_.clear();
}

void UdpTransport::on_readable() {
  for (;;) {
    for (unsigned k = 0; k < kRecvBatch; ++k) {
      recv_msgs_[k].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      recv_msgs_[k].msg_hdr.msg_flags = 0;
    }
    ++stats_.recvmsg_calls;
    const int got = ::recvmmsg(fd_, recv_msgs_.data(), kRecvBatch, 0, nullptr);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      ++stats_.recv_errors;  // unexpected socket error; keep serving
      return;
    }
    for (int k = 0; k < got; ++k) {
      handle_datagram(recv_srcs_[k],
                      &recv_buffers_[std::size_t{static_cast<unsigned>(k)} *
                                     kRecvBufSize],
                      recv_msgs_[k].msg_len, recv_msgs_[k].msg_hdr.msg_flags);
    }
    // A short batch means the queue is drained; if a datagram lands right
    // after, level-triggered epoll fires this handler again.
    if (got < static_cast<int>(kRecvBatch)) return;
  }
}

void UdpTransport::handle_datagram(const sockaddr_in& src,
                                   const std::uint8_t* data, std::size_t n,
                                   int flags) {
  stats_.bytes_received += n;

  if ((flags & MSG_TRUNC) != 0) {
    ++stats_.dropped_truncated;
    return;
  }
  // Source validation first: traffic from an address outside the peer
  // book is dropped before we even look at its bytes.
  const auto site_it = addr_to_site_.find(
      addr_key(ntohl(src.sin_addr.s_addr), ntohs(src.sin_port)));
  if (site_it == addr_to_site_.end()) {
    ++stats_.dropped_unknown_peer;
    return;
  }
  const auto header = parse_header(data, n);
  if (!header) {
    ++stats_.dropped_malformed;
    return;
  }
  // The claimed site must be the one the book maps the source address
  // to — a spoofed site id is malformed traffic.
  if (site_it->second != header->from.site) {
    ++stats_.dropped_malformed;
    return;
  }
  if (drop_all_ || drop_sites_.contains(header->from.site)) {
    ++stats_.dropped_rule;
    return;
  }
  // Incarnation addressing: datagrams for a previous incarnation of
  // this site die here, matching sim::Network's dropped_dead.
  if (header->dest_incarnation != 0 &&
      header->dest_incarnation != config_.incarnation) {
    ++stats_.dropped_stale_incarnation;
    return;
  }
  // Group demux: a datagram for a group this process does not host (a
  // torn-down instance, or a misconfigured peer) dies here, loudly
  // countable, before any frame is surfaced.
  const auto sink = deliver_.find(header->group);
  if (sink == deliver_.end()) {
    ++stats_.dropped_unknown_group;
    return;
  }
  GroupWireStats& gs = group_stats_[header->group];
  if (!header->coalesced) {
    ++stats_.datagrams_received;
    ++stats_.frames_received;
    ++gs.frames_received;
    gs.frame_bytes_received += n - kHeaderSize;
    const Bytes payload(data + kHeaderSize, data + n);
    sink->second(header->from, payload);
    return;
  }
  // Coalesced: validate the entire payload before delivering any frame —
  // one bad sub-frame length rejects the whole datagram.
  if (!split_subframes(data + kHeaderSize, n - kHeaderSize,
                       subframe_scratch_)) {
    ++stats_.dropped_malformed;
    return;
  }
  ++stats_.datagrams_received;
  stats_.frames_received += subframe_scratch_.size();
  gs.frames_received += subframe_scratch_.size();
  for (const auto& [offset, length] : subframe_scratch_) {
    gs.frame_bytes_received += length;
    const std::uint8_t* frame = data + kHeaderSize + offset;
    const Bytes payload(frame, frame + length);
    // Re-resolve per frame: a delivery may unhost its own group
    // (clear_deliver from inside the callback), invalidating `sink`.
    const auto s = deliver_.find(header->group);
    if (s == deliver_.end()) break;
    s->second(header->from, payload);
  }
}

GroupWireStats UdpTransport::group_stats(GroupId group) const {
  const auto it = group_stats_.find(group);
  return it == group_stats_.end() ? GroupWireStats{} : it->second;
}

void UdpTransport::export_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.counter(prefix + ".datagrams_sent").set(stats_.datagrams_sent);
  registry.counter(prefix + ".datagrams_received")
      .set(stats_.datagrams_received);
  registry.counter(prefix + ".bytes_sent").set(stats_.bytes_sent);
  registry.counter(prefix + ".bytes_received").set(stats_.bytes_received);
  registry.counter(prefix + ".frames_sent").set(stats_.frames_sent);
  registry.counter(prefix + ".frames_received").set(stats_.frames_received);
  registry.counter(prefix + ".datagrams_coalesced")
      .set(stats_.datagrams_coalesced);
  registry.counter(prefix + ".syscalls.sendmsg_calls")
      .set(stats_.sendmsg_calls);
  registry.counter(prefix + ".syscalls.recvmsg_calls")
      .set(stats_.recvmsg_calls);
  registry.counter(prefix + ".payload_copies").set(stats_.payload_copies);
  registry.counter(prefix + ".payloads_shared").set(stats_.payloads_shared);
  registry.counter(prefix + ".dropped_malformed").set(stats_.dropped_malformed);
  registry.counter(prefix + ".dropped_truncated").set(stats_.dropped_truncated);
  registry.counter(prefix + ".dropped_unknown_peer")
      .set(stats_.dropped_unknown_peer);
  registry.counter(prefix + ".dropped_stale_incarnation")
      .set(stats_.dropped_stale_incarnation);
  registry.counter(prefix + ".dropped_rule").set(stats_.dropped_rule);
  registry.counter(prefix + ".dropped_oversize").set(stats_.dropped_oversize);
  registry.counter(prefix + ".dropped_unknown_group")
      .set(stats_.dropped_unknown_group);
  registry.counter(prefix + ".send_errors").set(stats_.send_errors);
  registry.counter(prefix + ".recv_errors").set(stats_.recv_errors);
  registry.gauge(prefix + ".frames_per_datagram")
      .set(stats_.datagrams_sent == 0
               ? 0.0
               : static_cast<double>(stats_.frames_sent) /
                     static_cast<double>(stats_.datagrams_sent));
  // Per-group traffic slices, only once more than the default group has
  // traffic — single-group runs keep their flat metric namespace.
  if (group_stats_.size() > 1 ||
      (group_stats_.size() == 1 &&
       group_stats_.begin()->first != kDefaultGroup)) {
    for (const auto& [group, gs] : group_stats_) {
      const std::string g = prefix + ".group" + std::to_string(group);
      registry.counter(g + ".frames_sent").set(gs.frames_sent);
      registry.counter(g + ".frames_received").set(gs.frames_received);
      registry.counter(g + ".frame_bytes_sent").set(gs.frame_bytes_sent);
      registry.counter(g + ".frame_bytes_received")
          .set(gs.frame_bytes_received);
    }
  }
}

}  // namespace evs::net
