// SUBSTRATE — view-synchronous multicast cost under the three orderings
// (Section 2 notes view synchrony imposes no order; FIFO is what the bare
// endpoint gives, causal is order::CausalLayer on top, and total order is
// EvsEndpoint's forward+stamp sequencer — what EVS's P6.1/P6.2 cost).
//
// A stable group of n members exchanges a fixed number of multicasts; we
// report, per configuration:
//   - simulated mean delivery latency (multicast -> delivered at all),
//   - physical messages the network carried per application multicast,
//   - ordering-metadata overhead bytes per multicast (causal only: the one
//     layer that reports it),
//   - frame encodes per multicast (encode-once fan-out: ~1, not n-1),
//   - payload buffers shared vs copied on the wire path.
// Expected shape: FIFO ~ cheapest (n-1 messages, no metadata); causal adds
// a vector-clock per message (O(n) bytes); total doubles the message count
// (forward + sequencer stamp) and centralises load at the sequencer.
// wire_bytes_per_mc must match the pre-optimization baseline exactly:
// sharing one encoded buffer across recipients must not change what the
// wire carries.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "evs/endpoint.hpp"
#include "obs/dump.hpp"
#include "order/layers.hpp"
#include "sim/world.hpp"

namespace evs::bench {
namespace {

class CountingDelegate : public vsync::Delegate, public core::EvsDelegate {
 public:
  void on_view(const gms::View&, const vsync::InstallInfo&) override {}
  void on_deliver(ProcessId, const Bytes&) override { ++delivered; }
  void on_eview(const core::EView&) override {}
  void on_app_deliver(ProcessId, const Bytes&) override { ++delivered; }
  std::uint64_t delivered = 0;
};

// One group member per ordering: spawns its stack at `site` and exposes
// the endpoint, the send call and, where a layer reports one, its stats.
struct FifoMember {
  FifoMember(sim::World& world, SiteId site, const vsync::EndpointConfig& cfg)
      : endpoint(world.spawn<vsync::Endpoint>(site, cfg)) {
    endpoint.set_delegate(&counter);
  }
  void multicast(Bytes payload) { endpoint.multicast(std::move(payload)); }

  vsync::Endpoint& endpoint;
  CountingDelegate counter;
};

struct CausalMember {
  CausalMember(sim::World& world, SiteId site, const vsync::EndpointConfig& cfg)
      : endpoint(world.spawn<vsync::Endpoint>(site, cfg)),
        layer(endpoint, counter) {}
  void multicast(Bytes payload) { layer.multicast(std::move(payload)); }
  const order::LayerStats& stats() const { return layer.stats(); }

  vsync::Endpoint& endpoint;
  CountingDelegate counter;
  order::CausalLayer layer;
};

struct TotalMember {
  TotalMember(sim::World& world, SiteId site, const vsync::EndpointConfig& cfg)
      : endpoint(world.spawn<core::EvsEndpoint>(site, cfg)) {
    endpoint.set_evs_delegate(&counter);
  }
  void multicast(Bytes payload) { endpoint.app_multicast(std::move(payload)); }

  core::EvsEndpoint& endpoint;
  CountingDelegate counter;
};

template <typename Member>
constexpr bool kReportsOverhead = requires(const Member& m) { m.stats(); };

template <typename Member>
void MulticastBench(benchmark::State& state, const char* tag) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr int kMessages = 200;

  double latency_ms = 0;
  double net_msgs_per_mc = 0;
  double overhead_per_mc = 0;
  double wire_bytes_per_mc = 0;
  double frames_per_mc = 0;
  double copies_per_mc = 0;
  double shared_per_mc = 0;
  std::uint64_t runs = 0;

  for (auto _ : state) {
    sim::World world(21000 + runs);
    const auto sites = world.add_sites(n);
    vsync::EndpointConfig cfg;
    cfg.universe = sites;

    std::vector<std::unique_ptr<Member>> members;
    std::vector<vsync::Endpoint*> eps;
    for (const SiteId site : sites) {
      members.push_back(std::make_unique<Member>(world, site, cfg));
      eps.push_back(&members.back()->endpoint);
    }
    // Group formation.
    for (int i = 0; i < 3000; ++i) {
      world.run_for(10 * kMillisecond);
      bool stable = true;
      for (auto* ep : eps)
        stable = stable && ep->view().size() == n && !ep->blocked();
      if (stable) break;
    }

    const sim::NetworkStats net_before = world.network().stats();
    std::uint64_t frames_before = 0;
    for (auto* ep : eps) frames_before += ep->stats().frames_encoded;
    const SimTime t0 = world.scheduler().now();
    for (int m = 0; m < kMessages; ++m) {
      members[static_cast<std::size_t>(m) % n]->multicast(
          to_bytes("payload-" + std::to_string(m)));
      world.run_for(2 * kMillisecond);
    }
    // Drain.
    const std::uint64_t want = static_cast<std::uint64_t>(kMessages) * n;
    for (int i = 0; i < 3000; ++i) {
      std::uint64_t got = 0;
      for (auto& member : members) got += member->counter.delivered;
      if (got >= want) break;
      world.run_for(10 * kMillisecond);
    }
    const SimTime t1 = world.scheduler().now();

    latency_ms += static_cast<double>(t1 - t0) / kMillisecond / kMessages;
    const sim::NetworkStats& net = world.network().stats();
    net_msgs_per_mc +=
        static_cast<double>(net.messages_sent - net_before.messages_sent) /
        kMessages;
    wire_bytes_per_mc +=
        static_cast<double>(net.bytes_sent - net_before.bytes_sent) / kMessages;
    copies_per_mc +=
        static_cast<double>(net.payload_copies - net_before.payload_copies) /
        kMessages;
    shared_per_mc +=
        static_cast<double>(net.payloads_shared - net_before.payloads_shared) /
        kMessages;
    std::uint64_t frames = 0;
    for (auto* ep : eps) frames += ep->stats().frames_encoded;
    frames_per_mc += static_cast<double>(frames - frames_before) / kMessages;
    if constexpr (kReportsOverhead<Member>) {
      double overhead = 0;
      for (auto& member : members)
        overhead += static_cast<double>(member->stats().overhead_bytes);
      overhead_per_mc += overhead / kMessages;
    }
    ++runs;

    if (!obs::trace_out_dir().empty()) {
      // Dump the last run's structured trace/metrics (recording is enabled
      // automatically by the World when EVS_TRACE_OUT is set; it never
      // perturbs the wire path, so the counters above are unaffected).
      world.network().export_metrics(world.metrics());
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::string prefix = "p" + std::to_string(i);
        members[i]->endpoint.export_metrics(world.metrics(), prefix);
        if constexpr (kReportsOverhead<Member>) {
          order::export_metrics(members[i]->stats(), world.metrics(),
                                prefix + ".order");
        }
      }
      world.dump_trace(std::string("substrate_") + tag + "_n" +
                       std::to_string(n));
    }
  }

  state.counters["sim_ms_per_mc"] = latency_ms / runs;
  state.counters["net_msgs_per_mc"] = net_msgs_per_mc / runs;
  if constexpr (kReportsOverhead<Member>)
    state.counters["overhead_bytes_per_mc"] = overhead_per_mc / runs;
  state.counters["wire_bytes_per_mc"] = wire_bytes_per_mc / runs;
  state.counters["frames_encoded_per_mc"] = frames_per_mc / runs;
  state.counters["payload_copies_per_mc"] = copies_per_mc / runs;
  state.counters["payloads_shared_per_mc"] = shared_per_mc / runs;
}

void FifoOrder(benchmark::State& state) {
  MulticastBench<FifoMember>(state, "fifo");
}
void CausalOrder(benchmark::State& state) {
  MulticastBench<CausalMember>(state, "causal");
}
void TotalOrder(benchmark::State& state) {
  MulticastBench<TotalMember>(state, "total");
}

BENCHMARK(FifoOrder)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(CausalOrder)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(TotalOrder)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace
}  // namespace evs::bench
