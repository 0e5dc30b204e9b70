// Causal ordering layer stacked on a vsync::Endpoint.
//
// View synchrony itself imposes no order on deliveries within a view
// (Section 2). The endpoint already delivers FIFO per sender; CausalLayer
// adds causal order via vector clocks piggybacked on payloads. Total order
// is EvsEndpoint's forward+stamp sequencer (src/evs/), which also orders
// e-view changes against application multicasts (P6.1, P6.2).
//
// The layer preserves the view-synchrony properties: its traffic rides on
// the endpoint's multicast, so it participates in the flush. At a view
// change it deterministically drains whatever it still holds — Agreement
// guarantees every survivor holds the same set, so the drained delivery
// order is identical everywhere.
#pragma once

#include <cstdint>
#include <vector>

#include "order/vector_clock.hpp"
#include "vsync/endpoint.hpp"

namespace evs::order {

struct LayerStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reordered = 0;       // held back before delivery
  std::uint64_t drained_at_view = 0; // force-delivered at a view change
  std::uint64_t overhead_bytes = 0;  // ordering metadata on the wire
};

/// Projects a layer's stats into `registry` as counters under `prefix`.
void export_metrics(const LayerStats& stats, obs::MetricsRegistry& registry,
                    const std::string& prefix);

class CausalLayer : public vsync::Delegate {
 public:
  /// Registers itself as `endpoint`'s delegate and passes views, blocks,
  /// flush contexts and causally ordered deliveries up to `up`.
  CausalLayer(vsync::Endpoint& endpoint, vsync::Delegate& up);

  void multicast(Bytes payload);
  const LayerStats& stats() const { return stats_; }

  void on_view(const gms::View& view, const vsync::InstallInfo& info) override;
  void on_deliver(ProcessId sender, const Bytes& payload) override;
  void on_block() override;
  Bytes flush_context() override;

 private:
  struct Held {
    ProcessId sender;
    VectorClock vc;
    Bytes payload;
  };

  void drain_ready();
  void deliver(const Held& held);

  vsync::Endpoint& endpoint_;
  vsync::Delegate& up_;
  VectorClock delivered_;  // per current view
  std::vector<Held> held_;
  LayerStats stats_;
};

}  // namespace evs::order
