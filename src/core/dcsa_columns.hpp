// gcs::core -- DcsaColumns: Algorithm 2 as struct-of-arrays.
//
// The default NodeStore.  Node state lives in flat columns (one offset,
// one fast-mode flag per node); per-edge estimate state lives in a
// single slot arena carved into per-node segments, CSR-style: node u's
// peers occupy slots [head_[u], head_[u] + count_[u]) of the parallel
// columns {peer, hw_up, has_estimate, value, hw_recv}.  Segments grow
// by relocation to the arena tail (amortized doubling) and the arena
// compacts when abandoned holes pile up past a quarter of it, so a
// million-node churn run costs a handful of contiguous allocations
// instead of a million std::map instances.
//
// Peer lookup is a linear scan of the segment: DCSA degree is bounded
// in every scaling workload (ring backbones plus volatile edges), and
// for single-digit degrees the scan beats any hash on both time and
// memory.  Segment order is insertion order, NOT peer order -- valid
// because DcsaKernel's folds and on_message's single-slot update are
// iteration-order independent, so trajectories stay byte-identical to
// DcsaNode behind AutomatonStore (the equivalence matrix proves it).
//
// The arithmetic is DcsaKernel's, the code DcsaNode runs, so every
// Variant runs here (the weighted variant's weight is uniform).
#ifndef GCS_CORE_DCSA_COLUMNS_HPP
#define GCS_CORE_DCSA_COLUMNS_HPP

#include <cstdint>
#include <vector>

#include "core/bfunc.hpp"
#include "core/dcsa_kernel.hpp"
#include "core/node_store.hpp"
#include "core/params.hpp"

namespace gcs::core {

class DcsaColumns : public NodeStore {
 public:
  DcsaColumns(const SyncParams& params, std::size_t n,
              Variant variant = Variant{});

  std::size_t size() const override { return offset_.size(); }
  void start(const NodeContext& ctx) override;
  void edge_up(const NodeContext& ctx, NodeId peer) override;
  void edge_down(const NodeContext& ctx, NodeId peer) override;
  void on_deliveries(const StoreDelivery* batch, std::size_t count,
                     DeliverySink& sink) override;
  void advance(const double* hw_now, double* logical,
               std::size_t count) const override;
  double logical_clock(NodeId u, double hw_now) const override {
    return hw_now + offset_[u];
  }
  bool fast_mode(NodeId u) const override { return fast_[u] != 0; }
  std::size_t arena_bytes() const override;

  // Live peer-slot count across all segments (tests/diagnostics).
  std::size_t live_slots() const { return live_slots_; }

 private:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInitialCap = 4;

  // Absolute slot of (u, peer), or kNpos.
  std::uint32_t find_slot(NodeId u, NodeId peer) const;
  // Ensure u's segment has room for one more slot (relocate/grow).
  void reserve_slot(NodeId u);
  void maybe_compact();
  // Applies f to each parallel column of the slot arena.
  template <class F>
  void each_column(const F& f) {
    f(slot_peer_);
    f(slot_hw_up_);
    f(slot_has_est_);
    f(slot_value_);
    f(slot_hw_recv_);
  }

  PeerSlot slot(std::uint32_t s) const {
    return PeerSlot{slot_hw_up_[s], slot_has_est_[s] != 0, slot_value_[s],
                    slot_hw_recv_[s], kernel_.variant().weight};
  }

  DcsaKernel kernel_;

  // Per-node columns.
  std::vector<double> offset_;
  std::vector<std::uint8_t> fast_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> cap_;

  // The peer-slot arena (parallel columns).
  std::vector<NodeId> slot_peer_;
  std::vector<double> slot_hw_up_;
  std::vector<std::uint8_t> slot_has_est_;
  std::vector<double> slot_value_;
  std::vector<double> slot_hw_recv_;

  std::size_t live_slots_ = 0;  // sum of count_
  std::size_t hole_slots_ = 0;  // abandoned by relocation
};

}  // namespace gcs::core

#endif  // GCS_CORE_DCSA_COLUMNS_HPP
