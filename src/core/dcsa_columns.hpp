// gcs::core -- DcsaColumns: Algorithm 2 as struct-of-arrays.
//
// The default NodeStore.  Node state lives in flat columns (one offset,
// one fast-mode flag per node); per-edge estimates live beside each
// half-edge in the simulator's Adjacency (adjacency.hpp).  The store
// keeps no membership books: the simulator inserts and erases
// half-edges, fresh estimates included, so edge_up/edge_down are no-ops
// here, and each delivery arrives with its receiver slot
// (StoreDelivery::slot).  A step folds the receiver's whole segment, in
// insertion order -- valid because DcsaKernel's folds and the one-slot
// adopt are order independent, so trajectories stay byte-identical to
// DcsaNode behind AutomatonStore (the equivalence matrix proves it) for
// every Variant (the weighted variant's weight is uniform).
#ifndef GCS_CORE_DCSA_COLUMNS_HPP
#define GCS_CORE_DCSA_COLUMNS_HPP

#include <cstdint>
#include <vector>

#include "core/adjacency.hpp"
#include "core/bfunc.hpp"
#include "core/dcsa_kernel.hpp"
#include "core/node_store.hpp"
#include "core/params.hpp"

namespace gcs::core {

class DcsaColumns : public NodeStore {
 public:
  // `adjacency` (not owned) must outlive the store and cover its nodes.
  DcsaColumns(const SyncParams& params, Adjacency& adjacency,
              Variant variant = Variant{});

  std::size_t size() const override { return offset_.size(); }
  void start(const NodeContext& ctx) override;
  void edge_up(const NodeContext&, NodeId) override {}
  void edge_down(const NodeContext&, NodeId) override {}
  void on_deliveries(const StoreDelivery* batch, std::size_t count,
                     DeliverySink& sink) override;
  void advance(const double* hw_now, double* logical,
               std::size_t count) const override;
  double logical_clock(NodeId u, double hw_now) const override {
    return hw_now + offset_[u];
  }
  bool fast_mode(NodeId u) const override { return fast_[u] != 0; }
  // The per-node columns plus the whole adjacency arena.
  std::size_t arena_bytes() const override;

 private:
  DcsaKernel kernel_;
  Adjacency& adj_;

  // Per-node columns.
  std::vector<double> offset_;
  std::vector<std::uint8_t> fast_;
};

}  // namespace gcs::core

#endif  // GCS_CORE_DCSA_COLUMNS_HPP
