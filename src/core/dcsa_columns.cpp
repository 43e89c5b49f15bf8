#include "core/dcsa_columns.hpp"

#include <algorithm>
#include <type_traits>

namespace gcs::core {

DcsaColumns::DcsaColumns(const SyncParams& params, std::size_t n,
                         Variant variant)
    : kernel_(params, BFunction(params), variant) {
  offset_.assign(n, 0.0);
  fast_.assign(n, 0);
  head_.assign(n, 0);
  count_.assign(n, 0);
  cap_.assign(n, 0);
}

void DcsaColumns::start(const NodeContext& ctx) {
  offset_[ctx.self] = -ctx.hw_now;  // logical clock starts at 0
  fast_[ctx.self] = 0;
}

std::uint32_t DcsaColumns::find_slot(NodeId u, NodeId peer) const {
  const std::uint32_t head = head_[u];
  const std::uint32_t end = head + count_[u];
  for (std::uint32_t s = head; s < end; ++s) {
    if (slot_peer_[s] == peer) return s;
  }
  return kNpos;
}

void DcsaColumns::reserve_slot(NodeId u) {
  if (count_[u] < cap_[u]) return;
  // Relocate the segment to the arena tail with double the capacity; the
  // old region becomes a hole that compaction reclaims.
  const std::uint32_t old_head = head_[u];
  const std::uint32_t old_count = count_[u];
  const std::uint32_t new_cap = cap_[u] ? cap_[u] * 2 : kInitialCap;
  const std::uint32_t new_head = static_cast<std::uint32_t>(slot_peer_.size());
  each_column([&](auto& col) {
    col.resize(new_head + new_cap);
    std::copy_n(col.begin() + old_head, old_count, col.begin() + new_head);
  });
  hole_slots_ += cap_[u];
  head_[u] = new_head;
  cap_[u] = new_cap;
  maybe_compact();
}

void DcsaColumns::maybe_compact() {
  // Rebuild only when abandoned holes are worth reclaiming: at least a
  // quarter of the arena, and big enough in absolute terms to pay for
  // the rebuild.  The fraction must be < 1/2: doubling growth leaves a
  // relocated segment's full history (4+8+...+c/2 = c-4 holes) against
  // 2c-4 allocated slots, so holes approach but NEVER reach half the
  // arena -- a half threshold is unreachable dead code (a test pins
  // this by asserting compaction actually fires under churn).  Caps are
  // kept (they encode degree history), so a compaction never triggers
  // an immediate regrow.  Runs only from edge_up -- the simulator's
  // global context -- so no delivery can be scanning the arena
  // concurrently.
  if (hole_slots_ < 4096 || hole_slots_ * 4 < slot_peer_.size()) return;
  std::size_t packed = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) packed += cap_[u];
  // Segments are packed in node order, one column at a time.
  each_column([&](auto& col) {
    std::decay_t<decltype(col)> out(packed);
    std::uint32_t next = 0;
    for (std::size_t u = 0; u < cap_.size(); ++u) {
      std::copy_n(col.begin() + head_[u], count_[u], out.begin() + next);
      next += cap_[u];
    }
    col = std::move(out);
  });
  std::uint32_t next = 0;
  for (std::size_t u = 0; u < cap_.size(); ++u) {
    head_[u] = next;
    next += cap_[u];
  }
  hole_slots_ = 0;
}

void DcsaColumns::edge_up(const NodeContext& ctx, NodeId peer) {
  const NodeId u = ctx.self;
  std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) {
    reserve_slot(u);
    s = head_[u] + count_[u];
    ++count_[u];
    ++live_slots_;
    slot_peer_[s] = peer;
  }
  // Fresh edge state, exactly like DcsaNode's peers_[peer] = {hw, ...}.
  slot_hw_up_[s] = ctx.hw_now;
  slot_has_est_[s] = 0;
  slot_value_[s] = 0.0;
  slot_hw_recv_[s] = 0.0;
}

void DcsaColumns::edge_down(const NodeContext& ctx, NodeId peer) {
  const NodeId u = ctx.self;
  const std::uint32_t s = find_slot(u, peer);
  if (s == kNpos) return;
  // Swap-remove within the segment; segment order is free (see header).
  const std::uint32_t last = head_[u] + count_[u] - 1;
  each_column([&](auto& col) { col[s] = col[last]; });
  --count_[u];
  --live_slots_;
}

void DcsaColumns::on_deliveries(const StoreDelivery* batch, std::size_t count,
                                DeliverySink& sink) {
  for (std::size_t i = 0; i < count; ++i) {
    const StoreDelivery& d = batch[i];
    sink.before(d);
    const NodeId u = d.to;
    const std::uint32_t s = find_slot(u, d.from);
    if (s != kNpos && kernel_.adopts(slot(s), d.hw_now, d.value)) {
      slot_value_[s] = d.value;
      slot_hw_recv_[s] = d.hw_now;
      slot_has_est_[s] = 1;
    }
    const std::uint32_t head = head_[u];
    const std::uint32_t end = head + count_[u];
    bool fast = false;
    const double jump =
        kernel_.step(d.hw_now, offset_[u], fast, [&](const auto& f) {
          for (std::uint32_t k = head; k < end; ++k) f(slot(k));
        });
    fast_[u] = fast ? 1 : 0;
    sink.after(d, jump);
  }
}

void DcsaColumns::advance(const double* hw_now, double* logical,
                          std::size_t count) const {
  for (std::size_t i = 0; i < count; ++i) {
    logical[i] = hw_now[i] + offset_[i];
  }
}

std::size_t DcsaColumns::arena_bytes() const {
  const std::size_t per_node =
      sizeof(double) + sizeof(std::uint8_t) + 3 * sizeof(std::uint32_t);
  const std::size_t per_slot = sizeof(NodeId) + sizeof(std::uint8_t) +
                               3 * sizeof(double);
  return offset_.size() * per_node + slot_peer_.size() * per_slot;
}

}  // namespace gcs::core
