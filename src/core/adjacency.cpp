#include "core/adjacency.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace gcs::core {

void Adjacency::insert(NodeId u, NodeId peer, std::uint64_t incarnation,
                       double up_time, double hw_up) {
  reserve_slot(u);
  const std::uint32_t s = end(u);
  ++count_[u];
  ++live_slots_;
  peer_[s] = peer;
  incarnation_[s] = incarnation;
  up_time_[s] = up_time;
  dir_[s] = net::LinkDir{};
  hw_up_[s] = hw_up;
  has_est_[s] = 0;
  value_[s] = 0.0;
  hw_recv_[s] = 0.0;
}

void Adjacency::erase(NodeId u, std::uint32_t s) {
  const std::uint32_t last = end(u);
  each_column([&](auto& col) {
    std::copy(col.begin() + s + 1, col.begin() + last, col.begin() + s);
  });
  --count_[u];
  --live_slots_;
}

void Adjacency::reserve_slot(NodeId u) {
  if (count_[u] < cap_[u]) return;
  // Relocate the segment to the arena tail with double the capacity; the
  // old region becomes a hole that compaction reclaims.
  const std::uint32_t old_head = head_[u];
  const std::uint32_t old_count = count_[u];
  const std::uint32_t new_cap = cap_[u] ? cap_[u] * 2 : kInitialCap;
  const std::uint32_t new_head = static_cast<std::uint32_t>(peer_.size());
  each_column([&](auto& col) {
    col.resize(new_head + new_cap);
    std::copy_n(col.begin() + old_head, old_count, col.begin() + new_head);
  });
  hole_slots_ += cap_[u];
  head_[u] = new_head;
  cap_[u] = new_cap;
  maybe_compact();
}

void Adjacency::maybe_compact() {
  // Rebuild only when abandoned holes are worth reclaiming: at least a
  // quarter of the arena, and big enough in absolute terms to pay for
  // the rebuild.  The fraction must be < 1/2: doubling growth leaves a
  // relocated segment's full history (4+8+...+c/2 = c-4 holes) against
  // 2c-4 allocated slots, so holes approach but NEVER reach half the
  // arena -- a half threshold is unreachable dead code (a test pins
  // this by asserting compaction actually fires under churn).  Caps are
  // kept (they encode degree history), so a compaction never triggers
  // an immediate regrow.
  if (hole_slots_ < 4096 || hole_slots_ * 4 < peer_.size()) return;
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

std::size_t Adjacency::bytes() const {
  const std::size_t per_node = 3 * sizeof(std::uint32_t);
  const std::size_t per_slot =
      sizeof(NodeId) + sizeof(std::uint64_t) + sizeof(double) +
      sizeof(net::LinkDir) + 3 * sizeof(double) + sizeof(std::uint8_t);
  return head_.size() * per_node + peer_.size() * per_slot;
}

}  // namespace gcs::core
