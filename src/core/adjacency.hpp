// gcs::core -- Adjacency: the simulator's one live-edge structure.
//
// Each live edge {u, v} is two half-edges, u -> v in node u's segment
// and v -> u in v's.  A half-edge is a slot of one arena carved into
// per-node segments, CSR-style: u's occupy [begin(u), end(u)) of the
// parallel columns peer, incarnation and real up-time (both written to
// both halves), the u -> peer link FIFO, and DCSA's estimate of the
// peer (DcsaColumns' state; the adapter store's nodes keep their own).
// Segments grow by relocation to the arena tail (amortized doubling);
// the arena compacts once abandoned holes pass a quarter of it.
//
// Segment order is insertion order and erase() shifts the segment tail
// down rather than swap-removing: a broadcast sends in slot order, and
// send order assigns each message its index and hence its delay, so the
// order IS trajectory.
//
// insert() may relocate any segment, so it invalidates held slots.  The
// simulator calls insert()/erase() from topology events only (shards
// parked); mid-window, shards read peer/incarnation and write the FIFO
// and estimate columns of their own nodes' slots, so no lock is needed.
#ifndef GCS_CORE_ADJACENCY_HPP
#define GCS_CORE_ADJACENCY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dcsa_kernel.hpp"
#include "core/node_automaton.hpp"
#include "net/link.hpp"

namespace gcs::core {

class Adjacency {
 public:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  explicit Adjacency(std::size_t n) : head_(n, 0), count_(n, 0), cap_(n, 0) {}

  std::size_t size() const { return head_.size(); }
  std::uint32_t begin(NodeId u) const { return head_[u]; }
  std::uint32_t end(NodeId u) const { return head_[u] + count_[u]; }

  // Slot of the half-edge u -> peer, or kNpos.
  std::uint32_t find(NodeId u, NodeId peer) const {
    for (std::uint32_t s = begin(u), e = end(u); s < e; ++s) {
      if (peer_[s] == peer) return s;
    }
    return kNpos;
  }
  // The same, but kNpos too once that edge incarnation is gone.
  std::uint32_t find(NodeId u, NodeId peer, std::uint64_t incarnation) const {
    const std::uint32_t s = find(u, peer);
    return s != kNpos && incarnation_[s] == incarnation ? s : kNpos;
  }

  // Appends u -> peer to u's segment (its slot becomes end(u) - 1) with
  // a fresh estimate: the edge seen at u's hardware time hw_up.  The
  // caller ensures the half-edge is absent.
  void insert(NodeId u, NodeId peer, std::uint64_t incarnation,
              double up_time, double hw_up);
  // Removes slot s from u's segment, keeping the order of the rest.
  void erase(NodeId u, std::uint32_t s);

  NodeId peer(std::uint32_t s) const { return peer_[s]; }
  std::uint64_t incarnation(std::uint32_t s) const { return incarnation_[s]; }
  double up_time(std::uint32_t s) const { return up_time_[s]; }
  net::LinkDir& dir(std::uint32_t s) { return dir_[s]; }
  const net::LinkDir& dir(std::uint32_t s) const { return dir_[s]; }

  PeerSlot estimate(std::uint32_t s, double weight) const {
    return PeerSlot{hw_up_[s], has_est_[s] != 0, value_[s], hw_recv_[s],
                    weight};
  }
  void adopt(std::uint32_t s, double value, double hw_recv) {
    value_[s] = value;
    hw_recv_[s] = hw_recv;
    has_est_[s] = 1;
  }

  // Live half-edges (twice the live edge count).
  std::size_t live_slots() const { return live_slots_; }
  // Bytes held, holes and spare capacity included.
  std::size_t bytes() const;

 private:
  static constexpr std::uint32_t kInitialCap = 4;

  void reserve_slot(NodeId u);
  void maybe_compact();
  // Applies f to each parallel column of the arena.
  template <class F>
  void each_column(const F& f) {
    f(peer_);
    f(incarnation_);
    f(up_time_);
    f(dir_);
    f(hw_up_);
    f(has_est_);
    f(value_);
    f(hw_recv_);
  }

  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> count_;
  std::vector<std::uint32_t> cap_;

  std::vector<NodeId> peer_;
  std::vector<std::uint64_t> incarnation_;
  std::vector<double> up_time_;
  std::vector<net::LinkDir> dir_;
  std::vector<double> hw_up_;
  std::vector<std::uint8_t> has_est_;
  std::vector<double> value_;
  std::vector<double> hw_recv_;

  std::size_t live_slots_ = 0;  // sum of count_
  std::size_t hole_slots_ = 0;  // abandoned by relocation
};

}  // namespace gcs::core

#endif  // GCS_CORE_ADJACENCY_HPP
