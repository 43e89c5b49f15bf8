#include "core/dcsa_columns.hpp"

namespace gcs::core {

DcsaColumns::DcsaColumns(const SyncParams& params, Adjacency& adjacency,
                         Variant variant)
    : kernel_(params, BFunction(params), variant),
      adj_(adjacency),
      offset_(adjacency.size(), 0.0),
      fast_(adjacency.size(), 0) {}

void DcsaColumns::start(const NodeContext& ctx) {
  offset_[ctx.self] = -ctx.hw_now;  // logical clock starts at 0
  fast_[ctx.self] = 0;
}

void DcsaColumns::on_deliveries(const StoreDelivery* batch, std::size_t count,
                                DeliverySink& sink) {
  const double weight = kernel_.variant().weight;
  for (std::size_t i = 0; i < count; ++i) {
    const StoreDelivery& d = batch[i];
    sink.before(d);
    const std::uint32_t s = d.slot;
    if (s != Adjacency::kNpos &&
        kernel_.adopts(adj_.estimate(s, weight), d.hw_now, d.value)) {
      adj_.adopt(s, d.value, d.hw_now);
    }
    const std::uint32_t head = adj_.begin(d.to);
    const std::uint32_t end = adj_.end(d.to);
    bool fast = false;
    const double jump =
        kernel_.step(d.hw_now, offset_[d.to], fast, [&](const auto& f) {
          for (std::uint32_t k = head; k < end; ++k) {
            f(adj_.estimate(k, weight));
          }
        });
    fast_[d.to] = fast ? 1 : 0;
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
  return offset_.size() * (sizeof(double) + sizeof(std::uint8_t)) +
         adj_.bytes();
}

}  // namespace gcs::core
