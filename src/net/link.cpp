#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/number.hpp"
#include "util/rng.hpp"

namespace gcs::net {

namespace {

struct Knob {
  std::string key;
  double value;
};

// Splits "kind:k=v:k=v" into the kind and its knobs; strict about shape
// so a typo'd axis value fails at campaign-expansion time, not mid-run.
std::vector<Knob> parse_knobs(const std::string& spec, std::size_t start,
                              const std::string& kind) {
  std::vector<Knob> knobs;
  std::size_t pos = start;
  while (pos < spec.size()) {
    if (spec[pos] != ':') {
      throw std::invalid_argument("traffic '" + spec + "': expected ':'");
    }
    ++pos;
    const std::size_t next = spec.find(':', pos);
    const std::string part =
        spec.substr(pos, next == std::string::npos ? next : next - pos);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      throw std::invalid_argument("traffic '" + spec + "': knob '" + part +
                                  "' is not key=value");
    }
    double value = 0.0;
    if (!util::parse_double(part.substr(eq + 1), &value)) {
      throw std::invalid_argument("traffic '" + spec + "': knob '" + part +
                                  "' has a non-numeric value");
    }
    knobs.push_back(Knob{part.substr(0, eq), value});
    pos = next == std::string::npos ? spec.size() : next;
  }
  (void)kind;
  return knobs;
}

double take(std::vector<Knob>& knobs, const std::string& key, double fallback,
            bool* found = nullptr) {
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    if (knobs[i].key == key) {
      const double v = knobs[i].value;
      knobs.erase(knobs.begin() + static_cast<std::ptrdiff_t>(i));
      if (found != nullptr) *found = true;
      return v;
    }
  }
  if (found != nullptr) *found = false;
  return fallback;
}

void reject_leftovers(const std::vector<Knob>& knobs, const std::string& spec) {
  if (knobs.empty()) return;
  throw std::invalid_argument("traffic '" + spec + "': unknown knob '" +
                              knobs.front().key + "'");
}

void require_positive(double v, const char* what, const std::string& spec) {
  if (!(v > 0.0)) {
    throw std::invalid_argument("traffic '" + spec + "': " + what +
                                " must be > 0");
  }
}

void require_non_negative(double v, const char* what, const std::string& spec) {
  if (v < 0.0) {
    throw std::invalid_argument("traffic '" + spec + "': " + what +
                                " must be >= 0");
  }
}

}  // namespace

TrafficModel parse_traffic(const std::string& spec) {
  TrafficModel m;
  if (spec == "off") return m;  // kIdeal defaults
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  std::vector<Knob> knobs =
      parse_knobs(spec, colon == std::string::npos ? spec.size() : colon, kind);

  const auto common = [&](TrafficModel& out) {
    out.bandwidth = take(knobs, "bw", 0.0);
    out.queue_bytes = take(knobs, "queue", 0.0);
    out.mark_bytes = take(knobs, "mark", 0.0);
    out.sync_bytes = take(knobs, "msg", 64.0);
    require_non_negative(out.bandwidth, "bw", spec);
    require_non_negative(out.queue_bytes, "queue", spec);
    require_non_negative(out.mark_bytes, "mark", spec);
    require_positive(out.sync_bytes, "msg", spec);
  };

  if (kind == "idle") {
    m.kind = TrafficModel::Kind::kIdle;
    common(m);
  } else if (kind == "cbr") {
    m.kind = TrafficModel::Kind::kCbr;
    common(m);
    bool has_rate = false;
    m.rate = take(knobs, "rate", 0.0, &has_rate);
    m.packet_bytes = take(knobs, "pkt", 1500.0);
    if (!has_rate) {
      throw std::invalid_argument("traffic '" + spec + "': cbr requires rate=");
    }
    require_positive(m.rate, "rate", spec);
    require_positive(m.packet_bytes, "pkt", spec);
    require_positive(m.bandwidth, "bw (cbr loads a finite link)", spec);
  } else if (kind == "bulk") {
    m.kind = TrafficModel::Kind::kBulk;
    common(m);
    bool has_bytes = false;
    bool has_interval = false;
    m.transfer_bytes = take(knobs, "bytes", 0.0, &has_bytes);
    m.interval = take(knobs, "interval", 0.0, &has_interval);
    if (!has_bytes || !has_interval) {
      throw std::invalid_argument("traffic '" + spec +
                                  "': bulk requires bytes= and interval=");
    }
    require_positive(m.transfer_bytes, "bytes", spec);
    require_positive(m.interval, "interval", spec);
    require_positive(m.bandwidth, "bw (bulk loads a finite link)", spec);
  } else {
    throw std::invalid_argument(
        "traffic '" + spec +
        "': unknown kind (expected off | idle | cbr | bulk)");
  }
  reject_leftovers(knobs, spec);
  return m;
}

LinkDecision link_offer(const TrafficModel& model, LinkDir& dir, double t,
                        double bytes, bool droppable) {
  LinkDecision d;
  if (!model.pipeline_active() || model.bandwidth <= 0.0) return d;
  d.backlog_bytes = std::max(0.0, dir.busy_until - t) * model.bandwidth;
  if (droppable && model.queue_bytes > 0.0 &&
      d.backlog_bytes + bytes > model.queue_bytes) {
    d.dropped = true;  // FIFO full: state untouched, packet discarded
    return d;
  }
  d.marked = model.mark_bytes > 0.0 && d.backlog_bytes > model.mark_bytes;
  const double start = std::max(t, dir.busy_until);
  d.wait = start - t;
  d.tx = bytes / model.bandwidth;
  dir.busy_until = start + d.tx;
  return d;
}

double flow_phase(std::uint64_t key) {
  // A stable, well-mixed function of the key; the modulus keeps the
  // fraction strictly inside (0, 1).
  return static_cast<double>(util::mix_seed(key, 0) % 997u + 1u) / 999.0;
}

}  // namespace gcs::net
