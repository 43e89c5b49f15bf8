#include "cli/campaign.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <utility>

#include "harness/serialize.hpp"
#include "net/trace.hpp"
#include "util/rng.hpp"

namespace gcs::cli {

namespace util = gcs::util;
namespace json = gcs::util::json;

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("campaign: " + msg);
}

// Per-kind knob sets; strict so a knob on the wrong kind is a loud typo.
const std::set<std::string>& knobs_for(const std::string& kind) {
  static const std::set<std::string> kChurn = {"volatile_edges", "lifetime"};
  static const std::set<std::string> kStar = {"period", "overlap"};
  static const std::set<std::string> kMobility = {
      "radius", "speed_min", "speed_max", "update_dt", "backbone",
      "connect_window"};
  static const std::set<std::string> kGaussMarkov = {
      "radius",    "mean_speed", "alpha",    "speed_sigma",
      "dir_sigma", "update_dt",  "backbone", "connect_window"};
  static const std::set<std::string> kGroup = {
      "groups",    "radius",    "group_radius",   "speed_min", "speed_max",
      "update_dt", "switch_prob", "backbone", "connect_window"};
  static const std::set<std::string> kTrace = {"path", "connect_window"};
  if (kind == "churn") return kChurn;
  if (kind == "switching-star") return kStar;
  if (kind == "mobility") return kMobility;
  if (kind == "gauss-markov") return kGaussMarkov;
  if (kind == "group") return kGroup;
  if (kind == "trace") return kTrace;
  fail("unknown scenario kind '" + kind + "'");
}

}  // namespace

json::Value ScenarioSpec::to_json() const {
  json::Value v;
  v["kind"] = kind;
  if (kind == "churn") {
    v["volatile_edges"] = static_cast<std::uint64_t>(volatile_edges);
    v["lifetime"] = lifetime;
  } else if (kind == "switching-star") {
    v["period"] = period;
    v["overlap"] = overlap;
  } else if (kind == "mobility") {
    v["radius"] = radius;
    v["speed_min"] = speed_min;
    v["speed_max"] = speed_max;
    v["update_dt"] = update_dt;
    v["backbone"] = backbone;
    v["connect_window"] = connect_window;
  } else if (kind == "gauss-markov") {
    v["radius"] = radius;
    v["mean_speed"] = mean_speed;
    v["alpha"] = alpha;
    v["speed_sigma"] = speed_sigma;
    v["dir_sigma"] = dir_sigma;
    v["update_dt"] = update_dt;
    v["backbone"] = backbone;
    v["connect_window"] = connect_window;
  } else if (kind == "group") {
    v["groups"] = static_cast<std::uint64_t>(groups);
    v["radius"] = radius;
    v["group_radius"] = group_radius;
    v["speed_min"] = speed_min;
    v["speed_max"] = speed_max;
    v["update_dt"] = update_dt;
    v["switch_prob"] = switch_prob;
    v["backbone"] = backbone;
    v["connect_window"] = connect_window;
  } else if (kind == "trace") {
    v["path"] = path;
    v["connect_window"] = connect_window;
  }
  return v;
}

ScenarioSpec ScenarioSpec::from_json(const json::Value& doc) {
  ScenarioSpec spec;
  spec.kind = doc.at("kind").as_string();
  const std::set<std::string>& knobs = knobs_for(spec.kind);
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "kind") continue;
    if (knobs.count(key) == 0) {
      fail("scenario kind '" + spec.kind + "' has no knob '" + key + "'");
    }
    if (key == "volatile_edges") {
      spec.volatile_edges = static_cast<std::size_t>(value.as_u64());
    } else if (key == "lifetime") {
      spec.lifetime = value.as_number();
    } else if (key == "period") {
      spec.period = value.as_number();
    } else if (key == "overlap") {
      spec.overlap = value.as_number();
    } else if (key == "radius") {
      spec.radius = value.as_number();
    } else if (key == "speed_min") {
      spec.speed_min = value.as_number();
    } else if (key == "speed_max") {
      spec.speed_max = value.as_number();
    } else if (key == "update_dt") {
      spec.update_dt = value.as_number();
    } else if (key == "backbone") {
      spec.backbone = value.as_bool();
    } else if (key == "mean_speed") {
      spec.mean_speed = value.as_number();
    } else if (key == "alpha") {
      spec.alpha = value.as_number();
    } else if (key == "speed_sigma") {
      spec.speed_sigma = value.as_number();
    } else if (key == "dir_sigma") {
      spec.dir_sigma = value.as_number();
    } else if (key == "groups") {
      spec.groups = static_cast<std::size_t>(value.as_u64());
    } else if (key == "group_radius") {
      spec.group_radius = value.as_number();
    } else if (key == "switch_prob") {
      spec.switch_prob = value.as_number();
    } else if (key == "path") {
      spec.path = value.as_string();
    } else if (key == "connect_window") {
      spec.connect_window = value.as_number();
    }
  }
  if (spec.kind == "trace" && spec.path.empty()) {
    fail("trace scenario needs path=<file.csv|file.json>");
  }
  return spec;
}

ScenarioSpec ScenarioSpec::from_flag(const std::string& spec) {
  // "kind:knob=value:knob=value" -> the JSON form, then the strict reader.
  json::Value doc;
  std::size_t pos = spec.find(':');
  doc["kind"] = spec.substr(0, pos);
  while (pos != std::string::npos) {
    const std::size_t start = pos + 1;
    pos = spec.find(':', start);
    const std::string part = spec.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("bad scenario flag segment '" + part + "' (want knob=value)");
    }
    const std::string key = part.substr(0, eq);
    const std::string value = part.substr(eq + 1);
    if (value.empty()) {
      fail("bad scenario flag segment '" + part + "' (empty value)");
    }
    if (value == "true" || value == "false") {
      doc[key] = (value == "true");
    } else if (key == "path") {
      // The one string knob; every other knob is numeric or boolean, so
      // a non-numeric value there keeps the targeted error below.
      doc[key] = value;
    } else {
      char* end = nullptr;
      const double num = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size()) {
        fail("bad scenario knob value '" + value + "' for knob '" + key +
             "'");
      }
      doc[key] = num;
    }
  }
  return from_json(doc);
}

net::Scenario ScenarioSpec::build(std::size_t n, double horizon,
                                  std::uint64_t seed) const {
  // Stream 0 of the cell seed: decorrelated from the delay and drift
  // streams, which consume the raw seed.
  util::Rng rng(util::mix_seed(seed, 0));
  net::Scenario scenario;
  if (kind == "churn") {
    scenario = net::make_churn_scenario(n, volatile_edges, lifetime, horizon,
                                        rng);
  } else if (kind == "switching-star") {
    scenario = net::make_switching_star_scenario(n, period, overlap, horizon);
  } else if (kind == "mobility") {
    scenario = net::make_mobility_scenario(n, radius, speed_min, speed_max,
                                           update_dt, horizon, backbone, rng);
  } else if (kind == "gauss-markov") {
    scenario = net::make_gauss_markov_scenario(n, radius, mean_speed, alpha,
                                               speed_sigma, dir_sigma,
                                               update_dt, horizon, backbone,
                                               rng);
  } else if (kind == "group") {
    scenario = net::make_group_scenario(n, groups, radius, group_radius,
                                        speed_min, speed_max, update_dt,
                                        switch_prob, horizon, backbone, rng);
  } else if (kind == "trace") {
    scenario = net::make_trace_scenario(net::load_contact_trace(path), horizon);
  } else {
    fail("a static spec has no generator (kind is empty)");
  }
  if (connect_window > 0.0) {
    net::enforce_interval_connectivity(scenario, connect_window, horizon);
  }
  return scenario;
}

harness::ExperimentConfig instantiate(const Cell& cell) {
  harness::ExperimentConfig config = cell.config;
  if (!cell.scenario.is_static()) {
    config.scenario = cell.scenario.build(config.params.n, config.horizon,
                                          config.seed);
  }
  return config;
}

std::string sanitize_component(std::string text, const std::string& fallback) {
  for (char& c : text) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    if (!safe) c = '-';
  }
  // An all-dots name would still be a path traversal ("results/..").
  if (text.empty() || text.find_first_not_of('.') == std::string::npos) {
    text = fallback;
  }
  return text;
}

// ---------------------------------------------------------------------------
// Campaign expansion
// ---------------------------------------------------------------------------
namespace {

// Canonical axis order: workload-defining axes first (they dominate label
// readability), then model constants, then the seed.  Labels and file
// names follow this order, so reordering it is a (cosmetic) schema change.
const char* const kAxisOrder[] = {"n",       "topology", "scenario", "drift",
                                  "delay",   "traffic",  "variant",  "engine",
                                  "delivery", "rho",     "T",        "D",
                                  "delta_h", "B0",       "horizon",  "sample_dt",
                                  "shards",  "store",    "seed"};

bool is_known_axis(const std::string& key) {
  for (const char* axis : kAxisOrder) {
    if (key == axis) return true;
  }
  return false;
}

// One swept (or pinned) dimension of the cross-product.
struct Axis {
  std::string key;
  std::vector<json::Value> values;
};

std::vector<json::Value> expand_seeds_object(const json::Value& v) {
  for (const auto& [key, value] : v.as_object()) {
    (void)value;
    if (key != "base" && key != "count") {
      fail("seeds object supports only {base, count}, got '" + key + "'");
    }
  }
  const std::uint64_t base = v.at("base").as_u64();
  const std::uint64_t count = v.at("count").as_u64();
  if (count == 0) fail("seeds count must be >= 1");
  // Pre-guard: the 10000-cell cross-product cap only runs after axes are
  // materialized, so an absurd count must fail here, before the allocation.
  if (count > 10000) fail("seeds count exceeds the 10000-cell cap");
  std::vector<json::Value> seeds;
  seeds.reserve(count);
  for (std::uint64_t s = base; s < base + count; ++s) seeds.emplace_back(s);
  return seeds;
}

// Parses one override token: JSON-number syntax -> number, else string.
json::Value parse_scalar(const std::string& token) {
  if (token == "true") return json::Value(true);
  if (token == "false") return json::Value(false);
  char* end = nullptr;
  const double num = std::strtod(token.c_str(), &end);
  if (!token.empty() && end == token.c_str() + token.size()) {
    return json::Value(num);
  }
  return json::Value(token);
}

// Override value grammar: comma-separated tokens, each a scalar or an
// inclusive integer range "a..b".
std::vector<json::Value> parse_override_values(const std::string& key,
                                               const std::string& raw) {
  std::vector<json::Value> values;
  std::size_t start = 0;
  while (start <= raw.size()) {
    const std::size_t comma = raw.find(',', start);
    const std::string token = raw.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const std::size_t dots = token.find("..");
    if (dots != std::string::npos) {
      // A ".." makes the token a range, and ranges are strictly integer
      // ("1..5"): anything else ("0.01..0.05") must fail loudly here, not
      // truncate through strtoull into a silently different sweep.
      const std::string lo_str = token.substr(0, dots);
      const std::string hi_str = token.substr(dots + 2);
      auto all_digits = [](const std::string& s) {
        if (s.empty()) return false;
        for (const char c : s) {
          if (c < '0' || c > '9') return false;
        }
        return true;
      };
      if (!all_digits(lo_str) || !all_digits(hi_str)) {
        fail("bad range '" + token + "' for --" + key +
             " (ranges are integer, like 1..5)");
      }
      const std::uint64_t lo = std::strtoull(lo_str.c_str(), nullptr, 10);
      const std::uint64_t hi = std::strtoull(hi_str.c_str(), nullptr, 10);
      if (hi < lo || hi - lo >= 10000) {
        fail("bad range '" + token + "' for --" + key);
      }
      for (std::uint64_t v = lo; v <= hi; ++v) values.emplace_back(v);
    } else if (!token.empty()) {
      values.push_back(parse_scalar(token));
    } else {
      fail("empty value in --" + key + "=" + raw);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

std::string label_part(const std::string& key, const json::Value& v) {
  std::string part;
  if (key == "scenario") {
    part = v.at("kind").as_string();
  } else if (v.is_string()) {
    part = v.as_string();
  } else if (key == "n") {
    part = "n" + json::dump_number(v.as_number());
  } else if (key == "seed") {
    part = "s" + json::dump_number(v.as_number());
  } else {
    part = key + json::dump_number(v.as_number());
  }
  return sanitize_component(std::move(part));
}

}  // namespace

Campaign build_campaign(const json::Value* doc,
                        const std::map<std::string, std::string>& overrides) {
  Campaign campaign;
  campaign.name = doc ? "campaign" : "adhoc";

  // 1. Collect defaults (scalar pins) and sweep lists from the document.
  std::map<std::string, json::Value> defaults;
  std::map<std::string, std::vector<json::Value>> sweep;
  if (doc) {
    for (const auto& [key, value] : doc->as_object()) {
      if (key == "name") {
        campaign.name = value.as_string();
      } else if (key == "defaults") {
        for (const auto& [dkey, dvalue] : value.as_object()) {
          if (!is_known_axis(dkey)) fail("unknown defaults key '" + dkey + "'");
          defaults[dkey] = dvalue;
        }
      } else if (key == "sweep") {
        for (const auto& [skey, svalue] : value.as_object()) {
          const std::string axis = skey == "seeds" ? "seed" : skey;
          if (!is_known_axis(axis)) fail("unknown sweep key '" + skey + "'");
          if (svalue.is_object() && axis == "seed") {
            sweep[axis] = expand_seeds_object(svalue);
          } else {
            const json::Array& arr = svalue.as_array();
            if (arr.empty()) fail("sweep axis '" + skey + "' is empty");
            sweep[axis] = arr;
          }
        }
      } else {
        fail("unknown top-level key '" + key + "' (want name/defaults/sweep)");
      }
    }
  }

  // 2. Overlay --key=value overrides: lists/ranges re-sweep the axis, a
  //    scalar pins it (even if the file swept it).
  for (const auto& [rawkey, rawvalue] : overrides) {
    if (rawkey == "name") {
      campaign.name = rawvalue;
      continue;
    }
    const std::string key = rawkey == "seeds" ? "seed" : rawkey;
    if (!is_known_axis(key)) fail("unknown option --" + rawkey);
    if (key == "scenario") {
      defaults[key] = ScenarioSpec::from_flag(rawvalue).to_json();
      sweep.erase(key);
      continue;
    }
    std::vector<json::Value> values = parse_override_values(key, rawvalue);
    if (values.size() == 1) {
      defaults[key] = values.front();
      sweep.erase(key);
    } else {
      sweep[key] = std::move(values);
      defaults.erase(key);
    }
  }

  campaign.name = sanitize_component(std::move(campaign.name));

  // 3. The workload axis is either static topologies or scenario specs,
  //    never a mix: naming both is ambiguous, so it is an error.
  const bool has_topology = defaults.count("topology") || sweep.count("topology");
  const bool has_scenario = defaults.count("scenario") || sweep.count("scenario");
  if (has_topology && has_scenario) {
    fail("give either 'topology' or 'scenario', not both");
  }

  // 4. Assemble the axes present anywhere, in canonical order; absent keys
  //    keep their ExperimentConfig defaults and contribute nothing.
  std::vector<Axis> axes;
  std::size_t total = 1;
  for (const char* key : kAxisOrder) {
    Axis axis;
    axis.key = key;
    if (auto it = sweep.find(key); it != sweep.end()) {
      axis.values = it->second;
    } else if (auto dt = defaults.find(key); dt != defaults.end()) {
      axis.values = {dt->second};
    } else {
      continue;
    }
    total *= axis.values.size();
    if (total > 10000) fail("sweep expands to more than 10000 cells");
    campaign.axes.push_back(AxisInfo{axis.key, axis.values.size()});
    axes.push_back(std::move(axis));
  }

  // 5. Odometer over the cross-product.
  std::size_t width = 1;
  for (std::size_t t = total; t >= 10; t /= 10) ++width;
  width = std::max<std::size_t>(width, 3);
  std::vector<std::size_t> idx(axes.size(), 0);
  for (std::size_t cell_no = 0; cell_no < total; ++cell_no) {
    json::Value cfg_doc;
    cfg_doc = json::Object{};
    Cell cell;
    std::string suffix;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const json::Value& v = axes[a].values[idx[a]];
      if (axes[a].key == "scenario") {
        cell.scenario = ScenarioSpec::from_json(v);
      } else {
        cfg_doc[axes[a].key] = v;
      }
      if (axes[a].values.size() > 1) {
        suffix += "-" + label_part(axes[a].key, v);
      }
    }
    cell.config = harness::config_from_json(cfg_doc);
    std::string number = std::to_string(cell_no);
    number.insert(0, width - std::min(width, number.size()), '0');
    cell.label = number + suffix;
    // A bad input is named here, before --list echoes the config as json
    // (which cannot hold a NaN or Inf) or a runner starts the cell.
    harness::check_config(cell.config, "campaign: cell " + cell.label);
    cell.config.name = campaign.name + "/" + cell.label;
    campaign.cells.push_back(std::move(cell));

    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++idx[a] < axes[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return campaign;
}

}  // namespace gcs::cli
