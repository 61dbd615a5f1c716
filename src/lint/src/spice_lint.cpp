#include "ppd/lint/spice_lint.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "ppd/util/strings.hpp"

namespace ppd::lint {

std::string ElecGraph::where(const ElecDevice& d) const {
  if (d.line > 0 && !source.empty())
    return source + ":" + std::to_string(d.line);
  if (d.line > 0) return "line " + std::to_string(d.line);
  return d.name;
}

namespace {

/// Plain union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  /// Returns false when a and b were already connected.
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

std::string format_value(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// PPD107 plausibility ranges: values outside are likely unit slips.
constexpr double kMinResistance = 0.1;      // [ohm]
constexpr double kMaxResistance = 1e12;
constexpr double kMinCapacitance = 1e-18;   // [F]
constexpr double kMaxCapacitance = 1e-6;
constexpr double kMinGeometry = 10e-9;      // MOSFET W/L [m]
constexpr double kMaxGeometry = 1e-3;

void check_values(const ElecGraph& g, Report& report) {
  for (const ElecDevice& d : g.devices) {
    switch (d.kind) {
      case ElecKind::kResistor:
        if (d.value <= 0.0)
          report.add(Severity::kError, "PPD103", g.where(d),
                     "resistor '" + d.name + "' has non-positive value " +
                         format_value(d.value) + " ohm",
                     "resistances must be > 0; model a short with a vsource");
        else if (d.value < kMinResistance || d.value > kMaxResistance)
          report.add(Severity::kWarning, "PPD107", g.where(d),
                     "resistor '" + d.name + "' value " + format_value(d.value) +
                         " ohm is physically implausible",
                     "check the units (expected ohms)");
        break;
      case ElecKind::kCapacitor:
        if (d.value <= 0.0)
          report.add(Severity::kError, "PPD104", g.where(d),
                     "capacitor '" + d.name + "' has non-positive value " +
                         format_value(d.value) + " F");
        else if (d.value < kMinCapacitance || d.value > kMaxCapacitance)
          report.add(Severity::kWarning, "PPD107", g.where(d),
                     "capacitor '" + d.name + "' value " + format_value(d.value) +
                         " F is physically implausible",
                     "check the units (expected farads)");
        break;
      case ElecKind::kMosfet: {
        if (d.w <= 0.0 || d.l <= 0.0)
          report.add(Severity::kError, "PPD105", g.where(d),
                     "MOSFET '" + d.name + "' has non-positive W or L (W=" +
                         format_value(d.w) + ", L=" + format_value(d.l) + ")");
        else if (d.w < kMinGeometry || d.w > kMaxGeometry ||
                 d.l < kMinGeometry || d.l > kMaxGeometry)
          report.add(Severity::kWarning, "PPD107", g.where(d),
                     "MOSFET '" + d.name + "' geometry W=" + format_value(d.w) +
                         " L=" + format_value(d.l) + " is out of process range",
                     "check the units (expected meters)");
        if (d.kp <= 0.0)
          report.add(Severity::kError, "PPD105", g.where(d),
                     "MOSFET '" + d.name + "' has non-positive KP " +
                         format_value(d.kp));
        if ((d.is_pmos && d.vt0 >= 0.0) || (!d.is_pmos && d.vt0 <= 0.0))
          report.add(Severity::kError, "PPD105", g.where(d),
                     std::string("MOSFET '") + d.name + "' is " +
                         (d.is_pmos ? "PMOS" : "NMOS") + " but VT0=" +
                         format_value(d.vt0) + " has the wrong sign");
        break;
      }
      case ElecKind::kVsource:
      case ElecKind::kIsource:
        break;
    }
  }
}

void check_topology(const ElecGraph& g, Report& report) {
  const std::size_t n = g.node_names.size();
  if (n == 0) return;

  const auto node_label = [&](int id) {
    return static_cast<std::size_t>(id) < g.node_names.size()
               ? g.node_names[static_cast<std::size_t>(id)]
               : "node#" + std::to_string(id);
  };

  UnionFind any_path(n);     // every device ties all its terminals together
  UnionFind dc_path(n);      // only DC-conducting edges
  UnionFind vsource_net(n);  // voltage-source edges, for loop detection
  std::vector<char> touched(n, 0);
  std::size_t sources = 0;

  for (const ElecDevice& d : g.devices) {
    for (std::size_t i = 0; i < d.nodes.size(); ++i) {
      const auto a = static_cast<std::size_t>(d.nodes[i]);
      if (a >= n) continue;  // deck scanner never produces this; be safe
      touched[a] = 1;
      if (i > 0) any_path.unite(static_cast<std::size_t>(d.nodes[0]), a);
    }
    switch (d.kind) {
      case ElecKind::kResistor:
        dc_path.unite(static_cast<std::size_t>(d.nodes[0]),
                      static_cast<std::size_t>(d.nodes[1]));
        break;
      case ElecKind::kVsource: {
        ++sources;
        const auto a = static_cast<std::size_t>(d.nodes[0]);
        const auto b = static_cast<std::size_t>(d.nodes[1]);
        dc_path.unite(a, b);
        if (!vsource_net.unite(a, b))
          report.add(Severity::kError, "PPD106", g.where(d),
                     "voltage source '" + d.name + "' closes a loop of "
                     "voltage sources between '" + node_label(d.nodes[0]) +
                         "' and '" + node_label(d.nodes[1]) + "'",
                     "the branch currents are underdetermined (singular MNA)");
        break;
      }
      case ElecKind::kIsource:
        ++sources;
        break;
      case ElecKind::kMosfet:
        // Channel conducts drain<->source; the gate is insulated.
        dc_path.unite(static_cast<std::size_t>(d.nodes[0]),
                      static_cast<std::size_t>(d.nodes[2]));
        break;
      case ElecKind::kCapacitor:
        break;  // open in DC
    }
  }

  if (sources == 0 && !g.devices.empty())
    report.add(Severity::kWarning, "PPD108", g.source,
               "circuit has no voltage or current source",
               "the operating point is identically zero");

  // PPD109 — nodes no device touches produce an all-zero MNA row.
  for (std::size_t v = 1; v < n; ++v)
    if (!touched[v])
      report.add(Severity::kError, "PPD109", node_label(static_cast<int>(v)),
                 "node '" + node_label(static_cast<int>(v)) +
                     "' is not connected to any device",
                 "remove the node or wire a device to it");

  // PPD101 — connected groups with no path (of any kind) to ground.
  // Report once per island, naming a representative node.
  const std::size_t ground_root = any_path.find(0);
  std::vector<char> island_reported(n, 0);
  for (std::size_t v = 1; v < n; ++v) {
    if (!touched[v]) continue;
    const std::size_t root = any_path.find(v);
    if (root == ground_root || island_reported[root]) continue;
    island_reported[root] = 1;
    std::string members;
    std::size_t count = 0;
    for (std::size_t w = 1; w < n; ++w)
      if (touched[w] && any_path.find(w) == root) {
        if (++count <= 6) {
          if (!members.empty()) members += ", ";
          members += node_label(static_cast<int>(w));
        }
      }
    if (count > 6) members += ", ... (" + std::to_string(count) + " nodes)";
    report.add(Severity::kError, "PPD101", node_label(static_cast<int>(v)),
               "island of " + std::to_string(count) +
                   " node(s) with no connection to ground: " + members,
               "every subcircuit needs a ground reference");
  }

  // PPD102 — grounded nodes whose only paths to ground are capacitive or
  // through a gate: the OP depends on the gmin leak.
  for (std::size_t v = 1; v < n; ++v) {
    if (!touched[v]) continue;
    if (any_path.find(v) != ground_root) continue;  // already PPD101
    if (dc_path.find(v) == dc_path.find(0)) continue;
    report.add(Severity::kWarning, "PPD102",
               node_label(static_cast<int>(v)),
               "node '" + node_label(static_cast<int>(v)) +
                   "' has no DC path to ground",
               "its operating point rests on the gmin leak");
  }
}

}  // namespace

Report lint_elec(const ElecGraph& graph) {
  Report report;
  check_values(graph, report);
  check_topology(graph, report);
  return report;
}

// --------------------------------------------------------------- deck scan

namespace {

/// Parse a SPICE number with the usual magnitude suffixes. Returns false
/// when no number could be read at all.
bool parse_spice_number(const std::string& tok, double* out) {
  const char* begin = tok.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return false;
  double scale = 1.0;
  const std::string suffix = util::to_upper(std::string_view(end));
  if (util::starts_with(suffix, "MEG")) scale = 1e6;
  else if (util::starts_with(suffix, "T")) scale = 1e12;
  else if (util::starts_with(suffix, "G")) scale = 1e9;
  else if (util::starts_with(suffix, "K")) scale = 1e3;
  else if (util::starts_with(suffix, "M")) scale = 1e-3;
  else if (util::starts_with(suffix, "U")) scale = 1e-6;
  else if (util::starts_with(suffix, "N")) scale = 1e-9;
  else if (util::starts_with(suffix, "P")) scale = 1e-12;
  else if (util::starts_with(suffix, "F")) scale = 1e-15;
  *out = v * scale;
  return true;
}

struct DeckModel {
  bool is_pmos = false;
  double vt0 = 0.45;
  double kp = 170e-6;
};

/// "key=value" → value parsed as a SPICE number, else nullopt-ish false.
bool key_value(const std::string& tok, const std::string& key, double* out) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  if (!util::iequals(util::trim(tok.substr(0, eq)), key)) return false;
  return parse_spice_number(std::string(util::trim(tok.substr(eq + 1))), out);
}

}  // namespace

Report lint_spice_deck_text(const std::string& text, const std::string& source) {
  Report report;
  ElecGraph graph;
  graph.source = source;
  graph.node_names.push_back("0");
  std::map<std::string, int> node_ids;  // name -> id (ground handled apart)
  std::map<std::string, DeckModel> models;
  struct PendingMos {
    ElecDevice device;
    std::string model;
  };
  std::vector<PendingMos> pending_mos;

  const auto node_id = [&](const std::string& name) {
    if (name == "0" || util::iequals(name, "gnd")) return 0;
    const auto it = node_ids.find(name);
    if (it != node_ids.end()) return it->second;
    const int id = static_cast<int>(graph.node_names.size());
    graph.node_names.push_back(name);
    node_ids.emplace(name, id);
    return id;
  };

  std::istringstream is(text);
  std::string raw;
  int line_no = 0;
  bool first_line = true;
  while (std::getline(is, raw)) {
    ++line_no;
    const std::string_view line = util::trim(raw);
    const std::string here = source + ":" + std::to_string(line_no);
    if (line.empty() || line.front() == '*') {
      first_line = false;
      continue;
    }
    // SPICE treats the very first line as the title even without '*'.
    if (first_line) {
      first_line = false;
      if (line.front() != '.' && line.front() != 'R' && line.front() != 'C' &&
          line.front() != 'V' && line.front() != 'I' && line.front() != 'M')
        continue;
    }
    first_line = false;

    if (line.front() == '.') {
      const auto toks = util::split_ws(line);
      if (util::iequals(toks[0], ".model") && toks.size() >= 3) {
        DeckModel m;
        m.is_pmos = util::iequals(toks[2], "PMOS");
        for (const auto& tok : toks) {
          double v = 0.0;
          if (key_value(tok, "vto", &v)) m.vt0 = v;
          if (key_value(tok, "kp", &v)) m.kp = v;
        }
        models.emplace(util::to_upper(toks[1]), m);
      }
      continue;  // .tran/.end/.options are simulator directives, not devices
    }

    const auto toks = util::split_ws(line);
    const char card = static_cast<char>(std::toupper(line.front()));
    ElecDevice d;
    d.name = toks[0];
    d.line = line_no;
    switch (card) {
      case 'R':
      case 'C': {
        if (toks.size() < 4) {
          report.add(Severity::kError, "PPD110", here,
                     "malformed " + std::string(1, card) +
                         " card: expected 'name n1 n2 value'");
          continue;
        }
        d.kind = card == 'R' ? ElecKind::kResistor : ElecKind::kCapacitor;
        d.nodes = {node_id(toks[1]), node_id(toks[2])};
        if (!parse_spice_number(toks[3], &d.value)) {
          report.add(Severity::kError, "PPD110", here,
                     "cannot parse value '" + toks[3] + "'");
          continue;
        }
        graph.devices.push_back(std::move(d));
        break;
      }
      case 'V':
      case 'I': {
        if (toks.size() < 3) {
          report.add(Severity::kError, "PPD110", here,
                     "malformed source card: expected 'name n+ n- spec'");
          continue;
        }
        d.kind = card == 'V' ? ElecKind::kVsource : ElecKind::kIsource;
        d.nodes = {node_id(toks[1]), node_id(toks[2])};
        graph.devices.push_back(std::move(d));
        break;
      }
      case 'M': {
        if (toks.size() < 6) {
          report.add(Severity::kError, "PPD110", here,
                     "malformed M card: expected 'name d g s b model w=... l=...'");
          continue;
        }
        d.kind = ElecKind::kMosfet;
        d.nodes = {node_id(toks[1]), node_id(toks[2]), node_id(toks[3])};
        for (const auto& tok : toks) {
          double v = 0.0;
          if (key_value(tok, "w", &v)) d.w = v;
          if (key_value(tok, "l", &v)) d.l = v;
        }
        pending_mos.push_back({std::move(d), util::to_upper(toks[5])});
        break;
      }
      default:
        report.add(Severity::kError, "PPD110", here,
                   "unknown card '" + std::string(1, line.front()) + "'",
                   "supported cards: R, C, V, I, M and . directives");
    }
  }

  for (auto& [device, model_name] : pending_mos) {
    const auto it = models.find(model_name);
    if (it == models.end()) {
      report.add(Severity::kError, "PPD110", graph.where(device),
                 "MOSFET '" + device.name + "' references undefined model '" +
                     model_name + "'");
      continue;
    }
    device.is_pmos = it->second.is_pmos;
    device.vt0 = it->second.vt0;
    device.kp = it->second.kp;
    graph.devices.push_back(std::move(device));
  }

  report.merge(lint_elec(graph));
  return report;
}

Report lint_spice_deck_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Report report;
    report.add(Severity::kError, "PPD110", path, "cannot open SPICE deck");
    return report;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return lint_spice_deck_text(os.str(), path);
}

}  // namespace ppd::lint
