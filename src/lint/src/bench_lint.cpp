#include "ppd/lint/bench_lint.hpp"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "ppd/util/strings.hpp"

namespace ppd::lint {

namespace {

/// Canonical name of an upper-cased gate type ("BUFF" -> "BUF", "INV" ->
/// "NOT"), or "" when the grammar does not know the type.
std::string canonical_type(const std::string& upper) {
  if (upper == "BUFF") return "BUF";
  if (upper == "INV") return "NOT";
  for (const char* name :
       {"BUF", "NOT", "AND", "OR", "NAND", "NOR", "XOR", "XNOR"})
    if (upper == name) return upper;
  return "";
}

}  // namespace

BenchScan scan_bench_text(const std::string& text, const std::string& source) {
  BenchScan scan;
  scan.graph.source = source;
  Report& report = scan.report;
  std::vector<GraphNode>& nodes = scan.graph.nodes;
  std::unordered_map<std::string, std::size_t> by_name;
  const auto node_of = [&](const std::string& name) {
    const auto [it, added] = by_name.emplace(name, nodes.size());
    if (added) nodes.emplace_back().name = name;
    return it->second;
  };

  std::istringstream is(text);
  std::string raw;
  int line_no = 0;
  std::unordered_map<std::string, int> output_decl_line;
  std::vector<int> output_lines;  // parallel to scan.outputs

  while (std::getline(is, raw)) {
    ++line_no;
    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const std::string here = source + ":" + std::to_string(line_no);

    const std::string upper = util::to_upper(line);
    if (util::starts_with(upper, "INPUT(") || util::starts_with(upper, "OUTPUT(")) {
      const bool is_input = util::starts_with(upper, "INPUT(");
      const std::size_t open = is_input ? 6 : 7;
      const auto close = line.find(')');
      if (close == std::string_view::npos || close < open) {
        report.add(Severity::kError, "PPD013", here,
                   "missing ')' in " + std::string(is_input ? "INPUT" : "OUTPUT") +
                       " declaration");
        continue;
      }
      const std::string name{util::trim(line.substr(open, close - open))};
      if (name.empty()) {
        report.add(Severity::kError, "PPD013", here, "empty signal name");
        continue;
      }
      const std::size_t id = node_of(name);
      GraphNode& node = nodes[id];
      if (is_input) {
        node.is_input = true;
        node.driven = true;
        ++node.driver_count;
        if (node.line == 0) node.line = line_no;
        scan.inputs.push_back(id);
      } else {
        const auto prev = output_decl_line.find(name);
        if (prev != output_decl_line.end())
          report.add(Severity::kWarning, "PPD012", here,
                     "duplicate OUTPUT declaration for '" + name +
                         "' (first on line " + std::to_string(prev->second) + ")");
        else
          output_decl_line.emplace(name, line_no);
        node.is_output = true;
        scan.outputs.push_back(id);
        output_lines.push_back(line_no);
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      report.add(Severity::kError, "PPD013", here,
                 "expected 'net = TYPE(args)' assignment");
      continue;
    }
    const std::string out_name{util::trim(line.substr(0, eq))};
    const std::string_view rhs = util::trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (out_name.empty()) {
      report.add(Severity::kError, "PPD013", here, "empty gate output name");
      continue;
    }
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      report.add(Severity::kError, "PPD013", here, "expected TYPE(args)");
      continue;
    }
    const std::string type{util::trim(rhs.substr(0, open))};
    const std::string type_upper = util::to_upper(type);
    const std::string kind = canonical_type(type_upper);
    if (kind.empty()) {
      report.add(Severity::kError, "PPD013", here,
                 "unknown gate type '" + type + "'",
                 "use BUF|NOT|AND|OR|NAND|NOR|XOR|XNOR");
      continue;
    }
    // util::split yields at least one field, so an empty list is an empty
    // operand.
    std::vector<std::size_t> fanin;
    bool operands_ok = true;
    for (const auto& arg : util::split(rhs.substr(open + 1, close - open - 1), ',')) {
      const auto trimmed = util::trim(arg);
      if (trimmed.empty()) {
        report.add(Severity::kError, "PPD013", here, "empty gate operand");
        operands_ok = false;
        break;
      }
      fanin.push_back(node_of(std::string(trimmed)));
    }
    if (!operands_ok) continue;
    if ((kind == "BUF" || kind == "NOT") && fanin.size() != 1) {
      report.add(Severity::kError, "PPD013", here,
                 "gate '" + out_name + "': " + type_upper +
                     " takes exactly one operand");
      continue;
    }
    const std::size_t id = node_of(out_name);
    GraphNode& node = nodes[id];
    ++node.driver_count;
    if (!node.driven) {
      // First driver wins; later drivers are reported as PPD003.
      node.driven = true;
      node.kind = kind;
      node.fanin = std::move(fanin);
      node.line = line_no;
      scan.gates.push_back(id);
    }
  }

  // PPD014 — OUTPUT declarations that never get a definition. (The
  // structural pass would also flag them as PPD002 when they feed nothing,
  // but an explicit code matches what the user wrote.)
  for (std::size_t i = 0; i < scan.outputs.size(); ++i) {
    const GraphNode& node = nodes[scan.outputs[i]];
    if (!node.driven)
      report.add(Severity::kError, "PPD014",
                 source + ":" + std::to_string(output_lines[i]),
                 "OUTPUT '" + node.name + "' is never defined",
                 "define it with a gate or remove the declaration");
  }

  report.merge(lint_graph(scan.graph));
  return scan;
}

Report lint_bench_text(const std::string& text, const std::string& source) {
  return scan_bench_text(text, source).report;
}

Report lint_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Report report;
    report.add(Severity::kError, "PPD013", path, "cannot open .bench file");
    return report;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return lint_bench_text(os.str(), path);
}

}  // namespace ppd::lint
