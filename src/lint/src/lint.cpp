#include "ppd/lint/lint.hpp"

#include "ppd/lint/bench_lint.hpp"
#include "ppd/lint/spice_lint.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::lint {

namespace {

/// True for a .bench netlist, false for a SPICE deck.
bool is_bench(const std::string& name) {
  const auto dot = name.rfind('.');
  const std::string_view ext =
      dot == std::string::npos ? "" : std::string_view(name).substr(dot);
  if (util::iequals(ext, ".bench")) return true;
  for (const char* deck : {".sp", ".cir", ".spice"})
    if (util::iequals(ext, deck)) return false;
  throw ParseError("cannot infer input language of '" + name +
                   "' (expected .bench or .sp/.cir/.spice)");
}

}  // namespace

Report lint_text(const std::string& text, const std::string& name) {
  return is_bench(name) ? lint_bench_text(text, name)
                        : lint_spice_deck_text(text, name);
}

Report lint_file(const std::string& path) {
  return is_bench(path) ? lint_bench_file(path) : lint_spice_deck_file(path);
}

}  // namespace ppd::lint
