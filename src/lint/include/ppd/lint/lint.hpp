// Lint by file name: the extension picks the language, .bench
// (bench_lint.hpp) or .sp/.cir/.spice (spice_lint.hpp); any other name
// throws ParseError. `ppdtool lint` and the served lint query use these.
#pragma once

#include <string>

#include "ppd/lint/diagnostic.hpp"

namespace ppd::lint {

[[nodiscard]] Report lint_text(const std::string& text, const std::string& name);

/// An unreadable file is a PPD013 / PPD110 finding, not an exception.
[[nodiscard]] Report lint_file(const std::string& path);

}  // namespace ppd::lint
