// Golden pin of the `sta` query: the exact text and JSON bodies of
// net::run_query(kSta) for the bundled netlists, at the default clock, an
// explicit clock and k = 12. Any change to the STA pass, the K-slackiest
// enumerator, the survival counts or the PPD3xx lint shows up here byte for
// byte. The files under tests/sta/golden/ are `ppdtool sta` output, e.g.
//
//   ppdtool sta --bench=data/c17.bench --k=12 --json > golden/c17.k12.json
//
// (no --bench selects the bundled synthetic netlist).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "ppd/net/query.hpp"

namespace ppd::net {
namespace {

std::string source_path(const std::string& rel) {
  return std::string(PPD_SOURCE_DIR) + "/" + rel;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct GoldenCase {
  const char* name;
  std::map<std::string, std::string> keys;
};

std::string sta_body(std::map<std::string, std::string> keys) {
  const QueryParams params = params_from_lookup(
      QueryKind::kSta,
      [&keys](const std::string& key) -> std::optional<std::string> {
        const auto it = keys.find(key);
        if (it == keys.end()) return std::nullopt;
        return it->second;
      });
  return run_query(QueryKind::kSta, params).body;
}

TEST(StaGolden, BodiesMatchTheRecordedOutput) {
  const std::map<std::string, std::string> netlists{
      {"c17", source_path("data/c17.bench")},
      {"c432_class", source_path("data/c432_class.bench")},
      {"synthetic", ""},
  };
  const GoldenCase cases[] = {
      {"default", {}},
      {"clock", {{"clock", "1e-9"}}},
      {"k12", {{"k", "12"}}},
  };
  for (const auto& [netlist, bench] : netlists) {
    for (const GoldenCase& c : cases) {
      for (const bool json : {false, true}) {
        auto keys = c.keys;
        if (!bench.empty()) keys["bench"] = bench;
        if (json) keys["json"] = "1";
        const std::string file = netlist + "." + c.name +
                                 (json ? ".json" : ".txt");
        EXPECT_EQ(sta_body(keys), read_file(source_path("tests/sta/golden/" +
                                                        file)))
            << file;
      }
    }
  }
}

}  // namespace
}  // namespace ppd::net
