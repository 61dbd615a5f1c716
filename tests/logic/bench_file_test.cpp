// File-level .bench I/O, including the netlists bundled in data/.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "ppd/logic/bench.hpp"
#include "ppd/mc/rng.hpp"
#include "ppd/util/error.hpp"

namespace ppd::logic {
namespace {

TEST(BenchFile, LoadsFromDisk) {
  const std::string path = ::testing::TempDir() + "/ppd_roundtrip.bench";
  {
    std::ofstream f(path);
    f << write_bench(c17());
  }
  const Netlist nl = load_bench_file(path);
  EXPECT_EQ(nl.gate_count(), 6u);
  std::remove(path.c_str());
}

TEST(BenchFile, MissingFileThrows) {
  EXPECT_THROW(load_bench_file("/nonexistent/definitely_missing.bench"),
               ParseError);
}

/// A netlist bundled in data/ of the source tree.
std::string bundled(const std::string& name) {
  return std::string(PPD_SOURCE_DIR) + "/data/" + name;
}

TEST(BenchFile, BundledC17MatchesBuiltin) {
  const Netlist from_file = load_bench_file(bundled("c17.bench"));
  const Netlist builtin = c17();
  EXPECT_EQ(from_file.gate_count(), builtin.gate_count());
  for (unsigned m = 0; m < 32; ++m) {
    std::vector<bool> in;
    for (unsigned b = 0; b < 5; ++b) in.push_back(((m >> b) & 1u) != 0);
    const auto v1 = builtin.evaluate(in);
    const auto v2 = from_file.evaluate(in);
    for (NetId o : builtin.outputs())
      EXPECT_EQ(v1[o], v2[from_file.find(builtin.gate(o).name)]);
  }
}

TEST(BenchFile, BundledC432ClassParses) {
  const Netlist nl = load_bench_file(bundled("c432_class.bench"));
  EXPECT_EQ(nl.inputs().size(), 36u);
  EXPECT_EQ(nl.gate_count(), 160u);
  // Functionally identical to the in-process generator with the default
  // seed (gate *emission order* differs between generator and parser, so a
  // textual comparison would be too strict).
  const Netlist gen = synthetic_benchmark(SyntheticOptions{});
  mc::Rng rng(99);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<bool> in(gen.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.uniform() < 0.5;
    const auto v1 = gen.evaluate(in);
    const auto v2 = nl.evaluate(in);
    for (NetId o : gen.outputs())
      EXPECT_EQ(v1[o], v2[nl.find(gen.gate(o).name)]);
  }
}

}  // namespace
}  // namespace ppd::logic
