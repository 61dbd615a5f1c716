// Seeded mutation fuzzing of the .bench front ends and the static analyses
// behind them. The corpus is data/c17.bench, data/c432_class.bench and the
// written synthetic benchmark, mutated with byte flips, truncations,
// duplicated lines and injected runs of '(', ',' and '='. The property:
// lint::lint_bench_text and logic::parse_bench either succeed or throw
// ppd::ParseError, and every netlist that parses then goes through
// logic::run_sta, k_slackiest_paths, compute_survival and lint_sta without
// any exception, with a finite critical delay. The seed is fixed, so every
// case is reproducible; crashes it found are pinned below.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ppd/lint/bench_lint.hpp"
#include "ppd/logic/bench.hpp"
#include "ppd/logic/sta.hpp"
#include "ppd/sta/lint.hpp"
#include "ppd/sta/slack_paths.hpp"
#include "ppd/sta/survival.hpp"
#include "ppd/util/error.hpp"

namespace ppd::sta {
namespace {

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(PPD_SOURCE_DIR) + "/data/" + name,
                   std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One to three random edits of `s`.
std::string mutate(std::string s, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (pick(4)) {
      case 0:  // byte flip
        if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 + pick(255));
        break;
      case 1:  // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 2: {  // duplicated line
        const std::size_t at = s.rfind('\n', pick(s.size() + 1));
        const std::size_t from = at == std::string::npos ? 0 : at + 1;
        const std::size_t to = s.find('\n', from);
        const std::string line =
            s.substr(from, to == std::string::npos ? std::string::npos
                                                   : to - from + 1);
        s.insert(pick(s.size() + 1), line);
        break;
      }
      default: {  // injected run of grammar bytes
        static constexpr char kRun[] = {'(', ',', '='};
        s.insert(pick(s.size() + 1), 1 + pick(8), kRun[pick(3)]);
      }
    }
  }
  return s;
}

/// Everything downstream of a successful parse: none of it may throw.
void analyse(const logic::Netlist& nl) {
  const auto lib = logic::GateTimingLibrary::generic();
  const logic::StaResult timing = logic::run_sta(nl, lib);
  EXPECT_TRUE(std::isfinite(timing.critical_delay));
  (void)k_slackiest_paths(nl, lib, 4, timing.clock_period);
  (void)compute_survival(nl, lib);
  (void)lint_sta(nl, lib);
}

struct Tally {
  int parsed = 0;
  int rejected = 0;
};

/// Lint and parse `text`; analyse what parses. ParseError is the only
/// acceptable failure of the front ends, and the analyses may not fail.
void check_text(Tally& tally, const std::string& label,
                const std::string& text) {
  try {
    (void)lint::lint_bench_text(text, label);
  } catch (const ParseError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": lint_bench_text threw: " << e.what();
  }
  logic::Netlist nl;
  try {
    nl = logic::parse_bench(text);
  } catch (const ParseError&) {
    ++tally.rejected;
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": parse_bench threw: " << e.what();
    return;
  }
  ++tally.parsed;
  try {
    analyse(nl);
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": analysis of a parsed netlist threw: "
                  << e.what();
  }
}

TEST(BenchFuzz, MutatedCorpusParsesOrThrowsParseError) {
  const std::vector<std::string> corpus = {
      read_data("c17.bench"), read_data("c432_class.bench"),
      logic::write_bench(logic::synthetic_benchmark(logic::SyntheticOptions{}))};
  for (const std::string& text : corpus) {
    ASSERT_FALSE(text.empty());
    ASSERT_NO_THROW(analyse(logic::parse_bench(text)));
  }

  std::mt19937_64 rng(2007);
  constexpr int kCases = 1200;
  Tally tally;
  for (int id = 0; id < kCases; ++id) {
    const std::string& source = corpus[static_cast<std::size_t>(id) %
                                       corpus.size()];
    check_text(tally, "case " + std::to_string(id), mutate(source, rng));
  }
  // The mutations neither always break nor never break the parser.
  EXPECT_GT(tally.parsed, 0);
  EXPECT_GT(tally.rejected, 0);
}

// Pinned crashes. Both threw PreconditionError out of lint_sta on a
// netlist parse_bench had accepted.

TEST(BenchFuzz, SingleInputGateWithTwoOperandsIsAParseError) {
  // NOT(a, b) parsed, then failed gate evaluation in the PPD302
  // sensitization; the front ends now reject it as a syntax error.
  const std::string text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n";
  EXPECT_THROW((void)logic::parse_bench(text), ParseError);
  const lint::Report report = lint::lint_bench_text(text);
  EXPECT_TRUE(report.has_errors()) << lint::to_text(report);
  EXPECT_THROW((void)logic::parse_bench("INPUT(a)\nOUTPUT(y)\ny = BUFF(a, a)\n"),
               ParseError);
}

TEST(BenchFuzz, PrimaryInputThatIsAnOutputIsNoSlackPath) {
  // OUTPUT(a) on a PI made k_slackiest_paths report the one-net "path" a,
  // which sensitize_path refuses. Paths now run through at least one gate.
  const logic::Netlist nl = logic::parse_bench(
      "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(y)\ny = NAND(a, b)\n");
  const auto lib = logic::GateTimingLibrary::generic();
  const auto paths = k_slackiest_paths(nl, lib, 8);
  ASSERT_EQ(paths.size(), 2u);
  for (const SlackPath& sp : paths) EXPECT_EQ(sp.path.length(), 2u);
  EXPECT_NO_THROW(analyse(nl));
}

}  // namespace
}  // namespace ppd::sta
