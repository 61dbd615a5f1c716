// Seeded mutation fuzzing of every reader behind util::json: the bare
// parser, resil::Checkpoint::load and net::SessionJournal::replay. The
// corpus is real output of the writers — a saved checkpoint, a session
// journal, a live STATS reply and an `sta --json` body — mutated with byte
// flips, truncations, duplicated ranges and injected runs of '[', '"' and
// '\'. The property: each reader either succeeds or throws ppd::ParseError;
// anything else (another exception type, a crash, a sanitizer report)
// fails. The seed is fixed, so every case is reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ppd/net/client.hpp"
#include "ppd/net/journal.hpp"
#include "ppd/net/query.hpp"
#include "ppd/net/server.hpp"
#include "ppd/resil/checkpoint.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"

namespace ppd::util::json {
namespace {

constexpr const char* kBenchText =
    "INPUT(a\"x)\nINPUT(b\\y)\nOUTPUT(o)\no = NAND(a\"x, b\\y)\n";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string checkpoint_doc(const std::string& path) {
  resil::Checkpoint ck;
  ck.bind(41, 12, "fuzz \"sweep\"\twith\\escapes");
  ck.record(0, "0.125,3");
  ck.record(1, "1e-09,\n7");
  ck.record(5, "");
  ck.record_quarantine({3, 33, "newton,gmin-step", "bad \"quote\"\x01"});
  ck.save(path);
  return slurp(path);
}

std::string journal_doc(const std::string& path) {
  std::remove(path.c_str());
  {
    net::SessionJournal journal(path);
    journal.record_open("s1");
    journal.record_set("s1", "points", "5");
    journal.record_upload("s1", "c.bench", kBenchText);
    journal.record_accept("s1", 1, "transfer", "");
    journal.record_accept("s1", 2, "lint", "c.bench");
    journal.record_ack("s1", 1,
                       "{\"event\":\"result\",\"id\":1,\"body\":\"a\\nb\"}");
    journal.record_open("s2");
    journal.record_close("s2");
  }
  return slurp(path);
}

std::string stats_doc() {
  net::Server server{net::ServerOptions{}};
  server.start();
  net::Client client = net::Client::connect(server.port());
  client.set("points", "3");
  (void)client.run("transfer");
  std::string stats = client.stats();
  client.quit();
  server.stop();
  return stats;
}

std::string sta_doc() {
  net::QueryParams params = net::params_from_lookup(
      net::QueryKind::kSta,
      [](const std::string&) -> std::optional<std::string> {
        return std::nullopt;
      });
  params.lint_json = true;
  params.bench_name = "odd\"name\\.bench";
  params.bench_text = kBenchText;
  return net::run_query(net::QueryKind::kSta, params).body;
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
      case 2: {  // duplicated range
        const std::size_t from = pick(s.size() + 1);
        const std::string range = s.substr(from, pick(s.size() - from + 1));
        s.insert(pick(s.size() + 1), range);
        break;
      }
      default: {  // injected run: short, or deep enough to probe the cap
        static constexpr char kRun[] = {'[', '"', '\\'};
        const std::size_t len = 1 + pick(pick(4) == 0 ? 4096 : 8);
        s.insert(pick(s.size() + 1), len, kRun[pick(3)]);
      }
    }
  }
  return s;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Run `read`, counting success and ParseError; any other exception fails.
template <class Read>
void expect_accept_or_parse_error(Tally& tally, int id, Read&& read) {
  try {
    read();
    ++tally.accepted;
  } catch (const ParseError&) {
    ++tally.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "case " << id << ": unexpected exception: " << e.what();
  }
}

TEST(JsonFuzz, MutatedCorpusParsesOrThrowsParseError) {
  const std::string dir = testing::TempDir();
  const std::string ck_path = dir + "ppd_json_fuzz_ck.json";
  const std::string journal_path = dir + "ppd_json_fuzz.journal";
  const std::string mutant_path = dir + "ppd_json_fuzz_mutant";
  enum Source { kCheckpoint, kJournal, kStats, kSta, kSources };
  const std::vector<std::string> corpus = {
      checkpoint_doc(ck_path), journal_doc(journal_path), stats_doc(),
      sta_doc()};

  // Every unmutated document reads back cleanly.
  ASSERT_NO_THROW((void)resil::Checkpoint::load(ck_path));
  ASSERT_EQ(net::SessionJournal::replay(journal_path).size(), 1u);
  ASSERT_NO_THROW((void)parse(corpus[kStats]));
  ASSERT_NO_THROW((void)parse(corpus[kSta]));

  std::mt19937_64 rng(20070416);
  constexpr int kCases = 2400;
  Tally parsed, loaded, replayed;
  for (int id = 0; id < kCases; ++id) {
    const auto source = static_cast<Source>(id % kSources);
    const std::string mutant = mutate(corpus[source], rng);
    expect_accept_or_parse_error(parsed, id, [&] { (void)parse(mutant); });
    if (source == kCheckpoint) {
      spit(mutant_path, mutant);
      expect_accept_or_parse_error(loaded, id, [&] {
        (void)resil::Checkpoint::load(mutant_path);
      });
    } else if (source == kJournal) {
      spit(mutant_path, mutant);
      std::istringstream lines(mutant);
      for (std::string line; std::getline(lines, line);)
        expect_accept_or_parse_error(parsed, id, [&] { (void)parse(line); });
      expect_accept_or_parse_error(replayed, id, [&] {
        (void)net::SessionJournal::replay(mutant_path);
      });
    }
  }
  // The mutations neither always break nor never break each reader.
  EXPECT_GT(parsed.accepted, 0);
  EXPECT_GT(parsed.rejected, 0);
  EXPECT_GT(loaded.accepted, 0);
  EXPECT_GT(loaded.rejected, 0);
  EXPECT_EQ(replayed.accepted, kCases / kSources);  // replay skips, never throws
  for (const std::string& path : {ck_path, journal_path, mutant_path})
    std::remove(path.c_str());
}

}  // namespace
}  // namespace ppd::util::json
