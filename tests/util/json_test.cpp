// ppd::util::json — the one JSON writer and reader behind every file format
// and wire message: reversible quoting, the nested reader's shape and
// limits, strict unsigned integers, and the obs writers (trace, log, run
// meta) escaping control bytes so their strings read back unchanged.
#include "ppd/util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ppd/obs/log.hpp"
#include "ppd/obs/run.hpp"
#include "ppd/obs/trace.hpp"
#include "ppd/util/error.hpp"

namespace ppd::util::json {
namespace {

TEST(Json, QuoteRoundTripsEverything) {
  const std::string nasty =
      "line1\nline2\ttab \"quoted\" back\\slash\rcr \x01\x1f bytes";
  const std::string quoted = quote(nasty);
  EXPECT_EQ(parse(quoted).as_string(), nasty);
  // The quoted form itself must be one line (the framing depends on it).
  EXPECT_EQ(quoted.find('\n'), std::string::npos);
  EXPECT_EQ(quoted.find('\r'), std::string::npos);
}

TEST(Json, QuoteWritesTheDocumentedBytes) {
  // Every checkpoint, metrics snapshot, lint report, journal record and
  // result event depends on these exact bytes: short escapes for the five
  // named characters, lowercase \u00xx for other control bytes, everything
  // else (DEL, UTF-8) verbatim.
  EXPECT_EQ(quote("a\"b\\c\nd\re\tf\x01g\x1f\x7f\xc3\xa9"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\x7f\xc3\xa9\"");
  EXPECT_EQ(quote(std::string("\0\x1b", 2)), "\"\\u0000\\u001b\"");
  EXPECT_EQ(quote(""), "\"\"");
}

TEST(Json, UnquoteRejectsMalformedEscapes) {
  EXPECT_THROW((void)parse("\"\\q\""), ParseError);
  EXPECT_THROW((void)parse("no quotes"), ParseError);
  EXPECT_THROW((void)parse("\"\\u2603\""), ParseError);  // > 0xff
}

TEST(Json, ParseReadsFlatEventShapes) {
  const Value fields = parse(
      R"({"event":"result","id":42,"exit_code":0,"elapsed_s":0.25,)"
      R"("ok":true,"body":"a\nb"})");
  EXPECT_EQ(fields.at("event").as_string(), "result");
  EXPECT_EQ(fields.at("id").scalar, "42");
  EXPECT_EQ(fields.at("elapsed_s").scalar, "0.25");
  EXPECT_EQ(fields.at("ok").scalar, "true");
  EXPECT_EQ(fields.at("body").as_string(), "a\nb");
  EXPECT_THROW((void)parse("{\"unterminated\":"), ParseError);
}

TEST(Json, ParseReadsNestedDocuments) {
  const Value doc = parse(
      R"({"server":{"queries_ok":3,"draining":false,"uptime_s":1.5},)"
      R"("kinds":{"transfer":{"queue_s":{"bins":[[1e-6,2e-6,4]]}}},)"
      R"("sessions":[{"token":"s1"},{"token":"s2"}],"none":null})");
  EXPECT_EQ(doc.at("server").at("queries_ok").as_uint(), 3u);
  EXPECT_FALSE(doc.at("server").at("draining").as_bool());
  EXPECT_DOUBLE_EQ(doc.at("server").at("uptime_s").as_number(), 1.5);
  const Value& bins = doc.at("kinds").at("transfer").at("queue_s").at("bins");
  ASSERT_EQ(bins.items.size(), 1u);
  ASSERT_EQ(bins.items[0].items.size(), 3u);
  EXPECT_DOUBLE_EQ(bins.items[0].items[2].as_number(), 4.0);
  ASSERT_EQ(doc.at("sessions").items.size(), 2u);
  EXPECT_EQ(doc.at("sessions").items[1].at("token").scalar, "s2");
  EXPECT_EQ(doc.at("none").kind, Value::Kind::kNull);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW((void)doc.at("absent"), ParseError);

  EXPECT_THROW((void)parse("{\"a\":}"), ParseError);
  EXPECT_THROW((void)parse("{\"a\":1} extra"), ParseError);
  EXPECT_THROW((void)parse("[[[[" + std::string(40, '[')), ParseError);
}

TEST(Json, ObjectMembersKeepDocumentOrder) {
  const Value doc = parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "z");
  EXPECT_EQ(doc.members[1].first, "a");
  EXPECT_EQ(doc.members[2].first, "m");
}

TEST(Json, NestingIsCappedAt32Levels) {
  EXPECT_NO_THROW((void)parse(std::string(33, '[') + std::string(33, ']')));
  EXPECT_THROW((void)parse(std::string(34, '[') + std::string(34, ']')),
               ParseError);
  // Hostile depth is a typed error, never a stack overflow.
  EXPECT_THROW((void)parse(std::string(2u << 20, '[')), ParseError);
}

TEST(Json, AcceptsTheFourJsonWhitespaceBytesOnly) {
  const Value doc = parse(" \t\r\n{\n  \"a\": [1,\r\n 2]\t}\n");
  EXPECT_EQ(doc.at("a").items.size(), 2u);
  EXPECT_THROW((void)parse("\f{}"), ParseError);
  EXPECT_THROW((void)parse("{}\v"), ParseError);
}

TEST(Json, AsUintAcceptsPlainDigitsThatFit) {
  EXPECT_EQ(parse("0").as_uint(), 0u);
  EXPECT_EQ(parse("18446744073709551615").as_uint(), UINT64_MAX);
  EXPECT_THROW((void)parse("18446744073709551616").as_uint(), ParseError);
  EXPECT_THROW((void)parse("1234567890123456789012345").as_uint(), ParseError);
  EXPECT_THROW((void)parse("-1").as_uint(), ParseError);
  EXPECT_THROW((void)parse("-0").as_uint(), ParseError);
  EXPECT_THROW((void)parse("1.0").as_uint(), ParseError);
  EXPECT_THROW((void)parse("1e3").as_uint(), ParseError);
  EXPECT_THROW((void)parse("\"7\"").as_uint(), ParseError);
  EXPECT_DOUBLE_EQ(parse("-1.5e3").as_number(), -1500.0);
}

TEST(Json, RejectsWhatTheGrammarForbids) {
  for (const char* bad :
       {"", "   ", "01", "1.", ".5", "-", "1e", "+1", "nan", "tru", "nul",
        "\"raw\ttab\"", "\"open", "\"\\u00", "\"\\u00zz\"", "{\"a\" 1}",
        "{\"a\":1,}", "[1,]", "[1 2]", "{1:2}", "\"a\" \"b\""})
    EXPECT_THROW((void)parse(bad), ParseError) << bad;
}

// Span names, log text and the recorded command line go through quote, so
// control bytes in them (tab, newline, SOH) read back exactly.
TEST(Json, ObsWritersEscapeControlBytesReversibly) {
  const std::string weird = "tab\there\nnewline\rcr\x01soh \"q\" \\";

  obs::TraceSession& session = obs::TraceSession::global();
  session.start();
  { const obs::Span span(weird); }
  session.stop();
  std::ostringstream trace;
  session.write_chrome_trace(trace);
  session.clear();
  const Value doc = parse(trace.str());
  bool found = false;
  for (const Value& e : doc.at("traceEvents").items)
    found = found || e.at("name").as_string() == weird;
  EXPECT_TRUE(found);

  const std::string path = testing::TempDir() + "ppd_json_test_log.jsonl";
  obs::Logger& logger = obs::Logger::global();
  std::ostringstream text;  // keep the text sink's copy off stderr
  logger.set_text_stream(&text);
  logger.set_json_path(path);
  obs::log_error(weird, weird, {{weird, weird}});
  logger.set_json_path("");
  logger.set_text_stream(nullptr);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  const Value record = parse(line);
  EXPECT_EQ(record.at("component").as_string(), weird);
  EXPECT_EQ(record.at("msg").as_string(), weird);
  EXPECT_EQ(record.at(weird).as_string(), weird);
  std::remove(path.c_str());

  EXPECT_EQ(parse(obs::run_meta_json(7, 1, weird)).at("command").as_string(),
            weird);
}

}  // namespace
}  // namespace ppd::util::json
