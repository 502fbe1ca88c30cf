// Unit tests for hssta/util: error macros, strings, table, csv, ascii plots,
// JSON and the hex-float writer of the text serializers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "hssta/stats/rng.hpp"
#include "hssta/util/ascii_plot.hpp"
#include "hssta/util/csv.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/json.hpp"
#include "hssta/util/strings.hpp"
#include "hssta/util/table.hpp"
#include "hssta/util/timer.hpp"
#include "hssta/util/token_reader.hpp"

namespace hssta {
namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    HSSTA_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

TEST(Error, AssertPassesOnTrue) {
  EXPECT_NO_THROW(HSSTA_ASSERT(2 + 2 == 4, "sanity"));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto f = split("a,,b,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "b");
  EXPECT_EQ(f[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  const auto f = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "foo");
  EXPECT_EQ(f[1], "bar");
  EXPECT_EQ(f[2], "baz");
}

TEST(Strings, LowerAndPrefix) {
  EXPECT_EQ(to_lower("NaNd2"), "nand2");
  EXPECT_TRUE(starts_with("INPUT(a)", "INPUT"));
  EXPECT_FALSE(starts_with("IN", "INPUT"));
}

TEST(Strings, Formatting) {
  EXPECT_EQ(fmt_percent(0.134, 1), "13.4%");
  EXPECT_EQ(fmt_percent(0.2, 0), "20%");
  EXPECT_EQ(fmt_double(0.5), "0.5");
}

TEST(Table, AlignsAndCounts) {
  Table t({"circuit", "Eo", "Em"});
  t.add_row({"c432", "336", "45"});
  t.add_row({"c7552", "6144", "1073"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string("Table I");
  EXPECT_NE(s.find("Table I"), std::string::npos);
  EXPECT_NE(s.find("c7552"), std::string::npos);
  // Header rule exists.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Csv, WritesAndEscapes) {
  const std::string path = ::testing::TempDir() + "hssta_csv_test.csv";
  {
    CsvWriter w(path);
    w.write_row(std::vector<std::string>{"a", "with,comma", "with\"quote"});
    w.write_row(std::vector<double>{1.5, 2.25});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"with,comma\",\"with\"\"quote\"");
  EXPECT_EQ(line2, "1.5,2.25");
  std::remove(path.c_str());
}

TEST(AsciiPlot, HistogramRendersBars) {
  std::ostringstream os;
  plot_histogram(os, {0.0, 0.5, 1.0}, {10, 5}, 20, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("####################"), std::string::npos);  // full bar
  EXPECT_NE(s.find("##########"), std::string::npos);            // half bar
}

TEST(AsciiPlot, HistogramRejectsBadEdges) {
  std::ostringstream os;
  EXPECT_THROW(plot_histogram(os, {0.0, 1.0}, {1, 2}), Error);
}

TEST(AsciiPlot, XyPlotsSeries) {
  std::ostringstream os;
  PlotSeries s1{"line", {0, 1, 2, 3}, {0, 1, 2, 3}, '*'};
  PlotSeries s2{"flat", {0, 1, 2, 3}, {1, 1, 1, 1}, 'o'};
  plot_xy(os, {s1, s2}, 40, 10, "curves");
  const std::string out = os.str();
  EXPECT_NE(out.find("curves"), std::string::npos);
  EXPECT_NE(out.find("* = line"), std::string::npos);
  EXPECT_NE(out.find("o = flat"), std::string::npos);
}

TEST(Timer, MeasuresNonNegativeTime) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// --- JsonReader -------------------------------------------------------------

TEST(JsonReader, ParsesScalarsContainersAndWhitespace) {
  using util::JsonReader;
  using util::JsonValue;
  EXPECT_TRUE(JsonReader::parse("null").is_null());
  EXPECT_TRUE(JsonReader::parse("true").as_bool());
  EXPECT_FALSE(JsonReader::parse(" false ").as_bool());
  EXPECT_EQ(JsonReader::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(JsonReader::parse("0").as_number(), 0.0);
  EXPECT_EQ(JsonReader::parse("\"abc\"").as_string(), "abc");
  EXPECT_TRUE(JsonReader::parse("[]").items().empty());
  EXPECT_TRUE(JsonReader::parse("{}").members().empty());

  const JsonValue doc = JsonReader::parse(
      " { \"a\" : [ 1 , 2.5 , true , null ] ,\n\t\"b\" : { \"c\" : \"d\" } }");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.members().size(), 2u);
  const JsonValue& a = doc.at("a");
  ASSERT_EQ(a.items().size(), 4u);
  EXPECT_EQ(a.items()[0].as_count("n"), 1u);
  EXPECT_EQ(a.items()[1].as_number(), 2.5);
  EXPECT_TRUE(a.items()[2].as_bool());
  EXPECT_TRUE(a.items()[3].is_null());
  EXPECT_EQ(doc.at("b").at("c").as_string(), "d");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), Error);
}

TEST(JsonReader, DecodesStringEscapesIncludingSurrogatePairs) {
  using util::JsonReader;
  EXPECT_EQ(JsonReader::parse(R"("a\"b\\c\/d\b\f\n\r\t")").as_string(),
            "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(JsonReader::parse(R"("\u0041\u00e9\u20ac")").as_string(),
            "A\xc3\xa9\xe2\x82\xac");  // A, é, €
  EXPECT_EQ(JsonReader::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // one surrogate pair -> 4-byte UTF-8
}

TEST(JsonReader, RoundTripsWriterDoublesBitExactly) {
  // %.17g out, strtod back: every finite double must survive unchanged.
  for (const double x : {0.1, 1.0 / 3.0, 1.2345678901234567e-12, 2.5e300,
                         -0.0, 1e-320 /* denormal */}) {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.value(x);
    const double back = util::JsonReader::parse(os.str()).as_number();
    EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0) << os.str();
  }
}

TEST(JsonReader, RejectsMalformedDocuments) {
  using util::JsonReader;
  const char* bad[] = {
      "",                      // empty
      "  ",                    // whitespace only
      "{",                     // unterminated object
      "[1,2",                  // unterminated array
      "[1,]",                  // trailing comma
      "{\"a\":1,}",            // trailing comma in object
      "{\"a\" 1}",             // missing colon
      "{a:1}",                 // unquoted key
      "\"abc",                 // unterminated string
      "\"a\\x\"",              // unknown escape
      "\"a\nb\"",              // raw control character in string
      "\"\\ud83d\"",           // lone high surrogate
      "\"\\ude00\"",           // lone low surrogate
      "\"\\u12g4\"",           // bad hex digit
      "01",                    // leading zero
      "+1",                    // bare plus
      "1.",                    // missing fraction digits
      ".5",                    // missing integer digits
      "1e",                    // missing exponent digits
      "1e999",                 // overflow to infinity
      "NaN",                   // not a JSON token
      "Infinity",              // not a JSON token
      "truth",                 // keyword typo
      "nul",                   // truncated keyword
      "1 2",                   // trailing content
      "{} []",                 // two documents
      "{\"a\":1,\"a\":2}",     // duplicate key
  };
  for (const char* text : bad)
    EXPECT_THROW((void)JsonReader::parse(text), Error) << text;
}

TEST(JsonReader, EnforcesDepthLimitAndTypedAccess) {
  using util::JsonReader;
  using util::JsonValue;
  // kMaxDepth nested arrays parse; one more is rejected.
  const std::string at_limit(JsonReader::kMaxDepth, '[');
  std::string doc = at_limit;
  for (size_t i = 0; i < JsonReader::kMaxDepth; ++i) doc += ']';
  EXPECT_NO_THROW((void)JsonReader::parse(doc));
  EXPECT_THROW((void)JsonReader::parse("[" + doc + "]"), Error);

  const JsonValue v = JsonReader::parse("[1.5, -2, 18446744073709551616]");
  EXPECT_THROW((void)v.as_bool(), Error);          // wrong type
  EXPECT_THROW((void)v.items()[0].as_count("x"), Error);  // fraction
  EXPECT_THROW((void)v.items()[1].as_count("x"), Error);  // negative
  EXPECT_THROW((void)v.items()[2].as_count("x"), Error);  // > 2^53
  EXPECT_EQ(JsonReader::parse("12").as_count("x"), 12u);
}

TEST(HexFloat, MatchesPrintfPercentA) {
  // hexf formats with std::to_chars; the .hstm and .hsds bytes are those
  // of printf's "%a", so the two must agree on every bit pattern.
  const auto expect_printf_text = [](double v) {
    char ref[64];
    const int n = std::snprintf(ref, sizeof(ref), "%a", v);
    ASSERT_GT(n, 0);
    EXPECT_EQ(util::hexf(v).view(), std::string_view(ref, n));
    std::ostringstream os;
    os << util::hexf(v);
    EXPECT_EQ(os.str(), std::string(ref, n));
  };
  const auto from_bits = [](uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  using limits = std::numeric_limits<double>;
  const double finite[] = {0.0, 1.0, 0.1, 2.5e-3, limits::max(), limits::min()};
  for (const double v : finite) {
    expect_printf_text(v);
    expect_printf_text(-v);
  }
  expect_printf_text(limits::denorm_min());
  expect_printf_text(-limits::denorm_min());
  expect_printf_text(limits::infinity());
  expect_printf_text(-limits::infinity());
  expect_printf_text(limits::quiet_NaN());
  expect_printf_text(-limits::quiet_NaN());
  expect_printf_text(from_bits(0x800fffffffffffffull));  // largest subnormal
  expect_printf_text(from_bits(0x7ff0000000000001ull));  // signalling NaN
  expect_printf_text(from_bits(0xfff8000000000001ull));  // NaN with payload
  stats::Rng rng(0x4E5F);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.next_u64();
    expect_printf_text(from_bits(bits));
    expect_printf_text(from_bits(bits & 0x800fffffffffffffull));  // subnormal
  }
}

}  // namespace
}  // namespace hssta
