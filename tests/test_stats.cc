/**
 * @file
 * Unit tests for the reporting layer (text tables, CSV) and the logging
 * helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "stats/json.hh"
#include "stats/csv.hh"
#include "stats/table.hh"

namespace prefsim
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "12345"});
    const std::string s = t.str();
    // Every rendered row has the same width.
    std::istringstream is(s);
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width) << line;
    }
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_NE(s.find("12345"), std::string::npos);
}

TEST(TextTable, RuleSeparators)
{
    TextTable t({"x"});
    t.addRow({"1"});
    t.addRule();
    t.addRow({"2"});
    const std::string s = t.str();
    // Top, header, two data rows separated by a rule, bottom: 5 rules.
    std::size_t rules = 0, pos = 0;
    while ((pos = s.find("+--", pos)) != std::string::npos) {
        ++rules;
        pos += 3;
    }
    EXPECT_EQ(rules, 4u);
    EXPECT_EQ(t.numRows(), 2u); // Rules don't count as rows.
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(0.375, 2), "0.38");
    EXPECT_EQ(TextTable::num(1.0, 3), "1.000");
    EXPECT_EQ(TextTable::percent(0.125, 1), "12.5%");
    EXPECT_EQ(TextTable::percent(1.0, 0), "100%");
    EXPECT_EQ(TextTable::count(42), "42");
}

TEST(TextTableDeathTest, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Csv, PlainRow)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row({"a", "b", "c"});
    EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, EscapesSeparatorsAndQuotes)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, EscapesCarriageReturnAndEdgeWhitespace)
{
    // CR and leading/trailing whitespace are silently trimmed or mangled
    // by many readers when left unquoted (regression: escape() used to
    // pass these through bare).
    EXPECT_EQ(CsvWriter::escape("a\rb"), "\"a\rb\"");
    EXPECT_EQ(CsvWriter::escape("a\r\nb"), "\"a\r\nb\"");
    EXPECT_EQ(CsvWriter::escape(" lead"), "\" lead\"");
    EXPECT_EQ(CsvWriter::escape("trail "), "\"trail \"");
    EXPECT_EQ(CsvWriter::escape("\ttab"), "\"\ttab\"");
    EXPECT_EQ(CsvWriter::escape("tab\t"), "\"tab\t\"");
    // Interior whitespace needs no quoting.
    EXPECT_EQ(CsvWriter::escape("in side"), "in side");
}

TEST(Csv, MultipleRows)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.row({"h1", "h2"});
    w.row({"1,5", "2"});
    EXPECT_EQ(os.str(), "h1,h2\n\"1,5\",2\n");
}

TEST(Logging, QuietDropsInformKeepsWarnings)
{
    std::vector<std::pair<LogLevel, std::string>> got;
    ScopedLogSink guard([&](LogLevel l, const std::string &m) {
        got.emplace_back(l, m);
    });
    const LogLevel previous = setLogThreshold(LogLevel::Debug);
    setQuiet(true);
    EXPECT_TRUE(quiet());
    prefsim_debug("dropped");
    prefsim_inform("dropped");
    prefsim_warn("kept");
    setQuiet(false);
    EXPECT_FALSE(quiet());
    setLogThreshold(previous);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first, LogLevel::Warn);
    EXPECT_EQ(got[0].second, "kept");
}

TEST(Logging, ScopedSinkCapturesAndRestoresPrevious)
{
    std::string outer;
    ScopedLogSink outer_guard(
        [&](LogLevel, const std::string &m) { outer += m; });
    {
        std::vector<std::pair<LogLevel, std::string>> inner;
        ScopedLogSink inner_guard([&](LogLevel lv, const std::string &m) {
            inner.emplace_back(lv, m);
        });
        prefsim_warn("to-inner ", 1);
        prefsim_inform("to-inner ", 2);
        ASSERT_EQ(inner.size(), 2u);
        EXPECT_EQ(inner[0].first, LogLevel::Warn);
        EXPECT_NE(inner[0].second.find("to-inner 1"), std::string::npos);
        EXPECT_EQ(inner[1].first, LogLevel::Inform);
        EXPECT_TRUE(outer.empty());
    }
    // inner_guard's destructor restored the outer sink, not the default.
    prefsim_warn("to-outer");
    EXPECT_NE(outer.find("to-outer"), std::string::npos);
}

TEST(Logging, ThresholdFiltersBelowLevel)
{
    std::vector<LogLevel> seen;
    ScopedLogSink guard(
        [&](LogLevel lv, const std::string &) { seen.push_back(lv); });
    const LogLevel before = setLogThreshold(LogLevel::Warn);
    EXPECT_EQ(before, LogLevel::Inform); // The default threshold.
    prefsim_inform("suppressed");
    prefsim_debug("suppressed");
    prefsim_warn("emitted");
    setLogThreshold(LogLevel::Debug);
    prefsim_debug("emitted");
    setLogThreshold(before);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], LogLevel::Warn);
    EXPECT_EQ(seen[1], LogLevel::Debug);
}

TEST(Logging, ParseLogLevelNames)
{
    EXPECT_EQ(parseLogLevel("error"), LogLevel::Fatal);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("warning"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_FALSE(parseLogLevel("bogus").has_value());
    EXPECT_FALSE(parseLogLevel("").has_value());
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(prefsim_panic("boom ", 42), "panic: boom 42");
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT(prefsim_fatal("bad config ", "x"),
                testing::ExitedWithCode(1), "fatal: bad config x");
}

TEST(LoggingDeathTest, AssertCarriesMessage)
{
    const int value = 7;
    EXPECT_DEATH(prefsim_assert(value == 8, "value was ", value),
                 "assertion 'value == 8' failed: value was 7");
}


TEST(Json, EscapeRules)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "\"plain\"");
    EXPECT_EQ(JsonWriter::escape("say \"hi\""), "\"say \\\"hi\\\"\"");
    EXPECT_EQ(JsonWriter::escape("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, WriterKeysMatchEscape)
{
    // A key or string value goes to the stream unescaped when it can;
    // whichever path it takes, the bytes must be escape()'s.
    const std::vector<std::string> strings = {
        "plain",
        "say \"hi\"",
        "back\\slash",
        std::string("ctl\x01\x1f\n\t\r", 8),
        std::string("nul\0in", 6),
        "caf\xc3\xa9",
        std::string("\x80\xff\x7f", 3),
        "",
    };
    for (const std::string &s : strings) {
        std::ostringstream os;
        JsonWriter j(os);
        j.beginObject();
        j.key(s).value(s);
        j.endObject();
        const std::string escaped = JsonWriter::escape(s);
        std::string want = "{";
        want += escaped;
        want += ':';
        want += escaped;
        want += '}';
        EXPECT_EQ(os.str(), want) << escaped;
    }
    // Bytes >= 0x80 (UTF-8) pass through; controls become \u escapes.
    EXPECT_EQ(JsonWriter::escape("caf\xc3\xa9"), "\"caf\xc3\xa9\"");
    EXPECT_EQ(JsonWriter::escape("\\"), "\"\\\\\"");
    EXPECT_EQ(JsonWriter::escape(std::string("\x1f", 1)), "\"\\u001f\"");
}

TEST(Json, WriterTakesUnterminatedViews)
{
    // A string_view into a larger buffer: only its own bytes are keys.
    const char buf[] = {'k', 'e', 'y', 'X', 'v', 'a', 'l', 'Y'};
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key(std::string_view(buf, 3)).value(std::string_view(buf + 4, 3));
    j.key(std::string_view(buf + 1, 1)).value(std::string_view(buf, 0));
    j.endObject();
    EXPECT_EQ(os.str(), "{\"key\":\"val\",\"e\":\"\"}");
}

TEST(Json, WriterIntegerExtremes)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray();
    j.value(std::uint64_t{0});
    j.value(std::numeric_limits<std::uint64_t>::max());
    j.value(std::uint64_t{10});
    j.endArray();
    EXPECT_EQ(os.str(), "[0,18446744073709551615,10]");
}

TEST(Json, WriterShapes)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key("a").value(std::uint64_t{1});
    j.key("b").beginArray();
    j.value(std::uint64_t{2}).value(std::uint64_t{3});
    j.endArray();
    j.key("c").value(true);
    j.key("d").value("x");
    j.endObject();
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[2,3],\"c\":true,\"d\":\"x\"}");
}

/** An unbuffered sink that records the size of every call the stream
 *  makes into it, as the benchmark's counting sink sees them. */
class CallLog : public std::streambuf
{
  public:
    std::string bytes;
    std::vector<std::size_t> calls;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        bytes.append(s, static_cast<std::size_t>(n));
        calls.push_back(static_cast<std::size_t>(n));
        return n;
    }

    int_type
    overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof()))
            return traits_type::not_eof(ch);
        bytes += traits_type::to_char_type(ch);
        calls.push_back(1);
        return ch;
    }
};

/** The writer as it was before it buffered: every token goes straight
 *  to the stream. Same separators, escapes and number formats. */
class StreamingJson
{
  public:
    explicit StreamingJson(std::ostream &os) : os_(os) {}

    StreamingJson &beginObject() { return open('{'); }
    StreamingJson &endObject() { return close('}'); }
    StreamingJson &beginArray() { return open('['); }
    StreamingJson &endArray() { return close(']'); }

    StreamingJson &
    key(std::string_view name)
    {
        separate();
        os_ << JsonWriter::escape(name) << ':';
        pending_key_ = true;
        return *this;
    }

    StreamingJson &
    value(std::string_view v)
    {
        separate();
        os_ << JsonWriter::escape(v);
        return *this;
    }

    StreamingJson &
    value(double v)
    {
        separate();
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        os_ << buf;
        return *this;
    }

    StreamingJson &
    value(std::uint64_t v)
    {
        separate();
        os_ << v;
        return *this;
    }

    StreamingJson &
    value(bool v)
    {
        separate();
        os_ << (v ? "true" : "false");
        return *this;
    }

  private:
    void
    separate()
    {
        if (pending_key_) {
            pending_key_ = false;
            return;
        }
        if (!has_.empty() && has_.back())
            os_ << ',';
        if (!has_.empty())
            has_.back() = true;
    }

    StreamingJson &
    open(char ch)
    {
        separate();
        os_ << ch;
        has_.push_back(false);
        return *this;
    }

    StreamingJson &
    close(char ch)
    {
        os_ << ch;
        has_.pop_back();
        return *this;
    }

    std::ostream &os_;
    std::vector<bool> has_;
    bool pending_key_ = false;
};

/** A random nested value: containers up to @p depth levels down, and
 *  scalars of every kind (strings with and without escapes). */
template <typename Writer>
void
randomValue(Writer &w, Rng &rng, unsigned depth)
{
    static const char *const kStrings[] = {"", "plain", "say \"hi\"",
                                           "tab\there", "caf\xc3\xa9",
                                           "back\\slash"};
    const std::uint64_t pick = rng.below(depth > 0 ? 7 : 5);
    switch (pick) {
      case 0:
        w.value(std::string_view(kStrings[rng.below(6)]));
        break;
      case 1:
        w.value(rng.next());
        break;
      case 2:
        w.value(static_cast<double>(rng.next() % 1000003) / 7.0);
        break;
      case 3:
        w.value(rng.chance(0.5));
        break;
      case 4:
        w.value(std::uint64_t{rng.below(10)});
        break;
      case 5: {
        w.beginArray();
        const std::uint64_t n = rng.below(12);
        for (std::uint64_t i = 0; i < n; ++i)
            randomValue(w, rng, depth - 1);
        w.endArray();
        break;
      }
      default: {
        w.beginObject();
        const std::uint64_t n = rng.below(8);
        for (std::uint64_t i = 0; i < n; ++i) {
            w.key(std::to_string(rng.below(50)));
            randomValue(w, rng, depth - 1);
        }
        w.endObject();
      }
    }
}

/** A document of @p entries random members under one object. */
template <typename Writer>
void
randomDocument(Writer &w, std::uint64_t seed, unsigned entries)
{
    Rng rng(seed);
    w.beginObject();
    for (unsigned i = 0; i < entries; ++i) {
        w.key(std::to_string(i));
        randomValue(w, rng, 4);
    }
    w.endObject();
}

TEST(JsonWriterBuffer, NewlineAfterTheCloseFollowsTheDocument)
{
    // The document's bytes reach the stream when it closes, so a raw
    // write while the writer is still alive lands after them.
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key("runs").beginArray();
    j.value(std::uint64_t{1});
    j.endArray();
    EXPECT_EQ(os.str(), ""); // Still buffered: the object is open.
    j.endObject();
    os << "\n";
    EXPECT_EQ(os.str(), "{\"runs\":[1]}\n");
}

TEST(JsonWriterBuffer, TopLevelScalarIsWrittenAtOnce)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.value("alone");
    EXPECT_EQ(os.str(), "\"alone\"");
    os << ' ';
    j.value(std::uint64_t{7});
    EXPECT_EQ(os.str(), "\"alone\" 7");
}

TEST(JsonWriterBuffer, DestructorWritesAnUnclosedContainer)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        j.key("a").beginArray();
        j.value(true);
        EXPECT_EQ(os.str(), "");
    }
    EXPECT_EQ(os.str(), "{\"a\":[true");
}

TEST(JsonWriterBuffer, LargeDocumentMatchesStreamingWriter)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::ostringstream want;
        StreamingJson ref(want);
        randomDocument(ref, seed, 4000);
        // Several buffers' worth, so the size-triggered writes run.
        ASSERT_GT(want.str().size(), 4 * JsonWriter::kFlushBytes);

        CallLog log;
        {
            std::ostream os(&log);
            JsonWriter j(os);
            randomDocument(j, seed, 4000);
        }
        EXPECT_EQ(log.bytes, want.str()) << "seed " << seed;
        // The stream sees one write per full buffer plus the tail, not
        // one call per token, and the buffer never holds much more than
        // kFlushBytes (no token here is near 1 KiB).
        ASSERT_FALSE(log.calls.empty());
        for (std::size_t i = 0; i < log.calls.size(); ++i) {
            if (i + 1 < log.calls.size()) {
                EXPECT_GE(log.calls[i], JsonWriter::kFlushBytes) << i;
            }
            EXPECT_LT(log.calls[i], JsonWriter::kFlushBytes + 1024) << i;
        }
        EXPECT_LE(log.calls.size(),
                  log.bytes.size() / JsonWriter::kFlushBytes + 1);
    }
}

TEST(Json, SimStatsRoundShape)
{
    SimStats s;
    s.cycles = 100;
    s.procs.resize(2);
    s.procs[0].demandRefs = 10;
    s.procs[0].busy = 40;
    s.procs[0].misses.invalNotPrefetched = 2;
    s.bus.busyCycles = 25;

    std::ostringstream os;
    writeJson(os, s, "unit/NP@8");
    const std::string out = os.str();
    // Well-formedness basics + the fields downstream plotting needs.
    EXPECT_NE(out.find("\"label\":\"unit/NP@8\""), std::string::npos);
    EXPECT_NE(out.find("\"cycles\":100"), std::string::npos);
    EXPECT_NE(out.find("\"invalNotPrefetched\":2"), std::string::npos);
    EXPECT_NE(out.find("\"procs\":[{"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

} // namespace
} // namespace prefsim

