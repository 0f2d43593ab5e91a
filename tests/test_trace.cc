/**
 * @file
 * Unit tests for trace records, traces and the text trace format.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_io_binary.hh"
#include "trace/trace_stats.hh"

namespace prefsim
{
namespace
{

TEST(TraceRecord, Constructors)
{
    const auto i = TraceRecord::instr(5);
    EXPECT_EQ(i.kind, RecordKind::Instr);
    EXPECT_EQ(i.count, 5u);

    const auto r = TraceRecord::read(0x1000);
    EXPECT_EQ(r.kind, RecordKind::Read);
    EXPECT_EQ(r.addr, 0x1000u);

    const auto w = TraceRecord::write(0x2000);
    EXPECT_EQ(w.kind, RecordKind::Write);

    const auto p = TraceRecord::prefetch(0x3000);
    EXPECT_EQ(p.kind, RecordKind::Prefetch);
    const auto x = TraceRecord::prefetch(0x3000, true);
    EXPECT_EQ(x.kind, RecordKind::PrefetchExcl);

    EXPECT_EQ(TraceRecord::lockAcquire(3).sync, 3u);
    EXPECT_EQ(TraceRecord::lockRelease(4).sync, 4u);
    EXPECT_EQ(TraceRecord::barrier(9).sync, 9u);
}

TEST(TraceRecordDeathTest, SyncIdMustFitSixteenBits)
{
    EXPECT_EQ(TraceRecord::barrier(kMaxSyncId).sync, kMaxSyncId);
    EXPECT_DEATH(TraceRecord::lockAcquire(kMaxSyncId + 1), "sync id");
}

TEST(TraceRecord, KindPredicates)
{
    EXPECT_TRUE(isDemandRef(RecordKind::Read));
    EXPECT_TRUE(isDemandRef(RecordKind::Write));
    EXPECT_FALSE(isDemandRef(RecordKind::Prefetch));
    EXPECT_TRUE(isPrefetch(RecordKind::Prefetch));
    EXPECT_TRUE(isPrefetch(RecordKind::PrefetchExcl));
    EXPECT_FALSE(isPrefetch(RecordKind::Write));
    EXPECT_TRUE(isSync(RecordKind::Barrier));
    EXPECT_TRUE(isSync(RecordKind::LockAcquire));
    EXPECT_TRUE(isSync(RecordKind::LockRelease));
    EXPECT_FALSE(isSync(RecordKind::Instr));
}

TEST(Trace, CoalescesAdjacentInstrs)
{
    Trace t;
    t.appendInstrs(3);
    t.appendInstrs(4);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].count, 7u);

    t.append(TraceRecord::read(0x40));
    t.appendInstrs(2);
    t.append(TraceRecord::instr(5));
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[2].count, 7u);
}

TEST(Trace, ZeroInstrsDropped)
{
    Trace t;
    t.appendInstrs(0);
    EXPECT_TRUE(t.empty());
}

TEST(Trace, InstrCountNeverWraps)
{
    Trace t;
    t.appendInstrs(kMaxInstrCount);
    t.appendInstrs(1);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].count, kMaxInstrCount);
    EXPECT_EQ(t[1].count, 1u);
    EXPECT_EQ(t.instructions(), std::uint64_t{kMaxInstrCount} + 1);

    // The text reader coalesces through the same path.
    std::stringstream ss("prefsim-trace v1\nname x\n"
                         "procs 1 locks 0 barriers 0\nproc 0\n"
                         "I 4294967295\nI 1\n");
    const ParallelTrace pt = readTrace(ss);
    ASSERT_EQ(pt.procs[0].size(), 2u);
    EXPECT_EQ(pt.procs[0].instructions(), std::uint64_t{1} << 32);
}

TEST(Trace, Counters)
{
    Trace t;
    t.appendInstrs(10);
    t.append(TraceRecord::read(0x40));
    t.append(TraceRecord::write(0x80));
    t.append(TraceRecord::prefetch(0xc0));
    t.append(TraceRecord::lockAcquire(0));
    t.append(TraceRecord::lockRelease(0));
    t.append(TraceRecord::barrier(0));

    EXPECT_EQ(t.demandRefs(), 2u);
    EXPECT_EQ(t.prefetches(), 1u);
    // 10 batched + 1 per non-instr record.
    EXPECT_EQ(t.instructions(), 16u);
}

TEST(ParallelTrace, Totals)
{
    ParallelTrace pt;
    pt.name = "x";
    pt.procs.resize(2);
    pt.procs[0].append(TraceRecord::read(0x40));
    pt.procs[0].append(TraceRecord::prefetch(0x40));
    pt.procs[1].append(TraceRecord::write(0x80));
    EXPECT_EQ(pt.numProcs(), 2u);
    EXPECT_EQ(pt.totalDemandRefs(), 2u);
    EXPECT_EQ(pt.totalPrefetches(), 1u);
}

ParallelTrace
makeSampleTrace()
{
    ParallelTrace pt;
    pt.name = "sample";
    pt.numLocks = 2;
    pt.numBarriers = 1;
    pt.procs.resize(2);
    Trace &a = pt.procs[0];
    a.appendInstrs(12);
    a.append(TraceRecord::read(0xabc0));
    a.append(TraceRecord::write(0xdef4));
    a.append(TraceRecord::prefetch(0x1234));
    a.append(TraceRecord::prefetch(0x5678, true));
    a.append(TraceRecord::lockAcquire(1));
    a.append(TraceRecord::lockRelease(1));
    a.append(TraceRecord::barrier(0));
    Trace &b = pt.procs[1];
    b.append(TraceRecord::read(0x40));
    b.append(TraceRecord::barrier(0));
    return pt;
}

TEST(TraceIo, RoundTrip)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream ss;
    writeTrace(ss, pt);
    const ParallelTrace back = readTrace(ss);

    EXPECT_EQ(back.name, pt.name);
    EXPECT_EQ(back.numLocks, pt.numLocks);
    EXPECT_EQ(back.numBarriers, pt.numBarriers);
    ASSERT_EQ(back.numProcs(), pt.numProcs());
    for (std::size_t p = 0; p < pt.numProcs(); ++p) {
        ASSERT_EQ(back.procs[p].size(), pt.procs[p].size()) << "proc " << p;
        for (std::size_t i = 0; i < pt.procs[p].size(); ++i)
            EXPECT_EQ(back.procs[p][i], pt.procs[p][i]);
    }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored)
{
    std::stringstream ss;
    ss << "prefsim-trace v1\n# a comment\n\nname tiny\n"
       << "procs 1 locks 0 barriers 0\nproc 0\n# another\nR 1f40\n";
    const ParallelTrace pt = readTrace(ss);
    ASSERT_EQ(pt.procs[0].size(), 1u);
    EXPECT_EQ(pt.procs[0][0].addr, 0x1f40u);
}

TEST(TraceIo, RejectsMissingHeader)
{
    std::stringstream ss("name x\nprocs 1 locks 0 barriers 0\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsRecordBeforeProc)
{
    std::stringstream ss(
        "prefsim-trace v1\nname x\nprocs 1 locks 0 barriers 0\nR 40\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadProcId)
{
    std::stringstream ss(
        "prefsim-trace v1\nname x\nprocs 1 locks 0 barriers 0\nproc 7\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownTag)
{
    std::stringstream ss("prefsim-trace v1\nname x\n"
                         "procs 1 locks 0 barriers 0\nproc 0\nZ 40\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsBadAddress)
{
    std::stringstream ss("prefsim-trace v1\nname x\n"
                         "procs 1 locks 0 barriers 0\nproc 0\nR zz!\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

/** Parse a text trace whose single processor holds @p body. */
ParallelTrace
readTextBody(const std::string &header, const std::string &body)
{
    std::stringstream ss("prefsim-trace v1\nname x\n" + header +
                         "\nproc 0\n" + body);
    return readTrace(ss);
}

/** The runtime_error message readTrace throws, or "" if it parses. */
std::string
textError(const std::string &header, const std::string &body)
{
    try {
        readTextBody(header, body);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

const char *const kOneProc = "procs 1 locks 1 barriers 1";

TEST(TraceIo, RejectsNegativeInstrCount)
{
    EXPECT_NE(textError(kOneProc, "I -5\n")
                  .find("trace parse error at line 5"),
              std::string::npos);
    EXPECT_NE(textError(kOneProc, "I 4294967296\n"), "");
}

TEST(TraceIo, RejectsTooManyProcs)
{
    EXPECT_NE(textError("procs 100000000000 locks 0 barriers 0", "")
                  .find("trace parse error at line 3"),
              std::string::npos);
    EXPECT_NE(textError("procs 33 locks 0 barriers 0", ""), "");
    EXPECT_EQ(readTextBody("procs 32 locks 0 barriers 0", "").numProcs(),
              32u);
}

TEST(TraceIo, RejectsWideSyncId)
{
    EXPECT_NE(textError(kOneProc, "L 65536\n")
                  .find("trace parse error at line 5"),
              std::string::npos);
    EXPECT_NE(textError(kOneProc, "B -1\n"), "");
    EXPECT_NE(textError("procs 1 locks 65537 barriers 0", ""), "");
    const ParallelTrace pt = readTextBody(kOneProc, "U 65535\n");
    EXPECT_EQ(pt.procs[0][0].sync, kMaxSyncId);
}

TEST(TraceIo, FileRoundTrip)
{
    const ParallelTrace pt = makeSampleTrace();
    const std::string path =
        testing::TempDir() + "/prefsim_trace_roundtrip.txt";
    writeTraceFile(path, pt);
    const ParallelTrace back = readTraceFile(path);
    EXPECT_EQ(back.totalDemandRefs(), pt.totalDemandRefs());
    EXPECT_EQ(back.totalPrefetches(), pt.totalPrefetches());
}

TEST(TraceStats, CountsEverything)
{
    const ParallelTrace pt = makeSampleTrace();
    const TraceStats s = computeTraceStats(pt, 32);
    EXPECT_EQ(s.numProcs, 2u);
    EXPECT_EQ(s.totalReads, 2u);
    EXPECT_EQ(s.totalWrites, 1u);
    EXPECT_EQ(s.totalRefs, 3u);
    EXPECT_EQ(s.totalPrefetches, 2u);
    EXPECT_EQ(s.lockAcquires, 1u);
    EXPECT_EQ(s.barriersCrossed, 1u);
    EXPECT_NEAR(s.writeFraction(), 1.0 / 3.0, 1e-9);
    // Three distinct demand lines touched: 0xabc0, 0xdee0, 0x40.
    EXPECT_EQ(s.footprintBytes, 3u * 32);
}


TEST(TraceIoBinary, RoundTrip)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeTraceBinary(ss, pt);
    const ParallelTrace back = readTraceBinary(ss);
    EXPECT_EQ(back.name, pt.name);
    EXPECT_EQ(back.numLocks, pt.numLocks);
    EXPECT_EQ(back.numBarriers, pt.numBarriers);
    ASSERT_EQ(back.numProcs(), pt.numProcs());
    for (std::size_t p = 0; p < pt.numProcs(); ++p) {
        ASSERT_EQ(back.procs[p].size(), pt.procs[p].size());
        for (std::size_t i = 0; i < pt.procs[p].size(); ++i)
            EXPECT_EQ(back.procs[p][i], pt.procs[p][i]);
    }
}

TEST(TraceIoBinary, SmallerThanText)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream text, bin;
    writeTrace(text, pt);
    writeTraceBinary(bin, pt);
    EXPECT_LT(bin.str().size(), text.str().size());
}

TEST(TraceIoBinary, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "nope";
    EXPECT_THROW(readTraceBinary(ss), std::runtime_error);
}

TEST(TraceIoBinary, RejectsTruncation)
{
    const ParallelTrace pt = makeSampleTrace();
    std::stringstream ss;
    writeTraceBinary(ss, pt);
    std::string bytes = ss.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream half(bytes);
    EXPECT_THROW(readTraceBinary(half), std::runtime_error);
}

TEST(TraceIoBinary, AutoDetectsBothFormats)
{
    const ParallelTrace pt = makeSampleTrace();
    const std::string text_path =
        testing::TempDir() + "/prefsim_auto_text.txt";
    const std::string bin_path =
        testing::TempDir() + "/prefsim_auto_bin.trc";
    writeTraceFile(text_path, pt);
    writeTraceBinaryFile(bin_path, pt);
    EXPECT_EQ(readTraceAutoFile(text_path).totalDemandRefs(),
              pt.totalDemandRefs());
    EXPECT_EQ(readTraceAutoFile(bin_path).totalDemandRefs(),
              pt.totalDemandRefs());
}

TEST(TraceIoBinary, BothReadersReturnTheCanonicalTrace)
{
    // Leading and trailing Instr(0), a burst split into two records,
    // and two adjacent bursts whose sum does not fit one record.
    ParallelTrace raw;
    raw.name = "raw";
    raw.numLocks = 1;
    raw.procs.resize(2);
    raw.procs[0].records() = {
        TraceRecord::instr(0),  TraceRecord::instr(7),
        TraceRecord::instr(5),  TraceRecord::read(0x40),
        TraceRecord::instr(kMaxInstrCount - 2), TraceRecord::instr(3),
        TraceRecord::write(0x80), TraceRecord::instr(0)};
    raw.procs[1].records() = {
        TraceRecord::lockAcquire(0), TraceRecord::instr(0),
        TraceRecord::lockRelease(0), TraceRecord::instr(2),
        TraceRecord::instr(0),       TraceRecord::instr(9)};
    ParallelTrace folded = raw;
    for (Trace &t : folded.procs) {
        Trace f;
        for (const TraceRecord &r : t.records())
            f.append(r);
        t = std::move(f);
    }
    // The overflow pair stays two records.
    ASSERT_EQ(folded.procs[0].records(),
              (std::vector<TraceRecord>{
                  TraceRecord::instr(12), TraceRecord::read(0x40),
                  TraceRecord::instr(kMaxInstrCount - 2),
                  TraceRecord::instr(3), TraceRecord::write(0x80)}));

    std::stringstream text, bin;
    writeTrace(text, raw);
    writeTraceBinary(bin, raw);
    const std::string text_path =
        testing::TempDir() + "/prefsim_raw_text.txt";
    const std::string bin_path = testing::TempDir() + "/prefsim_raw_bin.trc";
    writeTraceFile(text_path, raw);
    writeTraceBinaryFile(bin_path, raw);
    const std::pair<const char *, ParallelTrace> reads[] = {
        {"text", readTrace(text)},
        {"binary", readTraceBinary(bin)},
        {"auto text", readTraceAutoFile(text_path)},
        {"auto binary", readTraceAutoFile(bin_path)},
    };
    for (const auto &[what, back] : reads) {
        SCOPED_TRACE(what);
        EXPECT_EQ(back.name, raw.name);
        EXPECT_EQ(back.numLocks, raw.numLocks);
        ASSERT_EQ(back.numProcs(), folded.numProcs());
        for (std::size_t p = 0; p < folded.numProcs(); ++p)
            EXPECT_EQ(back.procs[p].records(), folded.procs[p].records());
    }
}

TEST(TraceIoBinary, LargeDeltasAndAllKinds)
{
    // Address deltas that go far negative and spread across regions.
    ParallelTrace pt;
    pt.name = "deltas";
    pt.procs.resize(1);
    Trace &t = pt.procs[0];
    t.append(TraceRecord::read(0xffff'ffff'0000ULL));
    t.append(TraceRecord::write(0x10));
    t.append(TraceRecord::prefetch(0x7fff'0000, true));
    t.appendInstrs(1 << 30);
    t.append(TraceRecord::barrier(kMaxSyncId));
    std::stringstream ss;
    writeTraceBinary(ss, pt);
    const ParallelTrace back = readTraceBinary(ss);
    ASSERT_EQ(back.procs[0].size(), pt.procs[0].size());
    for (std::size_t i = 0; i < pt.procs[0].size(); ++i)
        EXPECT_EQ(back.procs[0][i], pt.procs[0][i]);
}

TEST(TraceIoBinary, DeltasWrapWithoutSignedOverflow)
{
    // Two deltas of 2^62 take the running address past INT64_MAX; the
    // last one wraps back down through zero.
    ParallelTrace pt;
    pt.name = "wrap";
    pt.procs.resize(1);
    Trace &t = pt.procs[0];
    t.append(TraceRecord::read(std::uint64_t{1} << 62));
    t.append(TraceRecord::read(std::uint64_t{1} << 63));
    t.append(TraceRecord::write(~std::uint64_t{0}));
    t.append(TraceRecord::prefetch(0x40));
    std::stringstream ss;
    writeTraceBinary(ss, pt);
    const ParallelTrace back = readTraceBinary(ss);
    ASSERT_EQ(back.procs[0].size(), pt.procs[0].size());
    for (std::size_t i = 0; i < pt.procs[0].size(); ++i)
        EXPECT_EQ(back.procs[0][i], pt.procs[0][i]);
}

/** Appends LEB128 varints and raw bytes: a hand-forged binary trace. */
struct BinaryForge
{
    std::string bytes = "PFS2";

    BinaryForge &
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            bytes.push_back(static_cast<char>((v & 0x7f) | 0x80));
            v >>= 7;
        }
        bytes.push_back(static_cast<char>(v));
        return *this;
    }

    BinaryForge &
    tag(RecordKind k)
    {
        bytes.push_back(static_cast<char>(k));
        return *this;
    }

    /** Header of a one-processor trace named "f". */
    static BinaryForge
    header(std::uint64_t locks, std::uint64_t barriers)
    {
        BinaryForge f;
        f.varint(1).varint(locks).varint(barriers).varint(1);
        f.bytes.push_back('f');
        return f;
    }

    /** readTraceBinary's error message, or "" if it parses. */
    std::string
    error() const
    {
        std::stringstream ss(bytes);
        try {
            readTraceBinary(ss);
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    }
};

TEST(TraceIoBinary, RejectsWideInstrCount)
{
    BinaryForge ok = BinaryForge::header(0, 0);
    ok.varint(1).tag(RecordKind::Instr).varint(kMaxInstrCount);
    EXPECT_EQ(ok.error(), "");
    BinaryForge f = BinaryForge::header(0, 0);
    f.varint(1).tag(RecordKind::Instr).varint(std::uint64_t{1} << 32);
    EXPECT_NE(f.error().find("binary trace: instr count"),
              std::string::npos);
}

TEST(TraceIoBinary, RejectsWideSyncId)
{
    BinaryForge f = BinaryForge::header(1, 0);
    f.varint(1).tag(RecordKind::LockAcquire).varint(kMaxSyncId + 1);
    EXPECT_NE(f.error().find("binary trace: sync id"), std::string::npos);
}

TEST(TraceIoBinary, RejectsTooManyLocksOrBarriers)
{
    EXPECT_EQ(BinaryForge::header(65536, 65536).varint(0).error(), "");
    EXPECT_NE(BinaryForge::header(65537, 0).varint(0).error().find(
                  "binary trace: lock count"),
              std::string::npos);
    EXPECT_NE(BinaryForge::header(0, 65537).varint(0).error().find(
                  "binary trace: barrier count"),
              std::string::npos);
}

TEST(TraceIoBinary, ForgedRecordCountDoesNotPreallocate)
{
    // A count of 2^40 records (16 TiB) followed by one record: the
    // reader must run out of input, not try to reserve the count.
    BinaryForge f = BinaryForge::header(0, 0);
    f.varint(std::uint64_t{1} << 40).tag(RecordKind::Instr).varint(3);
    EXPECT_NE(f.error().find("binary trace: truncated"), std::string::npos);
}

} // namespace
} // namespace prefsim

