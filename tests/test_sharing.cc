/**
 * @file
 * Unit tests for whole-trace sharing analysis.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "common/intmath.hh"
#include "common/rng.hh"
#include "trace/sharing_analysis.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

ParallelTrace
twoProcTrace()
{
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.resize(2);
    return pt;
}

TEST(SharingAnalysis, PrivateLine)
{
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::read(0x100));
    pt.procs[0].append(TraceRecord::write(0x104));

    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0x100), SharingClass::Private);
    EXPECT_EQ(sa.numPrivateLines(), 1u);
    EXPECT_EQ(sa.numReadSharedLines(), 0u);
    EXPECT_EQ(sa.numWriteSharedLines(), 0u);
    EXPECT_FALSE(sa.isWriteShared(0x100));
}

TEST(SharingAnalysis, ReadSharedLine)
{
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::read(0x100));
    pt.procs[1].append(TraceRecord::read(0x118)); // Same 32 B line.

    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0x100), SharingClass::ReadShared);
    EXPECT_EQ(sa.numReadSharedLines(), 1u);
    EXPECT_FALSE(sa.isWriteShared(0x104));
}

TEST(SharingAnalysis, WriteSharedLine)
{
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::read(0x100));
    pt.procs[1].append(TraceRecord::write(0x11c));

    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0x100), SharingClass::WriteShared);
    EXPECT_TRUE(sa.isWriteShared(0x100));
    EXPECT_TRUE(sa.isWriteShared(0x11f));
    EXPECT_FALSE(sa.isWriteShared(0x120)); // The next line.
    EXPECT_EQ(sa.numWriteSharedLines(), 1u);
}

TEST(SharingAnalysis, WriteByOnlyOneProcIsPrivate)
{
    // A line written by one processor and touched by no other is
    // private, however many writes it sees.
    ParallelTrace pt = twoProcTrace();
    for (int i = 0; i < 10; ++i)
        pt.procs[0].append(TraceRecord::write(0x200));

    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0x200), SharingClass::Private);
}

TEST(SharingAnalysis, FalseSharingStructureIsLineGranular)
{
    // Processors touching *different words* of one line still make the
    // line shared — that is precisely what false sharing is made of.
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::write(0x300)); // word 0
    pt.procs[1].append(TraceRecord::write(0x31c)); // word 7, same line

    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0x300), SharingClass::WriteShared);
}

TEST(SharingAnalysis, PrefetchRecordsIgnored)
{
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::read(0x400));
    pt.procs[1].append(TraceRecord::prefetch(0x400, true));

    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0x400), SharingClass::Private);
}

TEST(SharingAnalysis, UnknownLineIsPrivate)
{
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::read(0x100));
    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.classOf(0xdead00), SharingClass::Private);
}

TEST(SharingAnalysis, RefFraction)
{
    ParallelTrace pt = twoProcTrace();
    // Write-shared line 0x100: 3 refs; private line 0x1000: 1 ref.
    pt.procs[0].append(TraceRecord::write(0x100));
    pt.procs[1].append(TraceRecord::read(0x104));
    pt.procs[1].append(TraceRecord::read(0x108));
    pt.procs[0].append(TraceRecord::read(0x1000));

    const SharingAnalysis sa(pt, 32);
    EXPECT_NEAR(sa.writeSharedRefFraction(), 0.75, 1e-9);
}

TEST(SharingAnalysis, FootprintCountsLines)
{
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::read(0x0));
    pt.procs[0].append(TraceRecord::read(0x20));
    pt.procs[0].append(TraceRecord::read(0x3f)); // Same line as 0x20.
    const SharingAnalysis sa(pt, 32);
    EXPECT_EQ(sa.numLines(), 2u);
    EXPECT_EQ(sa.footprintBytes(), 64u);
}

TEST(SharingAnalysis, LineSizeMatters)
{
    // Two accesses 40 bytes apart: distinct 32 B lines, same 64 B line.
    ParallelTrace pt = twoProcTrace();
    pt.procs[0].append(TraceRecord::write(0x100));
    pt.procs[1].append(TraceRecord::read(0x128));

    const SharingAnalysis sa32(pt, 32);
    EXPECT_EQ(sa32.classOf(0x100), SharingClass::Private);
    const SharingAnalysis sa64(pt, 64);
    EXPECT_EQ(sa64.classOf(0x100), SharingClass::WriteShared);
}

/**
 * The reference: SharingAnalysis's one serial pass over the processors
 * in order, kept here verbatim so the per-processor tables and their
 * merge are checked against it.
 */
struct SerialSharing
{
    struct LineInfo
    {
        std::uint32_t toucher_mask = 0;
        bool written = false;
        SharingClass cls = SharingClass::Private;
        std::uint64_t refs = 0;
    };

    SerialSharing(const ParallelTrace &trace, unsigned line_bytes)
    {
        for (std::size_t p = 0; p < trace.numProcs(); ++p) {
            const auto bit = std::uint32_t{1} << p;
            for (const auto &r : trace.procs[p].records()) {
                if (!isDemandRef(r.kind))
                    continue;
                LineInfo &li = lines.get(roundDown(r.addr, line_bytes),
                                         [](LineInfo &) {});
                li.toucher_mask |= bit;
                if (r.kind == RecordKind::Write)
                    li.written = true;
                ++li.refs;
            }
        }
        for (LineInfo &li : lines.records()) {
            total_refs += li.refs;
            if (std::popcount(li.toucher_mask) <= 1) {
                ++num_private;
            } else if (!li.written) {
                li.cls = SharingClass::ReadShared;
                ++num_read_shared;
            } else {
                li.cls = SharingClass::WriteShared;
                ++num_write_shared;
                write_shared_refs += li.refs;
            }
        }
    }

    double
    writeSharedRefFraction() const
    {
        return total_refs == 0 ? 0.0
                               : static_cast<double>(write_shared_refs) /
                                     static_cast<double>(total_refs);
    }

    FlatTable<Addr, LineInfo, AddrHash> lines;
    std::uint64_t num_private = 0;
    std::uint64_t num_read_shared = 0;
    std::uint64_t num_write_shared = 0;
    std::uint64_t total_refs = 0;
    std::uint64_t write_shared_refs = 0;
};

void
expectMatchesSerial(const ParallelTrace &pt, unsigned line_bytes)
{
    SerialSharing ref(pt, line_bytes);
    const SharingAnalysis sa(pt, line_bytes);
    EXPECT_EQ(sa.numLines(), ref.lines.keys().size());
    EXPECT_EQ(sa.numPrivateLines(), ref.num_private);
    EXPECT_EQ(sa.numReadSharedLines(), ref.num_read_shared);
    EXPECT_EQ(sa.numWriteSharedLines(), ref.num_write_shared);
    EXPECT_EQ(sa.footprintBytes(), ref.lines.keys().size() * line_bytes);
    EXPECT_EQ(sa.writeSharedRefFraction(), ref.writeSharedRefFraction());
    for (std::size_t i = 0; i < ref.lines.keys().size(); ++i) {
        const Addr line = ref.lines.keys()[i];
        ASSERT_EQ(sa.classOf(line + line_bytes - 1),
                  ref.lines.records()[i].cls)
            << std::hex << "line 0x" << line;
    }
}

/** Random demand, prefetch, sync and compute records over a shared
 *  and a per-processor pool of lines. */
ParallelTrace
randomTrace(std::uint64_t seed, unsigned procs, unsigned records)
{
    ParallelTrace pt;
    pt.name = "random";
    pt.procs.resize(procs);
    for (unsigned p = 0; p < procs; ++p) {
        Rng rng(seed * 7919 + p);
        Trace &t = pt.procs[p];
        for (unsigned i = 0; i < records; ++i) {
            const Addr shared = 0x10000 + rng.below(4096) * 4;
            const Addr priv =
                0x40000000 + Addr{p} * 0x100000 + rng.below(4096) * 4;
            const Addr a = rng.chance(0.4) ? shared : priv;
            const double roll = rng.uniform();
            if (roll < 0.5)
                t.append(TraceRecord::read(a));
            else if (roll < 0.7)
                t.append(TraceRecord::write(a));
            else if (roll < 0.8)
                t.append(TraceRecord::prefetch(a, rng.chance(0.5)));
            else if (roll < 0.9)
                t.append(TraceRecord::barrier(0));
            else
                t.appendInstrs(static_cast<std::uint32_t>(rng.range(1, 9)));
        }
    }
    return pt;
}

TEST(SharingDifferential, RandomTracesMatchSerialPass)
{
    for (unsigned procs : {1u, 2u, 3u, 8u, 17u, 32u}) {
        for (unsigned line : {16u, 32u, 128u}) {
            SCOPED_TRACE("P=" + std::to_string(procs) +
                         " line=" + std::to_string(line));
            expectMatchesSerial(randomTrace(procs, procs, 3000), line);
        }
    }
}

TEST(SharingDifferential, WorkloadsMatchSerialPass)
{
    for (WorkloadKind kind : allWorkloads()) {
        for (unsigned procs : {2u, 5u, 16u, 32u}) {
            SCOPED_TRACE(workloadName(kind) + " P=" + std::to_string(procs));
            WorkloadParams params;
            params.numProcs = procs;
            params.refsPerProc = 3000;
            expectMatchesSerial(generateWorkload(kind, params), 32);
        }
    }
}

TEST(SharingDifferential, EmptyTraces)
{
    ParallelTrace pt;
    expectMatchesSerial(pt, 32);
    pt.procs.resize(2);
    expectMatchesSerial(pt, 32);
    pt.procs[1].append(TraceRecord::read(0x40));
    expectMatchesSerial(pt, 32);
}

} // namespace
} // namespace prefsim
