/**
 * @file
 * Unit tests for whole-trace sharing analysis.
 */

#include <gtest/gtest.h>

#include "trace/sharing_analysis.hh"

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

} // namespace
} // namespace prefsim
