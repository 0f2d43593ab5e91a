/**
 * @file
 * Tests for the five synthetic workload generators.
 *
 * The parameterized suite checks the structural contracts every
 * generator must honour for the simulator to accept its trace: equal
 * barrier sequences, balanced and ordered locks, requested size and
 * processor count, determinism.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/result_io.hh"
#include "trace/builder.hh"
#include "trace/sharing_analysis.hh"
#include "trace/trace_stats.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.numProcs = 4;
    p.refsPerProc = 20000;
    p.seed = 99;
    return p;
}

class WorkloadSuite : public testing::TestWithParam<WorkloadKind>
{
};

TEST_P(WorkloadSuite, HonoursProcessorCount)
{
    const ParallelTrace t = generateWorkload(GetParam(), smallParams());
    EXPECT_EQ(t.numProcs(), 4u);
    EXPECT_EQ(t.name, workloadName(GetParam()));
}

TEST_P(WorkloadSuite, GeneratesRequestedVolume)
{
    const ParallelTrace t = generateWorkload(GetParam(), smallParams());
    for (const auto &proc : t.procs) {
        // Within a factor of two of the request (generators round to
        // whole steps and enforce a minimum step count).
        EXPECT_GT(proc.demandRefs(), 10000u);
        // Generators round up to whole steps/passes with a minimum of
        // five, so small requests can overshoot considerably.
        EXPECT_LT(proc.demandRefs(), 400000u);
    }
}

TEST_P(WorkloadSuite, BarrierSequencesIdenticalAcrossProcs)
{
    const ParallelTrace t = generateWorkload(GetParam(), smallParams());
    std::vector<std::vector<SyncId>> seqs;
    for (const auto &proc : t.procs) {
        std::vector<SyncId> seq;
        for (const auto &r : proc.records()) {
            if (r.kind == RecordKind::Barrier)
                seq.push_back(r.sync);
        }
        seqs.push_back(std::move(seq));
    }
    for (std::size_t p = 1; p < seqs.size(); ++p)
        EXPECT_EQ(seqs[p], seqs[0]) << "proc " << p;
    EXPECT_GE(seqs[0].size(), 5u); // Warmup needs whole episodes.
}

TEST_P(WorkloadSuite, LocksBalancedAndOrdered)
{
    const ParallelTrace t = generateWorkload(GetParam(), smallParams());
    for (const auto &proc : t.procs) {
        std::vector<SyncId> held;
        for (const auto &r : proc.records()) {
            if (r.kind == RecordKind::LockAcquire) {
                EXPECT_LT(r.sync, t.numLocks);
                // No re-acquisition, and ids acquired in ascending order
                // (the deadlock-freedom discipline).
                for (auto h : held) {
                    EXPECT_NE(h, r.sync);
                    EXPECT_LT(h, r.sync);
                }
                held.push_back(r.sync);
            } else if (r.kind == RecordKind::LockRelease) {
                ASSERT_FALSE(held.empty());
                auto it = std::find(held.begin(), held.end(), r.sync);
                ASSERT_NE(it, held.end());
                held.erase(it);
            } else if (r.kind == RecordKind::Barrier) {
                // Never hold a lock across a barrier.
                EXPECT_TRUE(held.empty());
            }
        }
        EXPECT_TRUE(held.empty());
    }
}

TEST_P(WorkloadSuite, DeterministicForSeed)
{
    const ParallelTrace a = generateWorkload(GetParam(), smallParams());
    const ParallelTrace b = generateWorkload(GetParam(), smallParams());
    ASSERT_EQ(a.numProcs(), b.numProcs());
    for (std::size_t p = 0; p < a.numProcs(); ++p) {
        ASSERT_EQ(a.procs[p].size(), b.procs[p].size());
        for (std::size_t i = 0; i < a.procs[p].size(); ++i)
            ASSERT_EQ(a.procs[p][i], b.procs[p][i]);
    }
}

TEST_P(WorkloadSuite, SeedChangesTrace)
{
    WorkloadParams p2 = smallParams();
    p2.seed = 100;
    const ParallelTrace a = generateWorkload(GetParam(), smallParams());
    const ParallelTrace b = generateWorkload(GetParam(), p2);
    bool different = false;
    for (std::size_t p = 0; p < a.numProcs() && !different; ++p) {
        if (a.procs[p].size() != b.procs[p].size()) {
            different = true;
            break;
        }
        for (std::size_t i = 0; i < a.procs[p].size(); ++i) {
            if (!(a.procs[p][i] == b.procs[p][i])) {
                different = true;
                break;
            }
        }
    }
    EXPECT_TRUE(different);
}

TEST_P(WorkloadSuite, HasSharedData)
{
    const ParallelTrace t = generateWorkload(GetParam(), smallParams());
    const SharingAnalysis sa(t, 32);
    // Every paper workload shares data; all but Water write-share a
    // meaningful amount.
    EXPECT_GT(sa.numReadSharedLines() + sa.numWriteSharedLines(), 0u);
    EXPECT_GT(sa.numWriteSharedLines(), 0u);
}

TEST_P(WorkloadSuite, NoPrefetchesInRawTrace)
{
    const ParallelTrace t = generateWorkload(GetParam(), smallParams());
    EXPECT_EQ(t.totalPrefetches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSuite,
                         testing::ValuesIn(allWorkloads()),
                         [](const auto &param_info) {
                             return workloadName(param_info.param);
                         });

TEST(WorkloadNames, RoundTrip)
{
    for (auto kind : allWorkloads())
        EXPECT_EQ(workloadFromName(workloadName(kind)), kind);
}

TEST(WorkloadNamesDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(workloadFromName("spice"), testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(RestructuredVariants, OnlyTopoptAndPverify)
{
    EXPECT_TRUE(hasRestructuredVariant(WorkloadKind::Topopt));
    EXPECT_TRUE(hasRestructuredVariant(WorkloadKind::Pverify));
    EXPECT_FALSE(hasRestructuredVariant(WorkloadKind::Water));
    EXPECT_FALSE(hasRestructuredVariant(WorkloadKind::Mp3d));
    EXPECT_FALSE(hasRestructuredVariant(WorkloadKind::LocusRoute));
}

TEST(RestructuredVariants, GenerateAndRename)
{
    WorkloadParams p = smallParams();
    p.restructured = true;
    EXPECT_EQ(generateWorkload(WorkloadKind::Topopt, p).name, "topopt-r");
    EXPECT_EQ(generateWorkload(WorkloadKind::Pverify, p).name, "pverify-r");
}

TEST(RestructuredVariantsDeathTest, UnsupportedIsFatal)
{
    WorkloadParams p = smallParams();
    p.restructured = true;
    EXPECT_EXIT(generateWorkload(WorkloadKind::Water, p),
                testing::ExitedWithCode(1), "no restructured variant");
}

TEST(WorkloadParamsDeathTest, Validation)
{
    WorkloadParams p = smallParams();
    p.numProcs = 1;
    EXPECT_EXIT(generateWorkload(WorkloadKind::Water, p),
                testing::ExitedWithCode(1), "numProcs");
    p = smallParams();
    p.numProcs = 64;
    EXPECT_EXIT(generateWorkload(WorkloadKind::Water, p),
                testing::ExitedWithCode(1), "numProcs");
    p = smallParams();
    p.refsPerProc = 0;
    EXPECT_EXIT(generateWorkload(WorkloadKind::Water, p),
                testing::ExitedWithCode(1), "refsPerProc");
}

TEST(WorkloadCharacter, PverifyRestructuringRemovesResultInterleaving)
{
    // The Jeremiassen-Eggers property: in the restructured layout no
    // result line is *written* by two processors (each processor's
    // results are grouped and padded); in the standard layout,
    // multi-writer lines are common. Reads may still cross regions
    // (true sharing is preserved).
    auto multi_writer_lines = [](const ParallelTrace &t) {
        std::map<Addr, std::uint32_t> writers;
        for (std::size_t p = 0; p < t.numProcs(); ++p) {
            for (const auto &r : t.procs[p].records()) {
                // Result vector region (shared-B), writes only.
                if (r.kind == RecordKind::Write && r.addr >= 0x02000000 &&
                    r.addr < 0x03000000) {
                    writers[r.addr & ~Addr{31}] |= 1u << p;
                }
            }
        }
        unsigned multi = 0;
        for (const auto &[line, mask] : writers)
            multi += (mask & (mask - 1)) != 0 ? 1 : 0;
        return multi;
    };

    WorkloadParams p = smallParams();
    const ParallelTrace std_t = generateWorkload(WorkloadKind::Pverify, p);
    p.restructured = true;
    const ParallelTrace r_t = generateWorkload(WorkloadKind::Pverify, p);

    EXPECT_GT(multi_writer_lines(std_t), 100u);
    EXPECT_EQ(multi_writer_lines(r_t), 0u);
}

TEST(WorkloadCharacter, DataScaleShrinksFootprint)
{
    WorkloadParams p = smallParams();
    const TraceStats full =
        computeTraceStats(generateWorkload(WorkloadKind::Mp3d, p), 32);
    p.dataScale = 0.25;
    const TraceStats quarter =
        computeTraceStats(generateWorkload(WorkloadKind::Mp3d, p), 32);
    EXPECT_LT(quarter.footprintBytes, full.footprintBytes);
}

TEST(WorkloadCharacter, WaterIsReadMostly)
{
    const TraceStats s = computeTraceStats(
        generateWorkload(WorkloadKind::Water, smallParams()), 32);
    EXPECT_LT(s.writeFraction(), 0.3);
}

TEST(WorkloadCharacter, MissRateOrdering)
{
    // The paper's fundamental workload ordering: Water has by far the
    // smallest footprint pressure; Mp3d and Pverify the largest.
    WorkloadParams p = smallParams();
    auto footprint = [&](WorkloadKind k) {
        return computeTraceStats(generateWorkload(k, p), 32).footprintBytes;
    };
    EXPECT_LT(footprint(WorkloadKind::Water),
              footprint(WorkloadKind::Mp3d));
    EXPECT_LT(footprint(WorkloadKind::Water),
              footprint(WorkloadKind::Pverify));
}


TEST(WorkloadTunablesApi, OverridesChangeTheTrace)
{
    // Halving the per-molecule interaction count halves each step's
    // work; the generator compensates with more steps (the total volume
    // tracks refsPerProc), so the visible effect is the step count.
    WorkloadParams p = smallParams();
    const ParallelTrace base = generateWorkload(WorkloadKind::Water, p);
    p.tunables.water.partnersPerMol = 4;
    const ParallelTrace tweaked =
        generateWorkload(WorkloadKind::Water, p);
    EXPECT_GE(tweaked.numBarriers, base.numBarriers * 3 / 2);
}

TEST(WorkloadTunablesApi, DefaultsAreCalibratedValues)
{
    // A fresh WorkloadTunables equals the implicit defaults: traces
    // generated either way are identical.
    WorkloadParams p = smallParams();
    const ParallelTrace a = generateWorkload(WorkloadKind::Topopt, p);
    p.tunables = WorkloadTunables{};
    const ParallelTrace b = generateWorkload(WorkloadKind::Topopt, p);
    ASSERT_EQ(a.procs[0].size(), b.procs[0].size());
    for (std::size_t i = 0; i < a.procs[0].size(); ++i)
        ASSERT_EQ(a.procs[0][i], b.procs[0][i]);
}

TEST(WorkloadTunablesApi, SharingKnobMovesSharingFootprint)
{
    WorkloadParams p = smallParams();
    const SharingAnalysis base(
        generateWorkload(WorkloadKind::Mp3d, p), 32);
    p.tunables.mp3d.remoteCellProb = 0.9;
    const SharingAnalysis hot(
        generateWorkload(WorkloadKind::Mp3d, p), 32);
    EXPECT_GT(hot.writeSharedRefFraction(),
              base.writeSharedRefFraction());
}

/** One of the seven trace sources: a program, maybe restructured. */
struct Source
{
    WorkloadKind kind;
    bool restructured;
};

const std::vector<Source> &
allSources()
{
    static const std::vector<Source> sources = {
        {WorkloadKind::Topopt, false},     {WorkloadKind::Pverify, false},
        {WorkloadKind::LocusRoute, false}, {WorkloadKind::Mp3d, false},
        {WorkloadKind::Water, false},      {WorkloadKind::Topopt, true},
        {WorkloadKind::Pverify, true}};
    return sources;
}

ParallelTrace
generateSource(const Source &src, unsigned procs, std::uint64_t seed)
{
    WorkloadParams p;
    p.numProcs = procs;
    p.refsPerProc = 2000;
    p.seed = seed;
    p.restructured = src.restructured;
    return generateWorkload(src.kind, p);
}

/** fnv1a64 over the trace's metadata and every field of every record,
 *  processor by processor. */
std::uint64_t
traceFingerprint(const ParallelTrace &t)
{
    std::string bytes = t.name + ";" + std::to_string(t.numLocks) + ";" +
                        std::to_string(t.numBarriers) + ";";
    auto put = [&](std::uint64_t v, unsigned width) {
        for (unsigned i = 0; i < width; ++i)
            bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    for (const Trace &proc : t.procs) {
        put(proc.size(), 8);
        for (const TraceRecord &r : proc.records()) {
            put(static_cast<std::uint8_t>(r.kind), 1);
            put(r.sync, 2);
            put(r.count, 4);
            put(r.addr, 8);
        }
    }
    return fnv1a64(bytes);
}

void
expectSameTrace(const ParallelTrace &a, const ParallelTrace &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.numLocks, b.numLocks);
    EXPECT_EQ(a.numBarriers, b.numBarriers);
    ASSERT_EQ(a.numProcs(), b.numProcs());
    for (std::size_t p = 0; p < a.numProcs(); ++p) {
        ASSERT_EQ(a.procs[p].size(), b.procs[p].size()) << "proc " << p;
        for (std::size_t i = 0; i < a.procs[p].size(); ++i)
            ASSERT_EQ(a.procs[p][i], b.procs[p][i])
                << "proc " << p << " record " << i;
        // Filled to the counted size: no spare capacity.
        EXPECT_EQ(a.procs[p].records().capacity(), a.procs[p].size());
    }
}

TEST(ProcTraceBuilder, CountingMatchesFillingAcrossInstrOverflow)
{
    // Instr batches coalesce until the 32-bit count would overflow; a
    // counting builder must count the records a filling one leaves.
    const auto body = [](ProcTraceBuilder &b) {
        b.compute(0);
        b.compute(kMaxInstrCount - 5);
        b.compute(5); // Fills the record exactly.
        b.compute(1); // Overflows into a new record.
        b.read(0x100);
        b.compute(0);
        b.compute(kMaxInstrCount);
        b.compute(kMaxInstrCount);
        b.barrier(0);
        b.compute(3);
        b.compute(4);
        b.write(0x200);
        b.compute(7);
    };
    ProcTraceBuilder counting(0, 1);
    body(counting);
    ParallelTrace built;
    buildProcs(built, 3, 1, body);
    for (const Trace &t : built.procs) {
        EXPECT_EQ(t.size(), counting.size());
        EXPECT_EQ(t.size(), 9u);
        // Three full batches, the overflow's 1, 7 + 7, and 1 for each
        // of the read, barrier and write.
        EXPECT_EQ(t.instructions(),
                  3 * std::uint64_t{kMaxInstrCount} + 1 + 7 + 7 + 3);
    }
}

TEST(GeneratorGolden, RecordFingerprints)
{
    // Every record of every source at four machine sizes and two seeds,
    // pinned to the bytes the serial generators produced. Regenerate
    // only after an intentional change to a generator: the failure
    // message prints each new value.
    struct Golden
    {
        const char *source;
        unsigned procs;
        std::uint64_t seed;
        std::uint64_t fingerprint;
    };
    static const Golden kGolden[] = {
        {"topopt", 2, 1, 0x1acce8809f037672ULL},
        {"topopt", 2, 12345, 0xc5a0892406eab1f6ULL},
        {"topopt", 4, 1, 0x1f40927894ce30b4ULL},
        {"topopt", 4, 12345, 0x68440abdb4f28b6cULL},
        {"topopt", 16, 1, 0xd35995ff537c6893ULL},
        {"topopt", 16, 12345, 0x205332fc688c48ceULL},
        {"topopt", 32, 1, 0x86a5d054bfe030c1ULL},
        {"topopt", 32, 12345, 0xd1971acc6dc4be5bULL},
        {"pverify", 2, 1, 0xa3a0e301d2bd11e5ULL},
        {"pverify", 2, 12345, 0x6ca5742c6c1ed342ULL},
        {"pverify", 4, 1, 0xfa357fc718105d34ULL},
        {"pverify", 4, 12345, 0xb1bf4a63eccaf242ULL},
        {"pverify", 16, 1, 0x35acbfec117e15cbULL},
        {"pverify", 16, 12345, 0xb8204511c1abc55cULL},
        {"pverify", 32, 1, 0x5d7d292ce4ade48eULL},
        {"pverify", 32, 12345, 0xce5aa5e5ff12085aULL},
        {"locusroute", 2, 1, 0x416aa814227c0ef7ULL},
        {"locusroute", 2, 12345, 0x693764f3967dcbefULL},
        {"locusroute", 4, 1, 0x9000d61286f6a3a6ULL},
        {"locusroute", 4, 12345, 0xd0c8c9305e8c7bc2ULL},
        {"locusroute", 16, 1, 0xd232207e2e984da1ULL},
        {"locusroute", 16, 12345, 0xfbc896ac10b50579ULL},
        {"locusroute", 32, 1, 0x967d0cbf7e35ef27ULL},
        {"locusroute", 32, 12345, 0x25dd152f4c8f9357ULL},
        {"mp3d", 2, 1, 0x2c9a5d6b7b9a19f5ULL},
        {"mp3d", 2, 12345, 0xbe3bb3f2e55f7106ULL},
        {"mp3d", 4, 1, 0x8dbf270257a9754eULL},
        {"mp3d", 4, 12345, 0x4b05a3477e631ff3ULL},
        {"mp3d", 16, 1, 0xaad046e794880635ULL},
        {"mp3d", 16, 12345, 0x48d0a9d9aabdb965ULL},
        {"mp3d", 32, 1, 0xa8b40065dba4db8cULL},
        {"mp3d", 32, 12345, 0xe9b9aae6a5ebe7b5ULL},
        {"water", 2, 1, 0x19fb1290ed83ad95ULL},
        {"water", 2, 12345, 0x54fdcc5a75ea29b9ULL},
        {"water", 4, 1, 0x497dba02db5b5301ULL},
        {"water", 4, 12345, 0x30d32324981e344fULL},
        {"water", 16, 1, 0xde25f3393cc08160ULL},
        {"water", 16, 12345, 0x1c73b1b25aea4382ULL},
        {"water", 32, 1, 0xb138e4ab8c82e796ULL},
        {"water", 32, 12345, 0xfb08b1808ed0e496ULL},
        {"topopt-r", 2, 1, 0x8e585501cfcc279dULL},
        {"topopt-r", 2, 12345, 0xfff590dddceb3d09ULL},
        {"topopt-r", 4, 1, 0x9f443531285fbfddULL},
        {"topopt-r", 4, 12345, 0x914499bd821dbce7ULL},
        {"topopt-r", 16, 1, 0xc57a54ba6e870d15ULL},
        {"topopt-r", 16, 12345, 0x5dc0a4fab9a706f3ULL},
        {"topopt-r", 32, 1, 0x01bc7c2579167ea5ULL},
        {"topopt-r", 32, 12345, 0x4e327155672dde36ULL},
        {"pverify-r", 2, 1, 0x9ba324c8a00e0841ULL},
        {"pverify-r", 2, 12345, 0x04c4af75181d3e2cULL},
        {"pverify-r", 4, 1, 0x3e5ee220ec7bf9beULL},
        {"pverify-r", 4, 12345, 0x6954622bcc318925ULL},
        {"pverify-r", 16, 1, 0x9d88bf8062475a49ULL},
        {"pverify-r", 16, 12345, 0x0d9c21bc42384d6cULL},
        {"pverify-r", 32, 1, 0xb83739068ea7232cULL},
        {"pverify-r", 32, 12345, 0x78649c4bbc568a13ULL},
    };
    std::size_t checked = 0;
    for (const Source &src : allSources()) {
        for (unsigned procs : {2u, 4u, 16u, 32u}) {
            for (std::uint64_t seed : {1u, 12345u}) {
                const ParallelTrace t = generateSource(src, procs, seed);
                const std::uint64_t got = traceFingerprint(t);
                char row[96];
                std::snprintf(row, sizeof(row),
                              "{\"%s\", %u, %llu, 0x%016llxULL},",
                              t.name.c_str(), procs,
                              static_cast<unsigned long long>(seed),
                              static_cast<unsigned long long>(got));
                bool found = false;
                for (const Golden &g : kGolden) {
                    if (t.name != g.source || procs != g.procs ||
                        seed != g.seed)
                        continue;
                    found = true;
                    EXPECT_EQ(got, g.fingerprint) << row;
                    ++checked;
                }
                EXPECT_TRUE(found) << "no golden row; now " << row;
            }
        }
    }
    EXPECT_EQ(checked, std::size(kGolden));
}

TEST(GeneratorDifferential, PoolWorkerMatchesCallingThread)
{
    // On a ThreadPool worker parallelFor runs inline, in processor
    // order; on the calling thread it fans processors out. Same bytes.
    ThreadPool pool(2);
    for (const Source &src : allSources()) {
        for (unsigned procs : {2u, 3u, 17u, 32u}) {
            SCOPED_TRACE(workloadName(src.kind) +
                         (src.restructured ? "-r" : "") +
                         " P=" + std::to_string(procs));
            ParallelTrace on_worker;
            pool.submit([&] { on_worker = generateSource(src, procs, 7); });
            pool.waitAll();
            expectSameTrace(on_worker, generateSource(src, procs, 7));
        }
    }
}

} // namespace
} // namespace prefsim

