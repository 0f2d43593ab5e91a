/**
 * @file
 * Tests for the off-line prefetch insertion pass.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/result_io.hh"
#include "prefetch/cost_model.hh"
#include "prefetch/inserter.hh"
#include "trace/trace_view.hh"
#include "trace/workload.hh"

namespace prefsim
{
namespace
{

const CacheGeometry kGeom = CacheGeometry::paperDefault();


/** Normalise a record stream: drop prefetches, coalesce Instr runs. */
std::vector<TraceRecord>
normalized(const Trace &t)
{
    std::vector<TraceRecord> out;
    std::uint64_t instrs = 0;
    auto flush = [&]() {
        if (instrs) {
            out.push_back(
                TraceRecord::instr(static_cast<std::uint32_t>(instrs)));
            instrs = 0;
        }
    };
    for (const auto &r : t.records()) {
        if (isPrefetch(r.kind))
            continue;
        if (r.kind == RecordKind::Instr) {
            instrs += r.count;
            continue;
        }
        flush();
        out.push_back(r);
    }
    flush();
    return out;
}

ParallelTrace
singleProc(Trace t)
{
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.push_back(std::move(t));
    return pt;
}

TEST(Inserter, NpLeavesTraceUntouched)
{
    Trace t;
    t.appendInstrs(50);
    t.append(TraceRecord::read(0x1000));
    const ParallelTrace in = singleProc(std::move(t));

    const AnnotatedTrace out = annotateTrace(in, Strategy::NP, kGeom);
    ASSERT_EQ(out.trace.procs[0].size(), in.procs[0].size());
    EXPECT_EQ(out.stats.inserted, 0u);
    EXPECT_EQ(out.stats.demandRefs, 1u);
}

TEST(Inserter, OracleCoversEveryColdMiss)
{
    Trace t;
    for (int i = 0; i < 20; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1000 + Addr{unsigned(i)} * 32));
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.oracleCandidates, 20u);
    EXPECT_EQ(out.stats.inserted, 20u);
    EXPECT_EQ(out.trace.procs[0].prefetches(), 20u);
}

TEST(Inserter, NoPrefetchForHits)
{
    Trace t;
    t.append(TraceRecord::read(0x1000));
    for (int i = 0; i < 10; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1004)); // Same line: hits.
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.inserted, 1u);
}

TEST(Inserter, ConflictMissesArePredicted)
{
    // Alternating lines that map to the same set: every access misses.
    Trace t;
    for (int i = 0; i < 10; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(i % 2 ? 0x0 : Addr{kGeom.sizeBytes()}));
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.inserted, 10u);
}

TEST(Inserter, PrefetchPlacedDistanceAhead)
{
    Trace t;
    t.appendInstrs(500);
    t.append(TraceRecord::read(0x1000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);

    const Trace &a = out.trace.procs[0];
    // Expect: instr batch, prefetch, instr batch, read — the prefetch
    // splits the 500-cycle batch so that ~100 estimated cycles remain.
    const auto start = estimatedStartCycles(a);
    std::size_t pf = a.size(), rd = a.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (isPrefetch(a[i].kind))
            pf = i;
        if (a[i].kind == RecordKind::Read)
            rd = i;
    }
    ASSERT_LT(pf, a.size());
    ASSERT_LT(rd, a.size());
    ASSERT_LT(pf, rd);
    const Cycle gap = start[rd] - start[pf];
    // The paper's PREF distance is 100 cycles; insertion lands at a
    // record boundary at or just beyond the target.
    EXPECT_GE(gap, 100u);
    EXPECT_LE(gap, 110u);
}

TEST(Inserter, EarlyMissesHoistedToTop)
{
    Trace t;
    t.appendInstrs(10);
    t.append(TraceRecord::read(0x1000)); // Within first 100 cycles.
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    const Trace &a = out.trace.procs[0];
    ASSERT_GE(a.size(), 3u);
    EXPECT_TRUE(isPrefetch(a[0].kind));
}

TEST(Inserter, LpdUsesLongDistance)
{
    Trace t;
    t.appendInstrs(1000);
    t.append(TraceRecord::read(0x1000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::LPD, kGeom);
    const Trace &a = out.trace.procs[0];
    const auto start = estimatedStartCycles(a);
    std::size_t pf = 0, rd = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (isPrefetch(a[i].kind))
            pf = i;
        if (a[i].kind == RecordKind::Read)
            rd = i;
    }
    EXPECT_GE(start[rd] - start[pf], 400u);
    EXPECT_LE(start[rd] - start[pf], 410u);
}

TEST(Inserter, ExclMarksOnlyWriteCoveringPrefetches)
{
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::read(0x1000));
    t.appendInstrs(300);
    t.append(TraceRecord::write(0x2000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::EXCL, kGeom);

    unsigned shared = 0, excl = 0;
    for (const auto &r : out.trace.procs[0].records()) {
        shared += r.kind == RecordKind::Prefetch ? 1 : 0;
        excl += r.kind == RecordKind::PrefetchExcl ? 1 : 0;
    }
    EXPECT_EQ(shared, 1u);
    EXPECT_EQ(excl, 1u);
    EXPECT_EQ(out.stats.insertedExclusive, 1u);
}

TEST(Inserter, PrefMarksNothingExclusive)
{
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::write(0x2000));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.insertedExclusive, 0u);
}

TEST(Inserter, PwsAddsRedundantPrefetchesForWriteShared)
{
    // Twenty write-shared lines cycled in order through the 16-line PWS
    // filter: every access misses the filter even though the oracle
    // filter (same geometry as the cache) predicts hits.
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.resize(2);
    Trace &a = pt.procs[0];
    for (int round = 0; round < 6; ++round) {
        for (unsigned i = 0; i < 20; ++i) {
            a.appendInstrs(20);
            a.append(TraceRecord::read(0x5000 + Addr{i} * 32));
        }
    }
    for (unsigned i = 0; i < 20; ++i)
        pt.procs[1].append(TraceRecord::write(0x5004 + Addr{i} * 32));

    const AnnotatedTrace pref = annotateTrace(pt, Strategy::PREF, kGeom);
    const AnnotatedTrace pws = annotateTrace(pt, Strategy::PWS, kGeom);
    EXPECT_EQ(pref.stats.pwsCandidates, 0u);
    EXPECT_GT(pws.stats.pwsCandidates, 50u);
    EXPECT_GT(pws.stats.inserted, pref.stats.inserted);
    // Redundant prefetches target line 0x5000 only.
    EXPECT_EQ(pws.stats.pwsCandidates + pws.stats.oracleCandidates,
              pws.stats.inserted);
}

TEST(Inserter, PwsIgnoresPrivateData)
{
    // Same pattern but nothing is write-shared: PWS degenerates to PREF.
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.resize(2);
    Trace &a = pt.procs[0];
    for (int round = 0; round < 6; ++round) {
        a.appendInstrs(200);
        a.append(TraceRecord::read(0x5000));
        for (unsigned i = 0; i < 20; ++i) {
            a.appendInstrs(20);
            a.append(TraceRecord::read(0x8000 + Addr{i} * 32));
        }
    }
    pt.procs[1].append(TraceRecord::read(0x5004)); // Read-shared only.

    const AnnotatedTrace pws = annotateTrace(pt, Strategy::PWS, kGeom);
    EXPECT_EQ(pws.stats.pwsCandidates, 0u);
}

TEST(Inserter, OverheadRatio)
{
    Trace t;
    for (int i = 0; i < 4; ++i) {
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1000 + Addr{unsigned(i)} * 32));
        t.appendInstrs(200);
        t.append(TraceRecord::read(0x1000 + Addr{unsigned(i)} * 32));
    }
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::PREF, kGeom);
    EXPECT_EQ(out.stats.demandRefs, 8u);
    EXPECT_EQ(out.stats.inserted, 4u);
    EXPECT_NEAR(out.stats.overheadRatio(), 0.5, 1e-9);
}

TEST(Inserter, PreservesSyncAndOrder)
{
    Trace t;
    t.append(TraceRecord::lockAcquire(0));
    t.appendInstrs(300);
    t.append(TraceRecord::read(0x1000));
    t.append(TraceRecord::lockRelease(0));
    t.append(TraceRecord::barrier(0));
    const ParallelTrace in = singleProc(std::move(t));
    const AnnotatedTrace out = annotateTrace(in, Strategy::PREF, kGeom);

    // All original work still present, in order (Instr batches may be
    // split around inserted prefetches; normalisation re-coalesces).
    const auto originals = normalized(out.trace.procs[0]);
    const auto expected = normalized(in.procs[0]);
    ASSERT_EQ(originals.size(), expected.size());
    for (std::size_t i = 0; i < originals.size(); ++i)
        EXPECT_EQ(originals[i], expected[i]);
}

TEST(Inserter, PrefetchKeepsWordAddress)
{
    // False-sharing attribution needs the word, not just the line.
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::write(0x2014));
    const AnnotatedTrace out =
        annotateTrace(singleProc(std::move(t)), Strategy::EXCL, kGeom);
    bool found = false;
    for (const auto &r : out.trace.procs[0].records()) {
        if (isPrefetch(r.kind)) {
            EXPECT_EQ(r.addr, 0x2014u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Inserter, MetadataCopied)
{
    ParallelTrace pt;
    pt.name = "meta";
    pt.numLocks = 3;
    pt.numBarriers = 7;
    pt.procs.resize(2);
    const AnnotatedTrace out = annotateTrace(pt, Strategy::PREF, kGeom);
    EXPECT_EQ(out.trace.name, "meta");
    EXPECT_EQ(out.trace.numLocks, 3u);
    EXPECT_EQ(out.trace.numBarriers, 7u);
    EXPECT_EQ(out.trace.numProcs(), 2u);
}

/** A one-processor view of @p t with @p placements. */
TraceView
handView(Trace t, PlacementList placements)
{
    TraceView v;
    v.base = std::make_shared<const ParallelTrace>(singleProc(std::move(t)));
    v.placements.push_back(std::move(placements));
    return v;
}

/** Instr(10), then a read: the base of the hand placements. */
Trace
burstThenRead()
{
    Trace t;
    t.appendInstrs(10);
    t.append(TraceRecord::read(0x1000));
    return t;
}

TEST(AnnotationView, PlacementAtOffsetZeroGoesBeforeItsRecord)
{
    const TraceView v = handView(burstThenRead(), {{0, 0x2000, 0, false}});
    const std::vector<TraceRecord> want = {TraceRecord::prefetch(0x2000),
                                           TraceRecord::instr(10),
                                           TraceRecord::read(0x1000)};
    EXPECT_EQ(v.materialize().procs[0].records(), want);
    EXPECT_EQ(v.streamSize(0), want.size());
}

TEST(AnnotationView, PlacementInsideABurstSplitsIt)
{
    // Two placements at one split point run in list order and split
    // the burst once.
    const TraceView v = handView(
        burstThenRead(), {{0, 0x2000, 4, true}, {0, 0x3000, 4, false}});
    const std::vector<TraceRecord> want = {
        TraceRecord::instr(4), TraceRecord::prefetch(0x2000, true),
        TraceRecord::prefetch(0x3000), TraceRecord::instr(6),
        TraceRecord::read(0x1000)};
    EXPECT_EQ(v.materialize().procs[0].records(), want);
    EXPECT_EQ(v.streamSize(0), want.size());
    EXPECT_EQ(v.totalPrefetches(), 2u);
}

TEST(AnnotationView, TrailingPlacementFollowsTheLastRecord)
{
    const TraceView v = handView(burstThenRead(), {{2, 0x2000, 0, false}});
    const std::vector<TraceRecord> want = {TraceRecord::instr(10),
                                           TraceRecord::read(0x1000),
                                           TraceRecord::prefetch(0x2000)};
    EXPECT_EQ(v.materialize().procs[0].records(), want);
    EXPECT_EQ(v.streamSize(0), want.size());
}

TEST(AnnotationView, UnplacedProcessorCopiesTheBase)
{
    // A processor with no placements, with no lists or an empty one,
    // materializes as a copy of its base records, Instr(0) and unfolded
    // bursts included (it simulates as the canonical form either way);
    // one with placements is written through emitPlaced, which folds
    // and drops them.
    Trace t;
    t.records() = {TraceRecord::instr(0), TraceRecord::instr(3),
                   TraceRecord::instr(4), TraceRecord::read(0x1000)};
    TraceView v = handView(t, {});
    EXPECT_EQ(v.materialize().procs[0].records(), t.records());
    EXPECT_EQ(v.streamSize(0), t.size());
    v.placements.clear();
    EXPECT_EQ(v.materialize().procs[0].records(), t.records());
    EXPECT_EQ(v.streamSize(0), t.size());
    v.placements.push_back({{3, 0x2000, 0, false}});
    const std::vector<TraceRecord> folded = {TraceRecord::instr(7),
                                             TraceRecord::prefetch(0x2000),
                                             TraceRecord::read(0x1000)};
    EXPECT_EQ(v.materialize().procs[0].records(), folded);
}

TEST(AnnotationView, DontCrossSyncClampsBelowTheSync)
{
    // The read's natural placement lands in the burst before the lock;
    // dontCrossSync moves it to just after the lock.
    Trace t;
    t.appendInstrs(300);
    t.append(TraceRecord::lockAcquire(0));
    t.appendInstrs(20);
    t.append(TraceRecord::read(0x1000));
    t.append(TraceRecord::lockRelease(0));
    auto base = std::make_shared<const ParallelTrace>(singleProc(t));
    StrategyParams params = strategyParams(Strategy::PREF);

    const AnnotatedView natural = annotateView(base, params, kGeom);
    ASSERT_EQ(natural.trace.placements[0].size(), 1u);
    EXPECT_EQ(natural.trace.placements[0][0],
              (Placement{0, 0x1000, 221, false}));

    params.dontCrossSync = true;
    const AnnotatedView clamped = annotateView(base, params, kGeom);
    EXPECT_EQ(clamped.trace.placements,
              (std::vector<PlacementList>{{{2, 0x1000, 0, false}}}));
    const std::vector<TraceRecord> want = {
        TraceRecord::instr(300), TraceRecord::lockAcquire(0),
        TraceRecord::prefetch(0x1000), TraceRecord::instr(20),
        TraceRecord::read(0x1000), TraceRecord::lockRelease(0)};
    EXPECT_EQ(clamped.trace.materialize().procs[0].records(), want);
    EXPECT_EQ(annotateTrace(*base, params, kGeom).trace.procs[0].records(),
              want);
}

TEST(AnnotationView, PrivateLinesOnlyPlacesOnlyPrivateLines)
{
    const Addr priv = 0x40000000, shared = 0x100000;
    ParallelTrace pt;
    pt.name = "t";
    pt.procs.resize(2);
    pt.procs[0].appendInstrs(300);
    pt.procs[0].append(TraceRecord::read(priv));
    pt.procs[0].appendInstrs(300);
    pt.procs[0].append(TraceRecord::read(shared));
    pt.procs[1].append(TraceRecord::write(shared));
    auto base = std::make_shared<const ParallelTrace>(pt);
    StrategyParams params = strategyParams(Strategy::PREF);
    params.privateLinesOnly = true;

    const AnnotatedView view = annotateView(base, params, kGeom);
    EXPECT_EQ(view.stats.droppedShared, 2u);
    EXPECT_EQ(view.trace.placements,
              (std::vector<PlacementList>{{{0, priv, 200, false}}, {}}));
    const ParallelTrace copy = view.trace.materialize();
    const std::vector<TraceRecord> want = {
        TraceRecord::instr(200), TraceRecord::prefetch(priv),
        TraceRecord::instr(100), TraceRecord::read(priv),
        TraceRecord::instr(300), TraceRecord::read(shared)};
    EXPECT_EQ(copy.procs[0].records(), want);
    EXPECT_EQ(copy.procs[1].records(), pt.procs[1].records());
    const AnnotatedTrace direct = annotateTrace(pt, params, kGeom);
    EXPECT_EQ(direct.trace.procs[0].records(), want);
    EXPECT_EQ(direct.stats.droppedShared, 2u);
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

TEST(AnnotationView, MaterializeMatchesPinnedAnnotations)
{
    // Every source and strategy at 4 and 16 processors (2000 refs,
    // seed 12345), pinned to the records annotateTrace produced when
    // it still copied each annotation: a materialized view, and
    // annotateTrace itself, must reproduce them record for record. The
    // NP rows equal GeneratorGolden's base traces.
    struct Golden
    {
        const char *source;
        unsigned procs;
        Strategy strategy;
        std::uint64_t fingerprint;
    };
    static const Golden kGolden[] = {
        {"topopt", 4, Strategy::NP, 0x68440abdb4f28b6cULL},
        {"topopt", 4, Strategy::PREF, 0x3fc3bb669192e9efULL},
        {"topopt", 4, Strategy::EXCL, 0x3fc3bb669192e9efULL},
        {"topopt", 4, Strategy::LPD, 0x63dd502d0e20327cULL},
        {"topopt", 4, Strategy::PWS, 0x3fc3bb669192e9efULL},
        {"topopt-r", 4, Strategy::NP, 0x914499bd821dbce7ULL},
        {"topopt-r", 4, Strategy::PREF, 0x3f5d3f5dacf7db77ULL},
        {"topopt-r", 4, Strategy::EXCL, 0x3f5d3f5dacf7db77ULL},
        {"topopt-r", 4, Strategy::LPD, 0xd724e799842a95e8ULL},
        {"topopt-r", 4, Strategy::PWS, 0x3f5d3f5dacf7db77ULL},
        {"pverify", 4, Strategy::NP, 0xb1bf4a63eccaf242ULL},
        {"pverify", 4, Strategy::PREF, 0x58e592bce2dd1826ULL},
        {"pverify", 4, Strategy::EXCL, 0xe668fb1614114b7cULL},
        {"pverify", 4, Strategy::LPD, 0x3761252d7e05438fULL},
        {"pverify", 4, Strategy::PWS, 0x6c3f66958d49d1aeULL},
        {"pverify-r", 4, Strategy::NP, 0x6954622bcc318925ULL},
        {"pverify-r", 4, Strategy::PREF, 0xdb01309438bced28ULL},
        {"pverify-r", 4, Strategy::EXCL, 0xee7a0b4c7f2ca1dcULL},
        {"pverify-r", 4, Strategy::LPD, 0xb48224a7e2921fe1ULL},
        {"pverify-r", 4, Strategy::PWS, 0x3c147090325cf802ULL},
        {"locusroute", 4, Strategy::NP, 0xd0c8c9305e8c7bc2ULL},
        {"locusroute", 4, Strategy::PREF, 0xefd72d3163e99b85ULL},
        {"locusroute", 4, Strategy::EXCL, 0xefd72d3163e99b85ULL},
        {"locusroute", 4, Strategy::LPD, 0xfbc0ea5375508c06ULL},
        {"locusroute", 4, Strategy::PWS, 0xefd72d3163e99b85ULL},
        {"mp3d", 4, Strategy::NP, 0x4b05a3477e631ff3ULL},
        {"mp3d", 4, Strategy::PREF, 0x805b4b18a8641441ULL},
        {"mp3d", 4, Strategy::EXCL, 0x805b4b18a8641441ULL},
        {"mp3d", 4, Strategy::LPD, 0x23d0948946604ac5ULL},
        {"mp3d", 4, Strategy::PWS, 0xf1ec8699ccb39dd0ULL},
        {"water", 4, Strategy::NP, 0x30d32324981e344fULL},
        {"water", 4, Strategy::PREF, 0xb4ea4ca94f8bd6a3ULL},
        {"water", 4, Strategy::EXCL, 0x109e84fdd0921d7fULL},
        {"water", 4, Strategy::LPD, 0x70dc9162af186550ULL},
        {"water", 4, Strategy::PWS, 0xb4ea4ca94f8bd6a3ULL},
        {"topopt", 16, Strategy::NP, 0x205332fc688c48ceULL},
        {"topopt", 16, Strategy::PREF, 0x5acc7648f9213038ULL},
        {"topopt", 16, Strategy::EXCL, 0x5acc7648f9213038ULL},
        {"topopt", 16, Strategy::LPD, 0x895df9898beff800ULL},
        {"topopt", 16, Strategy::PWS, 0x5acc7648f9213038ULL},
        {"topopt-r", 16, Strategy::NP, 0x5dc0a4fab9a706f3ULL},
        {"topopt-r", 16, Strategy::PREF, 0x63839a52d92ad67fULL},
        {"topopt-r", 16, Strategy::EXCL, 0x63839a52d92ad67fULL},
        {"topopt-r", 16, Strategy::LPD, 0xee88f4cd5e25022aULL},
        {"topopt-r", 16, Strategy::PWS, 0x63839a52d92ad67fULL},
        {"pverify", 16, Strategy::NP, 0xb8204511c1abc55cULL},
        {"pverify", 16, Strategy::PREF, 0xa2691729f13de9c6ULL},
        {"pverify", 16, Strategy::EXCL, 0x9e8d2318708a3deeULL},
        {"pverify", 16, Strategy::LPD, 0x72ca84a8950b12aeULL},
        {"pverify", 16, Strategy::PWS, 0xcc0c26f3b23ab37aULL},
        {"pverify-r", 16, Strategy::NP, 0x0d9c21bc42384d6cULL},
        {"pverify-r", 16, Strategy::PREF, 0x13269da73eb947f0ULL},
        {"pverify-r", 16, Strategy::EXCL, 0xeada27394136aba6ULL},
        {"pverify-r", 16, Strategy::LPD, 0x4961b359cee09d7dULL},
        {"pverify-r", 16, Strategy::PWS, 0x834cf01c1cd1af55ULL},
        {"locusroute", 16, Strategy::NP, 0xfbc896ac10b50579ULL},
        {"locusroute", 16, Strategy::PREF, 0xea8744537fe03ba5ULL},
        {"locusroute", 16, Strategy::EXCL, 0xea8744537fe03ba5ULL},
        {"locusroute", 16, Strategy::LPD, 0x3a4de308522f4b6eULL},
        {"locusroute", 16, Strategy::PWS, 0x9a70e3d8d93035c6ULL},
        {"mp3d", 16, Strategy::NP, 0x48d0a9d9aabdb965ULL},
        {"mp3d", 16, Strategy::PREF, 0xf45ee7a0b1f87878ULL},
        {"mp3d", 16, Strategy::EXCL, 0xf45ee7a0b1f87878ULL},
        {"mp3d", 16, Strategy::LPD, 0x733e9c507b3f9173ULL},
        {"mp3d", 16, Strategy::PWS, 0x5f5b12aca555d43cULL},
        {"water", 16, Strategy::NP, 0x1c73b1b25aea4382ULL},
        {"water", 16, Strategy::PREF, 0x2a5fbd66bc03a915ULL},
        {"water", 16, Strategy::EXCL, 0x01fe37f5bcc46433ULL},
        {"water", 16, Strategy::LPD, 0x824d5933e0cc5199ULL},
        {"water", 16, Strategy::PWS, 0x2a5fbd66bc03a915ULL},
    };
    for (const Golden &g : kGolden) {
        const std::string source = g.source;
        const bool restructured = source.ends_with("-r");
        WorkloadParams p;
        p.numProcs = g.procs;
        p.refsPerProc = 2000;
        p.seed = 12345;
        p.restructured = restructured;
        auto base = std::make_shared<const ParallelTrace>(generateWorkload(
            workloadFromName(restructured ? source.substr(0, source.size() - 2)
                                       : source),
            p));
        const AnnotatedView view = annotateView(base, strategyParams(g.strategy), kGeom);
        const AnnotatedTrace copy = annotateTrace(*base, g.strategy, kGeom);
        SCOPED_TRACE(source + "/" + strategyName(g.strategy) + " procs=" +
                     std::to_string(g.procs));
        EXPECT_EQ(traceFingerprint(view.trace.materialize()), g.fingerprint);
        EXPECT_EQ(traceFingerprint(copy.trace), g.fingerprint);
        EXPECT_EQ(view.stats.inserted, copy.stats.inserted);
        EXPECT_EQ(view.stats.demandRefs, copy.stats.demandRefs);
        EXPECT_EQ(view.trace.totalPrefetches(),
                  copy.trace.totalPrefetches());
    }
}

TEST(InserterDeathTest, ZeroDistanceIsFatal)
{
    StrategyParams p;
    p.distanceCycles = 0;
    ParallelTrace pt;
    pt.procs.resize(1);
    EXPECT_EXIT(annotateTrace(pt, p, kGeom), testing::ExitedWithCode(1),
                "distance");
}

TEST(StrategyNames, RoundTripAndParams)
{
    for (auto s : allStrategies())
        EXPECT_EQ(strategyFromName(strategyName(s)), s);
    EXPECT_FALSE(strategyParams(Strategy::NP).enabled);
    EXPECT_EQ(strategyParams(Strategy::PREF).distanceCycles, 100u);
    EXPECT_EQ(strategyParams(Strategy::LPD).distanceCycles, 400u);
    EXPECT_TRUE(strategyParams(Strategy::EXCL).exclusiveWrites);
    EXPECT_TRUE(strategyParams(Strategy::PWS).prefetchWriteShared);
    EXPECT_EQ(strategyParams(Strategy::PWS).pwsFilterLines, 16u);
}

} // namespace
} // namespace prefsim
