/**
 * @file
 * Static analyzer tests: prefetch-quality classification on hand-built
 * traces (every class asserted by exact rule id), the vector-clock +
 * lockset race detector (each grading outcome, barrier structure, and
 * all five generators race-clean), cross-validation reconciliation
 * against hand-built profiles, `prefsim-profile-v1` loading, and the
 * no-perturbation contract: analysis never mutates its input trace and
 * never changes simulation results.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/analysis_json.hh"
#include "analysis/cross_validate.hh"
#include "analysis/prefetch_quality.hh"
#include "analysis/race_detect.hh"
#include "common/cache_geometry.hh"
#include "common/json.hh"
#include "mem/split_bus.hh"
#include "obs/profile/attribution_profiler.hh"
#include "prefetch/inserter.hh"
#include "prefetch/strategy.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"
#include "trace/trace_input.hh"
#include "trace/trace_io_binary.hh"
#include "trace/workload.hh"

namespace
{

using namespace prefsim;
using namespace prefsim::analysis;

constexpr Addr kLineA = 0x10000;
constexpr Addr kLineB = 0x20000;

/** Minimal per-processor record emitter for hand-built traces
 *  (ProcTraceBuilder has no prefetch emission — the prefetch pass owns
 *  insertion — so the analyzer tests write records directly). */
struct Emit
{
    Trace t;

    void compute(std::uint32_t n) { t.appendInstrs(n); }
    void read(Addr a) { t.append(TraceRecord::read(a)); }
    void write(Addr a) { t.append(TraceRecord::write(a)); }
    void prefetch(Addr a) { t.append(TraceRecord::prefetch(a)); }
    void lock(SyncId id) { t.append(TraceRecord::lockAcquire(id)); }
    void unlock(SyncId id) { t.append(TraceRecord::lockRelease(id)); }
    void barrier(SyncId id) { t.append(TraceRecord::barrier(id)); }
};

template <typename F0, typename F1>
ParallelTrace
twoProcs(F0 &&emit0, F1 &&emit1, SyncId locks = 0, SyncId barriers = 0)
{
    Emit e0, e1;
    emit0(e0);
    emit1(e1);
    ParallelTrace t;
    t.name = "hand";
    t.procs.push_back(std::move(e0.t));
    t.procs.push_back(std::move(e1.t));
    t.numLocks = locks;
    t.numBarriers = barriers;
    return t;
}

template <typename F0>
ParallelTrace
oneProc(F0 &&emit0)
{
    Emit e0;
    emit0(e0);
    ParallelTrace t;
    t.name = "hand";
    t.procs.push_back(std::move(e0.t));
    return t;
}

bool
hasRule(const std::vector<verify::Finding> &findings,
        const std::string &rule, verify::Severity severity)
{
    for (const verify::Finding &f : findings) {
        if (f.rule == rule && f.severity == severity)
            return true;
    }
    return false;
}

/** Append the profile line @p addr to @p run (lines ascend). */
obs::ProfileLine &
addLine(obs::ProfileRun &run, Addr addr)
{
    obs::ProfileLine &l = run.lines.emplace_back();
    l.addr = addr;
    return l;
}

QualityReport
classify(const ParallelTrace &t)
{
    return analyzePrefetchQuality(t, CacheGeometry::paperDefault(),
                                  BusTiming{});
}

WorkloadParams
smallParams(unsigned procs, std::uint64_t refs, std::uint64_t seed)
{
    WorkloadParams p;
    p.numProcs = procs;
    p.refsPerProc = refs;
    p.seed = seed;
    return p;
}

// ---------------------------------------------------------------------
// Prefetch quality: every class lands on its exact rule id.

TEST(PrefetchQuality, ProvablyLatePrefetch)
{
    // Distance 12 estimated cycles: far below even the contention-free
    // fill latency (100), never mind the contention bound.
    const ParallelTrace t = oneProc([](Emit &e) {
        e.prefetch(kLineA);
        e.compute(10);
        e.read(kLineA);
    });
    const QualityReport r = classify(t);
    EXPECT_EQ(r.prefetches, 1u);
    EXPECT_EQ(r.totals.late, 1u);
    EXPECT_TRUE(hasRule(r.findings, "prefetch.quality.late",
                        verify::Severity::Warning));
    EXPECT_EQ(r.floorBound, BusTiming{}.requestLookahead());
    EXPECT_EQ(r.fillBound, BusTiming{}.totalLatency);
}

TEST(PrefetchQuality, TimelyPrefetchHasNoFinding)
{
    const ParallelTrace t = oneProc([](Emit &e) {
        e.prefetch(kLineA);
        e.compute(200); // distance 202 > the 100-cycle bound
        e.read(kLineA);
    });
    const QualityReport r = classify(t);
    EXPECT_EQ(r.totals.timely, 1u);
    EXPECT_TRUE(r.findings.empty());
}

TEST(PrefetchQuality, RemoteWriteMakesPrefetchUseless)
{
    // Proc 1's write lands at estimated cycle 100, inside proc 0's
    // (prefetch @0, use @302) window on a write-shared line. Without
    // it the 302-cycle distance would have been timely (two-proc
    // contention bound: 108).
    const ParallelTrace t = twoProcs(
        [](Emit &e) {
            e.prefetch(kLineA);
            e.compute(300);
            e.read(kLineA);
        },
        [](Emit &e) {
            e.compute(100);
            e.write(kLineA);
        });
    const QualityReport r = classify(t);
    EXPECT_EQ(r.totals.useless, 1u);
    EXPECT_TRUE(hasRule(r.findings, "prefetch.quality.useless",
                        verify::Severity::Warning));
}

TEST(PrefetchQuality, NeverUsedPrefetchIsUseless)
{
    const ParallelTrace t = oneProc([](Emit &e) {
        e.prefetch(kLineB);
        e.compute(50);
        e.read(kLineA);
    });
    const QualityReport r = classify(t);
    EXPECT_EQ(r.totals.useless, 1u);
    EXPECT_TRUE(hasRule(r.findings, "prefetch.quality.useless",
                        verify::Severity::Warning));
}

TEST(PrefetchQuality, InFlightTwinIsRedundant)
{
    // Two prefetches covering the same use: the second duplicates an
    // in-flight window (the simulator's duplicate-drop).
    const ParallelTrace t = oneProc([](Emit &e) {
        e.prefetch(kLineA);
        e.prefetch(kLineA);
        e.compute(200);
        e.read(kLineA);
    });
    const QualityReport r = classify(t);
    EXPECT_EQ(r.prefetches, 2u);
    EXPECT_EQ(r.totals.redundant, 1u);
    EXPECT_EQ(r.totals.timely, 1u);
    EXPECT_TRUE(hasRule(r.findings, "prefetch.quality.redundant",
                        verify::Severity::Warning));
}

TEST(PrefetchQuality, ResidentLineIsRedundant)
{
    // The line was demand-read moments before the prefetch and nothing
    // evicted or invalidated it: the simulator would drop the prefetch
    // quietly as resident.
    const ParallelTrace t = oneProc([](Emit &e) {
        e.read(kLineA);
        e.prefetch(kLineA);
        e.compute(10);
        e.read(kLineA);
    });
    const QualityReport r = classify(t);
    EXPECT_EQ(r.totals.redundant, 1u);
    EXPECT_TRUE(hasRule(r.findings, "prefetch.quality.redundant",
                        verify::Severity::Warning));
}

TEST(PrefetchQuality, LedgerSumsToTotals)
{
    const ParallelTrace base = generateWorkload(
        WorkloadKind::Topopt, smallParams(4, 5000, 7));
    const AnnotatedTrace annotated = annotateTrace(
        base, Strategy::PREF, CacheGeometry::paperDefault());
    const QualityReport r = classify(annotated.trace);
    EXPECT_EQ(r.totals.total(), r.prefetches);
    PredictedCounts sum;
    for (const auto &[line, procs] : r.lines) {
        (void)line;
        for (const auto &[proc, counts] : procs) {
            (void)proc;
            sum.timely += counts.timely;
            sum.late += counts.late;
            sum.useless += counts.useless;
            sum.redundant += counts.redundant;
        }
    }
    EXPECT_EQ(sum.total(), r.totals.total());
    EXPECT_EQ(sum.late, r.totals.late);
}

// ---------------------------------------------------------------------
// Race detection: each lockset grading, barrier structure, clocks.

TEST(RaceDetect, InconsistentLockingIsAnError)
{
    // The classic Eraser signature: both writes locked, but under
    // *different* locks — the discipline is broken, not absent.
    const ParallelTrace t = twoProcs(
        [](Emit &e) {
            e.lock(0);
            e.write(kLineA);
            e.unlock(0);
        },
        [](Emit &e) {
            e.lock(1);
            e.write(kLineA);
            e.unlock(1);
        },
        /*locks=*/2);
    const RaceReport r = detectRaces(t);
    EXPECT_TRUE(hasRule(r.findings, "race.lockset",
                        verify::Severity::Error));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.stats.raceCandidates, 1u);
}

TEST(RaceDetect, UnlockedReadIsAWarning)
{
    // topopt's optimistic-read idiom: writers hold the lock, one
    // reader peeks without it.
    const ParallelTrace t = twoProcs(
        [](Emit &e) {
            e.lock(0);
            e.write(kLineA);
            e.unlock(0);
        },
        [](Emit &e) { e.read(kLineA); },
        /*locks=*/1);
    const RaceReport r = detectRaces(t);
    EXPECT_TRUE(hasRule(r.findings, "race.unlocked_read",
                        verify::Severity::Warning));
    EXPECT_TRUE(r.ok());
}

TEST(RaceDetect, LockFreeSharingIsAWarning)
{
    // mp3d's discipline: write-shared, no locks anywhere.
    const ParallelTrace t = twoProcs(
        [](Emit &e) { e.write(kLineA); },
        [](Emit &e) { e.write(kLineA); });
    const RaceReport r = detectRaces(t);
    EXPECT_TRUE(hasRule(r.findings, "race.unsynchronized",
                        verify::Severity::Warning));
    EXPECT_TRUE(r.ok());
}

TEST(RaceDetect, CommonLockSerialises)
{
    const ParallelTrace t = twoProcs(
        [](Emit &e) {
            e.lock(0);
            e.write(kLineA);
            e.unlock(0);
        },
        [](Emit &e) {
            e.lock(0);
            e.write(kLineA);
            e.unlock(0);
        },
        /*locks=*/1);
    const RaceReport r = detectRaces(t);
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.stats.raceCandidates, 1u);
    EXPECT_EQ(r.stats.lockSerialised, 1u);
}

TEST(RaceDetect, BarrierOrdersEpisodes)
{
    // Same word, both procs write — but in different barrier episodes,
    // so the accesses are ordered, not concurrent.
    const ParallelTrace t = twoProcs(
        [](Emit &e) {
            e.write(kLineA);
            e.barrier(0);
        },
        [](Emit &e) {
            e.barrier(0);
            e.write(kLineA);
        },
        /*locks=*/0, /*barriers=*/1);
    const RaceReport r = detectRaces(t);
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.stats.raceCandidates, 0u);
    EXPECT_EQ(r.stats.episodes, 2u);
}

TEST(RaceDetect, MismatchedBarrierSequencesAreStructural)
{
    const ParallelTrace t = twoProcs(
        [](Emit &e) { e.barrier(0); },
        [](Emit &e) { e.barrier(1); },
        /*locks=*/0, /*barriers=*/2);
    const RaceReport r = detectRaces(t);
    EXPECT_TRUE(hasRule(r.findings, "race.structure",
                        verify::Severity::Error));
    EXPECT_FALSE(r.ok());
}

TEST(RaceDetect, VectorClockAlgebra)
{
    VectorClock a(2), b(2);
    a.tick(0);
    b.tick(1);
    EXPECT_TRUE(a.concurrentWith(b));
    EXPECT_FALSE(a.lessEqual(b));
    a.join(b); // a now dominates b
    EXPECT_TRUE(b.lessEqual(a));
    EXPECT_FALSE(a.concurrentWith(b));
    EXPECT_EQ(a.component(0), 1u);
    EXPECT_EQ(a.component(1), 1u);
}

TEST(RaceDetect, AllGeneratorsAreRaceClean)
{
    // The generators encode intentional sharing disciplines; none may
    // trip an *error*-grade race (inconsistent locking or broken
    // barrier structure). Warnings are their documented idioms.
    const WorkloadParams params = smallParams(8, 20000, 1);
    for (WorkloadKind kind : allWorkloads()) {
        const ParallelTrace t = generateWorkload(kind, params);
        const RaceReport r = detectRaces(t);
        EXPECT_TRUE(r.ok()) << workloadName(kind);
        EXPECT_GT(r.stats.wordsChecked, 0u) << workloadName(kind);
    }
}

// ---------------------------------------------------------------------
// Cross-validation reconciliation.

TEST(CrossValidate, PerfectAgreement)
{
    QualityReport q;
    q.lines[kLineA][0].late = 5;
    q.totals.late = 5;
    q.prefetches = 5;
    obs::ProfileRun run;
    run.label = "t";
    obs::ProfilePrefetch &pf = addLine(run, kLineA).prefetchFor(0);
    pf.issued = 5;
    pf.late = 5;
    pf.useful = 5; // late fills still get used: the overlap case
    const ValidationResult v = crossValidate(q, run, 0.8);
    EXPECT_EQ(v.matrix.at(PredRow::Late, ObsCol::Late), 5u);
    EXPECT_EQ(v.matrix.total(), v.pfIssued);
    EXPECT_DOUBLE_EQ(v.lateRecall, 1.0);
    EXPECT_TRUE(v.ok());
}

TEST(CrossValidate, MissedLatenessFailsTheFloor)
{
    QualityReport q;
    q.lines[kLineA][0].timely = 4;
    q.totals.timely = 4;
    q.prefetches = 4;
    obs::ProfileRun run;
    run.label = "t";
    obs::ProfilePrefetch &pf = addLine(run, kLineA).prefetchFor(0);
    pf.issued = 4;
    pf.late = 4;
    const ValidationResult v = crossValidate(q, run, 0.8);
    EXPECT_EQ(v.matrix.at(PredRow::Timely, ObsCol::Late), 4u);
    EXPECT_DOUBLE_EQ(v.lateRecall, 0.0);
    EXPECT_TRUE(hasRule(v.findings, "analysis.drift.late_recall",
                        verify::Severity::Error));
    EXPECT_FALSE(v.ok());
    EXPECT_EQ(v.matrix.total(), v.pfIssued);
}

TEST(CrossValidate, UncoveredIssuesWarn)
{
    const QualityReport q; // the static pass saw nothing
    obs::ProfileRun run;
    run.label = "t";
    obs::ProfilePrefetch &pf = addLine(run, kLineA).prefetchFor(2);
    pf.issued = 3;
    pf.useful = 3;
    const ValidationResult v = crossValidate(q, run, 0.8);
    EXPECT_EQ(v.uncovered, 3u);
    EXPECT_EQ(v.matrix.at(PredRow::Timely, ObsCol::Timely), 3u);
    EXPECT_TRUE(hasRule(v.findings, "analysis.drift.coverage",
                        verify::Severity::Warning));
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.matrix.total(), v.pfIssued);
}

TEST(CrossValidate, QuietDropsShedRedundantFirst)
{
    // 3 inserted (2 predicted redundant, 1 late), only 1 issued: the
    // shortfall must consume the redundant predictions — quiet drops
    // are exactly what "redundant" means — leaving the late claim to
    // meet the observed-late outcome.
    QualityReport q;
    q.lines[kLineA][1].redundant = 2;
    q.lines[kLineA][1].late = 1;
    q.totals.redundant = 2;
    q.totals.late = 1;
    q.prefetches = 3;
    obs::ProfileRun run;
    run.label = "t";
    obs::ProfilePrefetch &pf = addLine(run, kLineA).prefetchFor(1);
    pf.issued = 1;
    pf.late = 1;
    const ValidationResult v = crossValidate(q, run, 0.8);
    EXPECT_EQ(v.matrix.at(PredRow::Late, ObsCol::Late), 1u);
    EXPECT_EQ(v.matrix.rowSum(PredRow::Redundant), 0u);
    EXPECT_DOUBLE_EQ(v.lateRecall, 1.0);
    EXPECT_EQ(v.matrix.total(), v.pfIssued);
}

TEST(CrossValidate, ProfileRoundTrip)
{
    obs::ProfileRun run;
    run.label = "hand/PREF@8";
    run.procs = 2;
    obs::ProfileLine &line = addLine(run, kLineA);
    line.busOps = 1;
    line.busCycles = 8;
    obs::ProfilePrefetch &pf = line.prefetchFor(1);
    pf.issued = 7;
    pf.useful = 4;
    pf.late = 2;
    pf.killed = 1;
    pf.displaced = 2;
    obs::ProfileStore store;
    store.commit(run);
    obs::ProfileRun skipped;
    skipped.label = "hand/NP@8";
    skipped.skipped = true;
    store.commit(skipped);

    std::ostringstream os;
    store.writeJson(os);
    const std::string path =
        testing::TempDir() + "test_analysis_profile.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << os.str();
    }

    const std::vector<obs::ProfileRun> loaded =
        obs::loadProfileJson(path);
    ASSERT_EQ(loaded.size(), 2u);
    const obs::ProfileRun *found =
        findProfileRun(loaded, "hand/PREF@8");
    ASSERT_NE(found, nullptr);
    const obs::ProfileLine *line_back = found->findLine(kLineA);
    ASSERT_NE(line_back, nullptr);
    const obs::ProfilePrefetch *pf_back = line_back->findPrefetch(1);
    ASSERT_NE(pf_back, nullptr);
    const obs::ProfilePrefetch &back = *pf_back;
    EXPECT_EQ(back.issued, 7u);
    EXPECT_EQ(back.useful, 4u);
    EXPECT_EQ(back.late, 2u);
    EXPECT_EQ(back.killed, 1u);
    EXPECT_EQ(back.displaced, 2u);
    // Skipped runs load with their marker but are never "found".
    EXPECT_EQ(findProfileRun(loaded, "hand/NP@8"), nullptr);

    EXPECT_THROW(obs::loadProfileJson(path + ".nope"), std::runtime_error);
}

// ---------------------------------------------------------------------
// Serialisation, input resolution, and the no-perturbation contract.

TEST(AnalysisJson, DeterministicAndWellFormed)
{
    const ParallelTrace base = generateWorkload(
        WorkloadKind::Water, smallParams(4, 5000, 3));
    const AnnotatedTrace annotated = annotateTrace(
        base, Strategy::PREF, CacheGeometry::paperDefault());
    AnalysisRun run;
    run.label = "water/PREF@8";
    run.procs = 4;
    run.quality = classify(annotated.trace);
    run.race = detectRaces(annotated.trace);
    const std::vector<verify::Finding> findings =
        collectFindings(run);
    for (const verify::Finding &f : findings)
        EXPECT_EQ(f.location.rfind("water/PREF@8", 0), 0u) << f.rule;

    std::ostringstream a, b;
    writeAnalysisJson(a, {run}, findings);
    writeAnalysisJson(b, {run}, findings);
    EXPECT_EQ(a.str(), b.str());
    const std::optional<JsonValue> doc = parseJson(a.str());
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("schema"), nullptr);
    EXPECT_EQ(doc->find("schema")->asString(), "prefsim-analysis-v1");
    const JsonValue *jruns = doc->find("runs");
    ASSERT_NE(jruns, nullptr);
    const JsonValue &jrun = jruns->array().at(0);
    ASSERT_NE(jrun.find("prefetches"), nullptr);
    EXPECT_EQ(jrun.find("prefetches")->asU64(),
              run.quality.prefetches);
}

TEST(TraceInput, BinaryFilesAndGeneratorsResolveAlike)
{
    const WorkloadParams params = smallParams(2, 2000, 1);
    const ParallelTrace t =
        generateWorkload(WorkloadKind::Mp3d, params);
    const std::string path =
        testing::TempDir() + "test_analysis_trace.bin";
    writeTraceBinaryFile(path, t);

    std::string error;
    const std::vector<TraceInput> from_file =
        resolveTraceInputs("", {path}, params, error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(from_file.size(), 1u);
    EXPECT_EQ(from_file[0].name, path);
    EXPECT_EQ(from_file[0].trace.numProcs(), t.numProcs());
    EXPECT_EQ(from_file[0].trace.totalDemandRefs(),
              t.totalDemandRefs());

    const std::vector<TraceInput> from_gen =
        resolveTraceInputs("mp3d", {}, params, error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(from_gen.size(), 1u);
    EXPECT_EQ(from_gen[0].name, "gen:mp3d");
    EXPECT_EQ(from_gen[0].trace.totalDemandRefs(),
              t.totalDemandRefs());

    EXPECT_TRUE(
        resolveTraceInputs("", {path + ".nope"}, params, error)
            .empty());
    EXPECT_FALSE(error.empty());
}

TEST(Neutrality, AnalysisNeverMutatesTheTrace)
{
    const ParallelTrace base = generateWorkload(
        WorkloadKind::Topopt, smallParams(4, 5000, 7));
    const AnnotatedTrace annotated = annotateTrace(
        base, Strategy::PWS, CacheGeometry::paperDefault());
    const ParallelTrace &t = annotated.trace;
    std::vector<std::vector<TraceRecord>> before;
    for (const Trace &p : t.procs)
        before.emplace_back(p.records().begin(), p.records().end());

    (void)classify(t);
    (void)detectRaces(t);

    ASSERT_EQ(before.size(), t.numProcs());
    for (std::size_t p = 0; p < t.numProcs(); ++p) {
        ASSERT_EQ(before[p].size(), t.procs[p].size()) << p;
        for (std::size_t i = 0; i < before[p].size(); ++i) {
            ASSERT_TRUE(before[p][i] == t.procs[p][i])
                << "proc " << p << " record " << i;
        }
    }
}

TEST(Neutrality, AnalysisNeverChangesSimulationResults)
{
    const ParallelTrace base = generateWorkload(
        WorkloadKind::Pverify, smallParams(4, 5000, 11));
    const AnnotatedTrace annotated = annotateTrace(
        base, Strategy::PREF, CacheGeometry::paperDefault());
    SimConfig cfg;
    const SimStats first = simulate(annotated.trace, cfg);

    (void)classify(annotated.trace);
    (void)detectRaces(annotated.trace);

    const SimStats second = simulate(annotated.trace, cfg);
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.bus.busyCycles, second.bus.busyCycles);
    EXPECT_EQ(first.totalDemandRefs(), second.totalDemandRefs());
    EXPECT_EQ(first.totalPrefetchMisses(),
              second.totalPrefetchMisses());
}

} // namespace
