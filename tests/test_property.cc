/**
 * @file
 * Property-based tests: randomized trace programs and reference-model
 * equivalence sweeps.
 *
 * Each property runs over a parameterized set of seeds; a failure
 * message names the seed so the case can be replayed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "prefetch/assoc_filter.hh"
#include "prefetch/cost_model.hh"
#include "prefetch/filter_cache.hh"
#include "prefetch/inserter.hh"
#include "sim/simulator.hh"
#include "sim_fingerprint.hh"

namespace prefsim
{
namespace
{

/**
 * Build a random but *legal* parallel trace: balanced ordered locks,
 * identical barrier sequences, a mix of shared and private references
 * and random prefetch records.
 */

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
randomTrace(std::uint64_t seed, unsigned procs, unsigned steps,
            unsigned refs_per_step)
{
    ParallelTrace pt;
    pt.name = "random";
    pt.numLocks = 4;
    pt.numBarriers = steps;
    for (ProcId p = 0; p < procs; ++p) {
        Rng rng(seed * 1315423911u + p);
        Trace t;
        for (unsigned step = 0; step < steps; ++step) {
            for (unsigned i = 0; i < refs_per_step; ++i) {
                const double roll = rng.uniform();
                // Shared pool: 64 lines; private pool: 64 lines.
                const Addr shared = 0x100000 + rng.below(64) * 32 +
                                    rng.below(8) * 4;
                const Addr priv = 0x40000000 + Addr{p} * 0x1000000 +
                                  rng.below(64) * 32 + rng.below(8) * 4;
                if (roll < 0.3) {
                    t.append(TraceRecord::read(shared));
                } else if (roll < 0.4) {
                    t.append(TraceRecord::write(shared));
                } else if (roll < 0.7) {
                    t.append(TraceRecord::read(priv));
                } else if (roll < 0.8) {
                    t.append(TraceRecord::write(priv));
                } else if (roll < 0.9) {
                    t.append(TraceRecord::prefetch(
                        rng.chance(0.5) ? shared : priv,
                        rng.chance(0.3)));
                } else {
                    const SyncId l =
                        static_cast<SyncId>(rng.below(pt.numLocks));
                    t.append(TraceRecord::lockAcquire(l));
                    t.appendInstrs(
                        static_cast<std::uint32_t>(rng.range(1, 5)));
                    if (rng.chance(0.5))
                        t.append(TraceRecord::write(shared));
                    t.append(TraceRecord::lockRelease(l));
                }
                if (rng.chance(0.5)) {
                    t.appendInstrs(
                        static_cast<std::uint32_t>(rng.range(1, 8)));
                }
            }
            t.append(TraceRecord::barrier(step));
        }
        pt.procs.push_back(std::move(t));
    }
    return pt;
}

/**
 * Scatter Instr batches of nearly kMaxInstrCount instructions through
 * every processor of @p pt, so prefetch targets land deep inside them
 * and split offsets need all 32 bits.
 */
ParallelTrace
withHugeInstrs(const ParallelTrace &pt, std::uint64_t seed)
{
    ParallelTrace out = pt;
    for (std::size_t p = 0; p < pt.numProcs(); ++p) {
        Rng rng(seed * 7919 + p);
        Trace t;
        for (const TraceRecord &r : pt.procs[p].records()) {
            if (rng.chance(0.05)) {
                t.appendInstrs(kMaxInstrCount -
                               static_cast<std::uint32_t>(rng.below(3)));
            }
            t.append(r);
        }
        out.procs[p] = std::move(t);
    }
    return out;
}

/**
 * The annotation pass as first written, kept as the reference the
 * parallel, single-forward-pass annotateTrace must match record for
 * record: a start-cycle vector searched with upper_bound, a per-index
 * last-sync vector, placements ordered by stable_sort, a list-based
 * LRU for the PWS filter and map/set-based sharing classes.
 */
namespace reference
{

class ListLru
{
  public:
    ListLru(const CacheGeometry &geom, unsigned num_lines)
        : geom_(geom), num_lines_(num_lines)
    {}

    bool
    access(Addr addr)
    {
        const Addr tag = geom_.lineBase(addr);
        const auto it = map_.find(tag);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return false;
        }
        if (map_.size() >= num_lines_) {
            map_.erase(lru_.back());
            lru_.pop_back();
        }
        lru_.push_front(tag);
        map_[tag] = lru_.begin();
        return true;
    }

  private:
    CacheGeometry geom_;
    unsigned num_lines_;
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> map_;
};

class Sharing
{
  public:
    Sharing(const ParallelTrace &trace, const CacheGeometry &geom)
        : geom_(geom)
    {
        for (std::size_t p = 0; p < trace.numProcs(); ++p) {
            for (const auto &r : trace.procs[p].records()) {
                if (!isDemandRef(r.kind))
                    continue;
                Line &l = lines_[geom_.lineBase(r.addr)];
                l.mask |= std::uint32_t{1} << p;
                l.written |= r.kind == RecordKind::Write;
            }
        }
        for (const auto &[base, l] : lines_) {
            if (std::popcount(l.mask) > 1 && l.written)
                write_shared_.insert(base);
        }
    }

    bool
    isWriteShared(Addr addr) const
    {
        return write_shared_.count(geom_.lineBase(addr)) != 0;
    }

    bool
    isPrivate(Addr addr) const
    {
        const auto it = lines_.find(geom_.lineBase(addr));
        return it == lines_.end() || std::popcount(it->second.mask) <= 1;
    }

  private:
    struct Line
    {
        std::uint32_t mask = 0;
        bool written = false;
    };
    CacheGeometry geom_;
    std::unordered_map<Addr, Line> lines_;
    std::unordered_set<Addr> write_shared_;
};

struct Pending
{
    std::size_t recordIdx;
    Cycle offset;
    Addr addr;
    bool exclusive;
};

Trace
annotateProc(const Trace &in, const StrategyParams &params,
             const CacheGeometry &geom, const Sharing *sharing,
             AnnotateStats &stats)
{
    const std::vector<Cycle> start = estimatedStartCycles(in);
    std::vector<Cycle> next_write(in.size(), kNoCycle);
    {
        std::unordered_map<Addr, Cycle> upcoming;
        for (std::size_t i = in.size(); i-- > 0;) {
            if (!isDemandRef(in[i].kind))
                continue;
            const Addr line = geom.lineBase(in[i].addr);
            const auto it = upcoming.find(line);
            next_write[i] = it == upcoming.end() ? kNoCycle : it->second;
            upcoming[line] =
                in[i].kind == RecordKind::Write ? start[i] : kNoCycle;
        }
    }
    constexpr std::size_t kNoIndex = ~std::size_t{0};
    std::vector<std::size_t> last_sync(in.size(), kNoIndex);
    for (std::size_t i = 0, recent = kNoIndex; i < in.size(); ++i) {
        if (isSync(in[i].kind))
            recent = i;
        last_sync[i] = recent;
    }

    FilterCache oracle(geom);
    ListLru pws_filter(geom, params.pwsFilterLines);
    std::vector<Pending> pending;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const TraceRecord &r = in[i];
        if (!isDemandRef(r.kind))
            continue;
        ++stats.demandRefs;
        const bool oracle_miss = oracle.access(r.addr);
        bool pws_miss = false;
        if (params.prefetchWriteShared && sharing->isWriteShared(r.addr))
            pws_miss = pws_filter.access(r.addr) && !oracle_miss;
        stats.oracleCandidates += oracle_miss;
        stats.pwsCandidates += pws_miss;
        if (!oracle_miss && !pws_miss)
            continue;
        if (params.privateLinesOnly && !sharing->isPrivate(r.addr)) {
            ++stats.droppedShared;
            continue;
        }
        const Cycle target = start[i] >= params.distanceCycles
                                 ? start[i] - params.distanceCycles
                                 : 0;
        const auto it = std::upper_bound(
            start.begin(),
            start.begin() + static_cast<std::ptrdiff_t>(i + 1), target);
        const auto j = static_cast<std::size_t>(it - start.begin()) - 1;
        std::size_t j_final = j;
        Cycle offset = target - start[j];
        if (params.dontCrossSync && last_sync[i] != kNoIndex &&
            last_sync[i] >= j) {
            j_final = last_sync[i] + 1;
            offset = 0;
        }
        if (j_final >= in.size() || in[j_final].kind != RecordKind::Instr ||
            j_final != j)
            offset = 0;
        bool exclusive =
            params.exclusiveWrites && r.kind == RecordKind::Write;
        if (!exclusive && params.exclusiveReadThenWrite &&
            r.kind == RecordKind::Read && next_write[i] != kNoCycle &&
            next_write[i] - start[i] <= params.rtwWindowCycles) {
            exclusive = true;
            ++stats.rtwExclusive;
        }
        pending.push_back({j_final, offset, r.addr, exclusive});
        ++stats.inserted;
        stats.insertedExclusive += exclusive;
    }
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending &a, const Pending &b) {
                         return std::tie(a.recordIdx, a.offset) <
                                std::tie(b.recordIdx, b.offset);
                     });

    Trace out;
    std::size_t next = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const TraceRecord &r = in[i];
        Cycle emitted = 0;
        for (; next < pending.size() && pending[next].recordIdx == i;
             ++next) {
            const Pending &p = pending[next];
            if (p.offset > emitted) {
                out.appendInstrs(
                    static_cast<std::uint32_t>(p.offset - emitted));
                emitted = p.offset;
            }
            out.append(TraceRecord::prefetch(p.addr, p.exclusive));
        }
        if (r.kind == RecordKind::Instr)
            out.appendInstrs(static_cast<std::uint32_t>(r.count - emitted));
        else
            out.append(r);
    }
    for (; next < pending.size(); ++next) {
        out.append(TraceRecord::prefetch(pending[next].addr,
                                         pending[next].exclusive));
    }
    return out;
}

AnnotatedTrace
annotate(const ParallelTrace &input, const StrategyParams &params,
         const CacheGeometry &geom)
{
    AnnotatedTrace result;
    result.trace.name = input.name;
    result.trace.numLocks = input.numLocks;
    result.trace.numBarriers = input.numBarriers;
    if (!params.enabled) {
        result.trace.procs = input.procs;
        result.stats.demandRefs = input.totalDemandRefs();
        return result;
    }
    std::unique_ptr<Sharing> sharing;
    if (params.prefetchWriteShared || params.privateLinesOnly)
        sharing = std::make_unique<Sharing>(input, geom);
    for (const Trace &t : input.procs) {
        result.trace.procs.push_back(
            annotateProc(t, params, geom, sharing.get(), result.stats));
    }
    return result;
}

} // namespace reference

/** Assert @p got is @p want: every record of every processor and every
 *  AnnotateStats field. */
void
expectSameAnnotation(const AnnotatedTrace &got, const AnnotatedTrace &want)
{
    ASSERT_EQ(got.trace.numProcs(), want.trace.numProcs());
    for (std::size_t p = 0; p < want.trace.numProcs(); ++p) {
        ASSERT_EQ(got.trace.procs[p].records(), want.trace.procs[p].records())
            << "processor " << p;
    }
    EXPECT_EQ(got.trace.name, want.trace.name);
    EXPECT_EQ(got.trace.numLocks, want.trace.numLocks);
    EXPECT_EQ(got.trace.numBarriers, want.trace.numBarriers);
    const AnnotateStats &a = got.stats;
    const AnnotateStats &b = want.stats;
    EXPECT_EQ(a.oracleCandidates, b.oracleCandidates);
    EXPECT_EQ(a.pwsCandidates, b.pwsCandidates);
    EXPECT_EQ(a.inserted, b.inserted);
    EXPECT_EQ(a.insertedExclusive, b.insertedExclusive);
    EXPECT_EQ(a.rtwExclusive, b.rtwExclusive);
    EXPECT_EQ(a.droppedShared, b.droppedShared);
    EXPECT_EQ(a.demandRefs, b.demandRefs);
}

/** The strategies plus every knob the pass branches on. */
std::vector<std::pair<std::string, StrategyParams>>
annotationVariants()
{
    std::vector<std::pair<std::string, StrategyParams>> v;
    for (const Strategy s : allStrategies())
        v.emplace_back(strategyName(s), strategyParams(s));
    StrategyParams rtw = strategyParams(Strategy::PREF);
    rtw.exclusiveReadThenWrite = true;
    v.emplace_back("RTW", rtw);
    StrategyParams sync = strategyParams(Strategy::PWS);
    sync.dontCrossSync = true;
    v.emplace_back("PWS+dontCrossSync", sync);
    StrategyParams priv = strategyParams(Strategy::PREF);
    priv.privateLinesOnly = true;
    v.emplace_back("privateLinesOnly", priv);
    StrategyParams near = strategyParams(Strategy::EXCL);
    near.distanceCycles = 1;
    v.emplace_back("EXCL+distance1", near);
    StrategyParams one = strategyParams(Strategy::PWS);
    one.pwsFilterLines = 1;
    v.emplace_back("PWS+filter1", one);
    StrategyParams all = strategyParams(Strategy::PWS);
    all.exclusiveReadThenWrite = true;
    all.dontCrossSync = true;
    all.distanceCycles = 1;
    v.emplace_back("PWS+RTW+dontCrossSync+distance1", all);
    return v;
}

TEST(AnnotateDifferential, MatchesReferenceOnRandomTraces)
{
    // The paper's cache, and a 32-line one that forces conflicts.
    const CacheGeometry geoms[] = {CacheGeometry::paperDefault(),
                                   CacheGeometry(1024, 32, 1)};
    for (const unsigned procs : {1u, 2u, 4u, 16u, 32u}) {
        for (const std::uint64_t seed : {1u, 2u}) {
            const ParallelTrace plain = randomTrace(seed, procs, 4, 60);
            for (const ParallelTrace &pt :
                 {plain, withHugeInstrs(plain, seed)}) {
                for (const auto &[name, params] : annotationVariants()) {
                    for (const CacheGeometry &geom : geoms) {
                        SCOPED_TRACE(name + " procs=" +
                                     std::to_string(procs) + " seed=" +
                                     std::to_string(seed) + " lines=" +
                                     std::to_string(geom.numFrames()));
                        expectSameAnnotation(
                            annotateTrace(pt, params, geom),
                            reference::annotate(pt, params, geom));
                    }
                }
            }
        }
    }
}

TEST(AnnotateDifferential, PoolWorkerMatchesCallingThread)
{
    // On a ThreadPool worker parallelFor runs inline: same bytes.
    const ParallelTrace pt = randomTrace(5, 16, 4, 60);
    ThreadPool pool(2);
    for (const auto &[name, params] : annotationVariants()) {
        SCOPED_TRACE(name);
        const CacheGeometry geom = CacheGeometry::paperDefault();
        AnnotatedTrace on_worker;
        pool.submit([&, p = params] {
            on_worker = annotateTrace(pt, p, geom);
        });
        pool.waitAll();
        expectSameAnnotation(on_worker, annotateTrace(pt, params, geom));
    }
}

class RandomProgramSuite : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomProgramSuite, SimulationInvariants)
{
    const std::uint64_t seed = GetParam();
    const unsigned procs = 2 + seed % 5;
    const ParallelTrace pt = randomTrace(seed, procs, 6, 120);

    for (Cycle transfer : {4u, 32u}) {
        SimConfig cfg;
        cfg.timing.dataTransfer = transfer;
        cfg.warmupEpisodes = 0;
        Simulator sim(pt, cfg);
        const SimStats s = sim.run();

        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " T=" + std::to_string(transfer));

        // 1. Everybody finished; execution time is the last finisher.
        Cycle max_finish = 0;
        for (const auto &p : s.procs)
            max_finish = std::max(max_finish, p.finishedAt);
        EXPECT_EQ(s.cycles, max_finish);

        // 2. Per-processor cycle accounting: every cycle in one bucket.
        for (const auto &p : s.procs) {
            const Cycle sum = p.busy + p.stallDemand + p.stallUpgrade +
                              p.stallPrefetchQueue + p.spinLock +
                              p.waitBarrier;
            EXPECT_LE(sum, p.finishedAt);
            EXPECT_LE(p.finishedAt - sum, 2u);
        }

        // 3. Miss counts are bounded by references.
        const MissBreakdown m = s.totalMisses();
        EXPECT_LE(m.adjustedCpu(), s.totalDemandRefs());
        EXPECT_LE(m.falseSharing, m.invalidation());

        // 4. Bus conservation: each data fetch is a classified CPU miss
        //    or an issued prefetch; upgrades match processor counts.
        const auto fetches =
            s.bus.opCount[unsigned(BusOpKind::ReadShared)] +
            s.bus.opCount[unsigned(BusOpKind::ReadExclusive)];
        EXPECT_EQ(fetches, m.adjustedCpu() + s.totalPrefetchMisses());
        EXPECT_EQ(s.bus.opCount[unsigned(BusOpKind::Upgrade)],
                  s.totalUpgrades());

        // 5. Data-bus occupancy is consistent with the op mix
        //    (upgrades ride the conflict-free address bus; update
        //    broadcasts carry a word and keep their small occupancy).
        const Cycle expected_busy =
            fetches * transfer +
            s.bus.opCount[unsigned(BusOpKind::WriteBack)] * transfer +
            s.bus.opCount[unsigned(BusOpKind::WriteUpdate)] *
                cfg.timing.upgradeOccupancy;
        EXPECT_EQ(s.bus.busyCycles, expected_busy);

        // 6. Coherence invariant holds for every shared-pool line.
        for (unsigned l = 0; l < 64; ++l)
            EXPECT_TRUE(sim.memory().checkLineInvariant(0x100000 + l * 32));

        // 7. Demand refs observed equal the trace's records.
        EXPECT_EQ(s.totalDemandRefs(), pt.totalDemandRefs());
    }
}

TEST_P(RandomProgramSuite, DeterministicReplay)
{
    const ParallelTrace pt = randomTrace(GetParam(), 3, 4, 80);
    SimConfig cfg;
    cfg.warmupEpisodes = 0;
    const SimStats a = simulate(pt, cfg);
    const SimStats b = simulate(pt, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.bus.busyCycles, b.bus.busyCycles);
    EXPECT_EQ(a.totalMisses().cpu(), b.totalMisses().cpu());
}

TEST_P(RandomProgramSuite, AnnotationPreservesDemandStream)
{
    const ParallelTrace pt = randomTrace(GetParam(), 3, 4, 80);
    for (Strategy s : {Strategy::PREF, Strategy::EXCL, Strategy::PWS}) {
        const AnnotatedTrace ann =
            annotateTrace(pt, s, CacheGeometry::paperDefault());
        ASSERT_EQ(ann.trace.numProcs(), pt.numProcs());
        for (std::size_t p = 0; p < pt.numProcs(); ++p) {
            // Instr batches may be split around inserted prefetches;
            // compare the normalised (re-coalesced) streams. Random
            // traces contain prefetch records of their own, which the
            // normalisation drops from both sides alike.
            const auto kept = normalized(ann.trace.procs[p]);
            const auto original = normalized(pt.procs[p]);
            ASSERT_EQ(kept.size(), original.size());
            for (std::size_t i = 0; i < kept.size(); ++i)
                ASSERT_EQ(kept[i], original[i]);
        }
    }
}

TEST_P(RandomProgramSuite, AnnotatedTraceSimulates)
{
    const ParallelTrace pt = randomTrace(GetParam(), 3, 4, 80);
    const AnnotatedTrace ann =
        annotateTrace(pt, Strategy::PWS, CacheGeometry::paperDefault());
    SimConfig cfg;
    cfg.warmupEpisodes = 0;
    const SimStats s = simulate(ann.trace, cfg);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.totalDemandRefs(), pt.totalDemandRefs());
}

TEST_P(RandomProgramSuite, WideMachineEnginesAgree)
{
    // 17 and 32 processors: a holder mask using bit 31, and requesters
    // masking their own bit out of a mask of every other cache. Both
    // engines share MemorySystem, so besides agreeing byte for byte
    // each must leave every shared-pool line's invariants (holder
    // coverage included) intact, under each snoop-path organisation.
    const std::uint64_t seed = GetParam();
    const unsigned procs = seed % 2 ? 17 : 32;
    const ParallelTrace pt = randomTrace(seed, procs, 4, 80);

    SimConfig base;
    base.warmupEpisodes = 0;
    SimConfig victim = base;
    victim.victimEntries = 4;
    SimConfig pdb = base;
    pdb.prefetchDataBufferEntries = 16;
    SimConfig update = base;
    update.protocol = CoherenceProtocol::WriteUpdate;
    const std::pair<const char *, SimConfig> configs[] = {
        {"base", base}, {"victim4", victim}, {"pdb16", pdb},
        {"write-update", update}};

    for (const auto &[name, cfg] : configs) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " procs=" +
                     std::to_string(procs) + " config=" + name);
        std::string stats[2];
        for (const SimEngine engine :
             {SimEngine::CycleLoop, SimEngine::LocalClock}) {
            SimConfig c = cfg;
            c.engine = engine;
            Simulator sim(pt, c);
            stats[engine == SimEngine::LocalClock] = fingerprint(sim.run());
            for (unsigned l = 0; l < 64; ++l) {
                std::string why;
                EXPECT_TRUE(sim.memory().checkLineInvariantDetail(
                    0x100000 + l * 32, &why))
                    << why;
            }
        }
        EXPECT_EQ(stats[0], stats[1]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramSuite,
                         testing::Range<std::uint64_t>(1, 13));

/** Reference model: direct-mapped tag store via std::map. */
TEST_P(RandomProgramSuite, FilterCacheMatchesReferenceModel)
{
    const CacheGeometry g(4096, 32); // Small: plenty of conflicts.
    FilterCache f(g);
    std::map<std::uint32_t, Addr> ref;
    Rng rng(GetParam() * 77);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(64 * 1024);
        const auto set = g.setIndex(a);
        const Addr tag = g.lineBase(a);
        const auto it = ref.find(set);
        const bool ref_miss = it == ref.end() || it->second != tag;
        ref[set] = tag;
        ASSERT_EQ(f.access(a), ref_miss) << "i=" << i;
    }
}

/** Reference model: true-LRU list. */
TEST_P(RandomProgramSuite, AssocFilterMatchesReferenceLru)
{
    const CacheGeometry g = CacheGeometry::paperDefault();
    const unsigned kLines = 8;
    AssocFilter f(g, kLines);
    std::list<Addr> lru;
    Rng rng(GetParam() * 131);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(16 * 32 * 4); // 64-line pool.
        const Addr tag = g.lineBase(a);
        const auto it = std::find(lru.begin(), lru.end(), tag);
        const bool ref_miss = it == lru.end();
        if (!ref_miss)
            lru.erase(it);
        lru.push_front(tag);
        if (lru.size() > kLines)
            lru.pop_back();
        ASSERT_EQ(f.access(a), ref_miss) << "i=" << i;
    }
}

TEST(PropertyEdge, SingleProcessorProgram)
{
    // Degenerate but legal: one processor, locks and barriers included.
    ParallelTrace pt = randomTrace(3, 1, 4, 60);
    SimConfig cfg;
    cfg.warmupEpisodes = 0;
    const SimStats s = simulate(pt, cfg);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.procs[0].spinLock, 0u);
    EXPECT_EQ(s.procs[0].waitBarrier, 0u);
}

TEST(PropertyEdge, PrefetchStormRespectsBufferDepth)
{
    // 64 back-to-back prefetches: the 16-deep buffer must throttle but
    // never lose or crash; all lines eventually arrive.
    Trace t;
    for (unsigned i = 0; i < 64; ++i)
        t.append(TraceRecord::prefetch(0x1000 + Addr{i} * 32));
    t.appendInstrs(4000);
    for (unsigned i = 0; i < 64; ++i)
        t.append(TraceRecord::read(0x1000 + Addr{i} * 32));
    ParallelTrace pt;
    pt.name = "storm";
    pt.procs.push_back(std::move(t));

    SimConfig cfg;
    cfg.warmupEpisodes = 0;
    const SimStats s = simulate(pt, cfg);
    EXPECT_GT(s.procs[0].stallPrefetchQueue, 0u);
    EXPECT_EQ(s.totalMisses().cpu(), 0u); // All reads hit.
    EXPECT_EQ(s.totalPrefetchMisses(), 64u);
}

TEST(PropertyEdge, WriteStormPingPong)
{
    // Two processors alternately write one line: a worst-case
    // invalidation ping-pong must converge and classify as misses or
    // upgrades, never deadlock.
    auto mk = []() {
        Trace t;
        for (int i = 0; i < 50; ++i) {
            t.append(TraceRecord::write(0x2000));
            t.appendInstrs(3);
        }
        return t;
    };
    ParallelTrace pt;
    pt.name = "pingpong";
    pt.procs.push_back(mk());
    pt.procs.push_back(mk());

    SimConfig cfg;
    cfg.warmupEpisodes = 0;
    const SimStats s = simulate(pt, cfg);
    const MissBreakdown m = s.totalMisses();
    EXPECT_GT(m.invalidation() + s.totalUpgrades(), 20u);
    EXPECT_EQ(m.falseSharing, 0u); // Same word: all true sharing.
}

} // namespace
} // namespace prefsim
