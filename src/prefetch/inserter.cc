#include "prefetch/inserter.hh"

#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/thread_pool.hh"
#include "prefetch/assoc_filter.hh"
#include "prefetch/cost_model.hh"
#include "prefetch/filter_cache.hh"
#include "trace/sharing_analysis.hh"

namespace prefsim
{

namespace
{

/** A prefetch scheduled for insertion into record @c recordIdx. */
struct PendingPrefetch
{
    /** Record the prefetch lands in (before it, or inside an Instr
     *  batch split at @c offset). */
    std::size_t recordIdx;
    Addr addr;
    /** Estimated cycles into the record (non-zero only for Instr, and
     *  below its count). */
    std::uint32_t offset;
    bool exclusive;
};

/**
 * For every record index, the estimated start cycle of the next demand
 * access to the same line if that access is a *write* (kNoCycle when
 * the next same-line access is a read or absent). Supports the
 * read-then-write exclusive-prefetch detector.
 */
std::vector<Cycle>
nextWriteToSameLine(const Trace &in, const CacheGeometry &geom)
{
    // Walk back from the estimated total, so each record's start cycle
    // is known without a vector of them.
    Cycle start = 0;
    for (const TraceRecord &r : in.records())
        start += recordCost(r);
    std::vector<Cycle> next(in.size(), kNoCycle);
    std::unordered_map<Addr, Cycle> upcoming; // line -> write start, or
                                              // kNoCycle if next is read
    for (std::size_t i = in.size(); i-- > 0;) {
        const TraceRecord &r = in[i];
        start -= recordCost(r);
        if (!isDemandRef(r.kind))
            continue;
        const Addr line = geom.lineBase(r.addr);
        const auto it = upcoming.find(line);
        next[i] = it == upcoming.end() ? kNoCycle : it->second;
        upcoming[line] = r.kind == RecordKind::Write ? start : kNoCycle;
    }
    return next;
}

/**
 * Select one processor's prefetches, in one forward pass.
 *
 * A candidate access at estimated cycle c gets its prefetch placed at
 * estimated cycle c - distance. If that lands inside a batched Instr
 * record the batch is split — the compiler the pass emulates schedules
 * prefetches between ordinary instructions, not just around memory
 * references. Candidates inside the first @c distance cycles are
 * hoisted to the top of the trace (or clamped below the nearest sync
 * record when dontCrossSync is set).
 *
 * Targets never decrease along the stream, so the record holding the
 * target is found by a cursor that only moves forward, and placements
 * come out in (record, offset) order; ties keep covered-access order,
 * so earlier needs prefetch first.
 */
std::vector<PendingPrefetch>
selectPrefetches(const Trace &in, const StrategyParams &params,
                 const CacheGeometry &geom, const SharingAnalysis *sharing,
                 AnnotateStats &stats)
{
    std::vector<Cycle> next_write;
    if (params.exclusiveReadThenWrite)
        next_write = nextWriteToSameLine(in, geom);

    FilterCache oracle(geom);
    AssocFilter pws_filter(geom, params.pwsFilterLines);

    // The cursor: record j, starting at estimated cycle j_start, is the
    // last record at or before the access whose start is at or before
    // the target.
    std::size_t j = 0;
    Cycle j_start = 0;
    // For the compiler-realism constraint: the most recent sync record.
    constexpr std::size_t kNoIndex = ~std::size_t{0};
    std::size_t last_sync = kNoIndex;

    std::vector<PendingPrefetch> pending;
    Cycle cycle = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const TraceRecord &r = in[i];
        const Cycle start = cycle;
        cycle += recordCost(r);
        if (isSync(r.kind))
            last_sync = i;
        if (!isDemandRef(r.kind))
            continue;
        ++stats.demandRefs;

        const bool oracle_miss = oracle.access(r.addr);
        bool pws_miss = false;
        if (params.prefetchWriteShared && sharing &&
            sharing->isWriteShared(r.addr)) {
            pws_miss = pws_filter.access(r.addr) && !oracle_miss;
        }
        if (oracle_miss)
            ++stats.oracleCandidates;
        if (pws_miss)
            ++stats.pwsCandidates;
        if (!oracle_miss && !pws_miss)
            continue;
        if (params.privateLinesOnly && sharing &&
            sharing->classOf(r.addr) != SharingClass::Private) {
            // Non-snooping prefetch buffers cannot legally hold data
            // another processor might write (§3.1).
            ++stats.droppedShared;
            continue;
        }

        const Cycle target = start >= params.distanceCycles
                                 ? start - params.distanceCycles
                                 : 0;
        while (j < i && j_start + recordCost(in[j]) <= target) {
            j_start += recordCost(in[j]);
            ++j;
        }

        std::size_t j_final = j;
        std::uint32_t offset = 0;
        if (params.dontCrossSync && last_sync != kNoIndex &&
            last_sync >= j) {
            // A sync record sits between the natural placement and the
            // access: clamp the prefetch to just after it (shorter
            // distance, possibly a prefetch-in-progress wait).
            j_final = last_sync + 1;
        } else if (in[j].kind == RecordKind::Instr) {
            // Split the batch; other records are indivisible, so the
            // prefetch goes just before them.
            offset = static_cast<std::uint32_t>(target - j_start);
        }

        bool exclusive =
            params.exclusiveWrites && r.kind == RecordKind::Write;
        if (!exclusive && params.exclusiveReadThenWrite &&
            r.kind == RecordKind::Read && next_write[i] != kNoCycle &&
            next_write[i] - start <= params.rtwWindowCycles) {
            // Read immediately followed by a write to the same line:
            // fetch ownership up front and save the upgrade (§4.3).
            exclusive = true;
            ++stats.rtwExclusive;
        }
        prefsim_assert(pending.empty() ||
                           std::tie(pending.back().recordIdx,
                                    pending.back().offset) <=
                               std::tie(j_final, offset),
                       "prefetch placements went backwards");
        // Keep the word address (not just the line base): the simulator
        // attributes false sharing per word, including invalidations
        // caused by exclusive prefetches.
        pending.push_back({j_final, r.addr, offset, exclusive});
        ++stats.inserted;
        if (exclusive)
            ++stats.insertedExclusive;
    }
    return pending;
}

/** Append @p in with @p pending inserted to @p out, whose capacity the
 *  caller has reserved (in.size() + 2 * pending.size() bounds it: each
 *  prefetch adds itself and at most one split-off Instr record). */
void
emitAnnotated(const Trace &in, const std::vector<PendingPrefetch> &pending,
              Trace &out)
{
    std::size_t next = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
        const TraceRecord &r = in[i];
        std::uint32_t emitted = 0; // Instr cycles of record i emitted.
        while (next < pending.size() && pending[next].recordIdx == i) {
            const PendingPrefetch &p = pending[next];
            if (p.offset > emitted) {
                prefsim_assert(r.kind == RecordKind::Instr,
                               "split offset in non-instr record");
                out.appendInstrs(p.offset - emitted);
                emitted = p.offset;
            }
            out.append(TraceRecord::prefetch(p.addr, p.exclusive));
            ++next;
        }
        if (r.kind == RecordKind::Instr) {
            prefsim_assert(emitted <= r.count, "instr split overflow");
            // appendInstrs would re-coalesce the tail with the head if
            // no prefetch separated them; emitting the remainder keeps
            // the total count intact either way.
            out.appendInstrs(r.count - emitted);
        } else {
            out.append(r);
        }
    }
    while (next < pending.size()) {
        out.append(TraceRecord::prefetch(pending[next].addr,
                                         pending[next].exclusive));
        ++next;
    }
}

void
addStats(AnnotateStats &into, const AnnotateStats &s)
{
    into.oracleCandidates += s.oracleCandidates;
    into.pwsCandidates += s.pwsCandidates;
    into.inserted += s.inserted;
    into.insertedExclusive += s.insertedExclusive;
    into.rtwExclusive += s.rtwExclusive;
    into.droppedShared += s.droppedShared;
    into.demandRefs += s.demandRefs;
}

} // namespace

AnnotatedTrace
annotateTrace(const ParallelTrace &input, const StrategyParams &params,
              const CacheGeometry &geom)
{
    if (params.enabled && params.distanceCycles == 0)
        prefsim_fatal("prefetch distance must be non-zero when enabled");

    AnnotatedTrace result;
    result.trace.name = input.name;
    result.trace.numLocks = input.numLocks;
    result.trace.numBarriers = input.numBarriers;

    // Processors are annotated concurrently. Each index writes only its
    // own slots, and this thread allocates every output buffer, so the
    // traces do not land in the helper threads' malloc arenas (memory a
    // thread frees into its own arena is not reused by the others).
    const std::size_t n = input.numProcs();
    std::vector<AnnotateStats> stats(n);
    std::vector<Trace> &out = result.trace.procs;
    out.resize(n);

    if (!params.enabled) {
        for (std::size_t p = 0; p < n; ++p)
            out[p].reserve(input.procs[p].size());
        parallelFor(n, [&](std::size_t p) {
            const std::vector<TraceRecord> &in = input.procs[p].records();
            out[p].records().assign(in.begin(), in.end());
            stats[p].demandRefs = input.procs[p].demandRefs();
        });
    } else {
        // PWS needs whole-workload knowledge of which lines are
        // write-shared; the non-snooping-buffer model needs the private
        // set.
        std::unique_ptr<SharingAnalysis> sharing;
        if (params.prefetchWriteShared || params.privateLinesOnly)
            sharing =
                std::make_unique<SharingAnalysis>(input, geom.lineBytes());

        std::vector<std::vector<PendingPrefetch>> pending(n);
        parallelFor(n, [&](std::size_t p) {
            pending[p] = selectPrefetches(input.procs[p], params, geom,
                                          sharing.get(), stats[p]);
        });
        for (std::size_t p = 0; p < n; ++p)
            out[p].reserve(input.procs[p].size() + 2 * pending[p].size());
        parallelFor(n, [&](std::size_t p) {
            emitAnnotated(input.procs[p], pending[p], out[p]);
        });
    }
    for (const AnnotateStats &s : stats)
        addStats(result.stats, s);
    return result;
}

AnnotatedTrace
annotateTrace(const ParallelTrace &input, Strategy strategy,
              const CacheGeometry &geom)
{
    return annotateTrace(input, strategyParams(strategy), geom);
}

} // namespace prefsim
