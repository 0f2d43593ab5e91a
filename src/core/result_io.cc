#include "core/result_io.hh"

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <ostream>
#include <sstream>

#include "stats/json.hh"

namespace prefsim
{

namespace
{

/** Shortest round-trip-exact formatting of a tunable double. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
appendTunables(std::ostream &os, const WorkloadTunables &t)
{
    const auto &to = t.topopt;
    os << "topopt=" << to.numCells << "," << to.cellBytes << ","
       << fmtDouble(to.remoteMoveProb) << "," << to.neighbourhoodCells
       << "," << to.neighbourhoodSpacing << ","
       << to.neighbourhoodSpacingRestructured << "," << to.movesPerStep
       << "," << to.numLocks << "," << to.scratchRefs << ","
       << to.scratchOffset << "," << to.conflictOffset << ","
       << fmtDouble(to.conflictProb) << ","
       << fmtDouble(to.conflictProbRestructured) << ","
       << fmtDouble(to.computeMean) << ";";
    const auto &pv = t.pverify;
    os << "pverify=" << pv.numGates << "," << pv.gateBytes << ","
       << pv.batchGates << "," << pv.resultBytes << ","
       << pv.resultBytesRestructured << "," << pv.faninReads << ","
       << fmtDouble(pv.faninLocalProb) << "," << pv.faninWindow << ","
       << fmtDouble(pv.computeMean) << "," << pv.stackRefs << ","
       << pv.queueLock << "," << pv.popEveryBatches << ";";
    const auto &lr = t.locusroute;
    os << "locusroute=" << lr.gridWidth << "," << lr.gridHeight << ","
       << lr.wireCells << "," << lr.wireWrites << ","
       << fmtDouble(lr.crossProb) << "," << lr.wiresPerStep << ","
       << lr.walkStride << "," << lr.privateRefs << "," << lr.coldRefs
       << "," << fmtDouble(lr.computeMean) << ";";
    const auto &mp = t.mp3d;
    os << "mp3d=" << mp.particlesPerProc << "," << mp.particleBytes
       << "," << mp.particleWriteEvery << "," << mp.numCells << ","
       << mp.cellBytes << "," << fmtDouble(mp.remoteCellProb) << ","
       << mp.localClusterCells << "," << fmtDouble(mp.cellWriteProb)
       << "," << fmtDouble(mp.computeMean) << "," << mp.scratchRefs
       << "," << fmtDouble(mp.imbalance) << ";";
    const auto &wa = t.water;
    os << "water=" << wa.molsPerProc << "," << wa.molBytes << ","
       << wa.partnersPerMol << "," << fmtDouble(wa.computeMean) << ","
       << fmtDouble(wa.partnerWriteProb) << "," << fmtDouble(wa.coldProb)
       << "," << wa.numLocks << "," << wa.accumOffset << ","
       << wa.coldOffset << ";";
}

} // namespace

std::string
traceStageKey(const ExperimentSpec &spec)
{
    std::ostringstream os;
    const WorkloadParams &p = spec.params;
    os << "prefsim-v1;workload=" << workloadName(spec.workload)
       << ";restructured=" << spec.restructured
       << ";procs=" << p.numProcs << ";refs=" << p.refsPerProc
       << ";seed=" << p.seed << ";dataScale=" << fmtDouble(p.dataScale)
       << ";";
    appendTunables(os, p.tunables);
    return os.str();
}

std::string
annotateStageKey(const ExperimentSpec &spec)
{
    std::ostringstream os;
    os << traceStageKey(spec);
    const CacheGeometry &g = spec.geometry;
    os << "geom=" << g.sizeBytes() << "/" << g.lineBytes() << "/"
       << g.ways() << ";";
    const StrategyParams sp = spec.annotationParams();
    os << "annotate=" << sp.enabled << "," << sp.distanceCycles << ","
       << sp.exclusiveWrites << "," << sp.exclusiveReadThenWrite << ","
       << sp.rtwWindowCycles << "," << sp.prefetchWriteShared << ","
       << sp.pwsFilterLines << "," << sp.dontCrossSync << ","
       << sp.privateLinesOnly << ";";
    return os.str();
}

std::string
experimentCacheKey(const ExperimentSpec &spec)
{
    std::ostringstream os;
    os << annotateStageKey(spec);
    const SimConfig cfg = spec.simConfig();
    os << "timing=" << cfg.timing.totalLatency << ","
       << cfg.timing.dataTransfer << "," << cfg.timing.upgradeOccupancy
       << "," << cfg.timing.dataChannels
       << ";bufDepth=" << cfg.prefetchBufferDepth
       << ";victim=" << cfg.victimEntries
       << ";pfDataBuf=" << cfg.prefetchDataBufferEntries
       << ";protocol=" << static_cast<int>(cfg.protocol)
       << ";warmup=" << cfg.warmupEpisodes << ";";
    return os.str();
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
cacheFileName(const std::string &key)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 ".json", fnv1a64(key));
    return buf;
}

namespace
{

constexpr const char *kFormatTag = "prefsim-sweep-result-v1";

void
writeMisses(JsonWriter &j, const MissBreakdown &m)
{
    j.beginObject();
    j.key("nonSharingNotPrefetched").value(m.nonSharingNotPrefetched);
    j.key("nonSharingPrefetched").value(m.nonSharingPrefetched);
    j.key("invalNotPrefetched").value(m.invalNotPrefetched);
    j.key("invalPrefetched").value(m.invalPrefetched);
    j.key("prefetchInProgress").value(m.prefetchInProgress);
    j.key("falseSharing").value(m.falseSharing);
    j.endObject();
}

MissBreakdown
readMisses(const JsonField &m)
{
    MissBreakdown out;
    out.nonSharingNotPrefetched = m["nonSharingNotPrefetched"].u64();
    out.nonSharingPrefetched = m["nonSharingPrefetched"].u64();
    out.invalNotPrefetched = m["invalNotPrefetched"].u64();
    out.invalPrefetched = m["invalPrefetched"].u64();
    out.prefetchInProgress = m["prefetchInProgress"].u64();
    out.falseSharing = m["falseSharing"].u64();
    return out;
}

/** Read the "sim" object of a result document. */
SimStats
readSimStats(const JsonField &sim)
{
    SimStats s;
    s.cycles = sim["cycles"].u64();

    const JsonField bus = sim["bus"];
    s.bus.busyCycles = bus["busyCycles"].u64();
    s.bus.queueWaitDemand = bus["queueWaitDemand"].u64();
    s.bus.queueWaitPrefetch = bus["queueWaitPrefetch"].u64();
    s.bus.grantsDemand = bus["grantsDemand"].u64();
    s.bus.grantsPrefetch = bus["grantsPrefetch"].u64();
    const JsonField ops = bus["ops"];
    const std::vector<JsonField> op_counts = ops.items();
    if (op_counts.size() != std::size(s.bus.opCount))
        ops.fail("expected " + std::to_string(std::size(s.bus.opCount)) +
                 " entries");
    for (std::size_t i = 0; i < op_counts.size(); ++i)
        s.bus.opCount[i] = op_counts[i].u64();

    for (const JsonField &pv : sim["procs"].items()) {
        ProcStats p;
        p.busy = pv["busy"].u64();
        p.stallDemand = pv["stallDemand"].u64();
        p.stallUpgrade = pv["stallUpgrade"].u64();
        p.stallPrefetchQueue = pv["stallPrefetchQueue"].u64();
        p.spinLock = pv["spinLock"].u64();
        p.waitBarrier = pv["waitBarrier"].u64();
        p.demandRefs = pv["demandRefs"].u64();
        p.reads = pv["reads"].u64();
        p.writes = pv["writes"].u64();
        p.prefetchesExecuted = pv["prefetchesExecuted"].u64();
        p.prefetchMisses = pv["prefetchMisses"].u64();
        p.prefetchesDroppedResident = pv["prefetchesDroppedResident"].u64();
        p.prefetchesDroppedDuplicate =
            pv["prefetchesDroppedDuplicate"].u64();
        p.upgradesIssued = pv["upgradesIssued"].u64();
        p.victimHits = pv["victimHits"].u64();
        p.prefetchBufferHits = pv["prefetchBufferHits"].u64();
        p.bufferProtectionEvents = pv["bufferProtectionEvents"].u64();
        p.finishedAt = pv["finishedAt"].u64();
        p.misses = readMisses(pv["misses"]);
        s.procs.push_back(p);
    }
    return s;
}

} // namespace

void
writeResultJson(std::ostream &os, const ExperimentResult &result,
                const std::string &key)
{
    JsonWriter j(os);
    j.beginObject();
    j.key("format").value(kFormatTag);
    j.key("key").value(key);
    j.key("label").value(result.spec.label());

    const AnnotateStats &a = result.annotate;
    j.key("annotate").beginObject();
    j.key("oracleCandidates").value(a.oracleCandidates);
    j.key("pwsCandidates").value(a.pwsCandidates);
    j.key("inserted").value(a.inserted);
    j.key("insertedExclusive").value(a.insertedExclusive);
    j.key("rtwExclusive").value(a.rtwExclusive);
    j.key("droppedShared").value(a.droppedShared);
    j.key("demandRefs").value(a.demandRefs);
    j.endObject();

    const SimStats &s = result.sim;
    j.key("sim").beginObject();
    j.key("cycles").value(s.cycles);
    j.key("bus").beginObject();
    j.key("busyCycles").value(s.bus.busyCycles);
    j.key("ops").beginArray();
    for (const std::uint64_t op : s.bus.opCount)
        j.value(op);
    j.endArray();
    j.key("queueWaitDemand").value(s.bus.queueWaitDemand);
    j.key("queueWaitPrefetch").value(s.bus.queueWaitPrefetch);
    j.key("grantsDemand").value(s.bus.grantsDemand);
    j.key("grantsPrefetch").value(s.bus.grantsPrefetch);
    j.endObject();

    j.key("procs").beginArray();
    for (const ProcStats &p : s.procs) {
        j.beginObject();
        j.key("busy").value(p.busy);
        j.key("stallDemand").value(p.stallDemand);
        j.key("stallUpgrade").value(p.stallUpgrade);
        j.key("stallPrefetchQueue").value(p.stallPrefetchQueue);
        j.key("spinLock").value(p.spinLock);
        j.key("waitBarrier").value(p.waitBarrier);
        j.key("demandRefs").value(p.demandRefs);
        j.key("reads").value(p.reads);
        j.key("writes").value(p.writes);
        j.key("prefetchesExecuted").value(p.prefetchesExecuted);
        j.key("prefetchMisses").value(p.prefetchMisses);
        j.key("prefetchesDroppedResident")
            .value(p.prefetchesDroppedResident);
        j.key("prefetchesDroppedDuplicate")
            .value(p.prefetchesDroppedDuplicate);
        j.key("upgradesIssued").value(p.upgradesIssued);
        j.key("victimHits").value(p.victimHits);
        j.key("prefetchBufferHits").value(p.prefetchBufferHits);
        j.key("bufferProtectionEvents").value(p.bufferProtectionEvents);
        j.key("finishedAt").value(p.finishedAt);
        j.key("misses");
        writeMisses(j, p.misses);
        j.endObject();
    }
    j.endArray();
    j.endObject(); // sim
    j.endObject();
    os << "\n";
}

std::optional<ExperimentResult>
readResultJson(const std::string &text, const ExperimentSpec &spec,
               const std::string &key)
{
    const std::optional<JsonValue> parsed = parseJson(text);
    if (!parsed)
        return std::nullopt;
    // Any shape failure rejects the entry; the sweep recomputes it.
    try {
        const JsonField doc(*parsed);
        if (doc["format"].str() != kFormatTag || doc["key"].str() != key)
            return std::nullopt;
        ExperimentResult result;
        result.spec = spec;
        const JsonField ann = doc["annotate"];
        AnnotateStats &a = result.annotate;
        a.oracleCandidates = ann["oracleCandidates"].u64();
        a.pwsCandidates = ann["pwsCandidates"].u64();
        a.inserted = ann["inserted"].u64();
        a.insertedExclusive = ann["insertedExclusive"].u64();
        a.rtwExclusive = ann["rtwExclusive"].u64();
        a.droppedShared = ann["droppedShared"].u64();
        a.demandRefs = ann["demandRefs"].u64();
        result.sim = readSimStats(doc["sim"]);
        return result;
    } catch (const JsonError &) {
        return std::nullopt;
    }
}

} // namespace prefsim
