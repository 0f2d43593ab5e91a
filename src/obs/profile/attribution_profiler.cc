#include "obs/profile/attribution_profiler.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{
namespace obs
{

namespace
{

/** Put a line's prefetch records in serialisation order. */
void
sortByProc(std::vector<ProfilePrefetch> &records)
{
    std::sort(records.begin(), records.end(),
              [](const ProfilePrefetch &a, const ProfilePrefetch &b) {
                  return a.proc < b.proc;
              });
}

} // namespace

ProfilePrefetch &
ProfileLine::prefetchFor(unsigned proc)
{
    for (ProfilePrefetch &pf : prefetch) {
        if (pf.proc == proc)
            return pf;
    }
    return prefetch.emplace_back(ProfilePrefetch{.proc = proc});
}

const ProfilePrefetch *
ProfileLine::findPrefetch(unsigned proc) const
{
    for (const ProfilePrefetch &pf : prefetch) {
        if (pf.proc == proc)
            return &pf;
    }
    return nullptr;
}

const ProfileLine *
ProfileRun::findLine(Addr addr) const
{
    const auto it = std::lower_bound(
        lines.begin(), lines.end(), addr,
        [](const ProfileLine &l, Addr a) { return l.addr < a; });
    return it != lines.end() && it->addr == addr ? &*it : nullptr;
}

ProfileTotals
ProfileTotals::of(const ProfileRun &run)
{
    ProfileTotals t;
    for (const ProfileLine &l : run.lines) {
        t.misses += l.missNonSharing + l.missNonSharingPrefetched +
                    l.missInvalidation + l.missInvalidationPrefetched +
                    l.missPrefetchInflight;
        t.missInvalidation +=
            l.missInvalidation + l.missInvalidationPrefetched;
        t.missFalseSharing += l.missFalseSharing;
        t.invalidations += l.invalidations;
        t.downgrades += l.downgrades;
        t.busCycles += l.busCycles;
        t.busCyclesPrefetch += l.busCyclesPrefetch;
        for (const ProfilePrefetch &pf : l.prefetch) {
            t.pfIssued += pf.issued;
            t.pfUseful += pf.useful;
            t.pfLate += pf.late;
            t.pfKilled += pf.killed;
            t.pfDisplaced += pf.displaced;
        }
    }
    return t;
}

AttributionProfiler::AttributionProfiler(unsigned procs,
                                         std::string label)
{
    run_.label = std::move(label);
    run_.procs = procs;
}

void
AttributionProfiler::on(const Event &e)
{
    switch (e.kind) {
      case EventKind::Miss: {
        ProfileLine &l = line(e.line);
        if (e.invalidation)
            ++(e.prefetchLost ? l.missInvalidationPrefetched
                              : l.missInvalidation);
        else
            ++(e.prefetchLost ? l.missNonSharingPrefetched
                              : l.missNonSharing);
        if (e.falseSharing)
            ++l.missFalseSharing;
        return;
      }
      case EventKind::LateAttach:
        // A demand MSHR always carries demandWaiting from allocation,
        // so an attach is to an in-flight *prefetch*: the late outcome,
        // plus its own miss row.
        ++line(e.line).missPrefetchInflight;
        ++prefetch(e.line, e.proc).late;
        return;
      case EventKind::Invalidate: {
        ProfileLine &l = line(e.line);
        ++l.invalidations;
        if (e.falseSharing)
            ++l.invalidationsFalse;
        if (e.killedPrefetch)
            ++prefetch(e.line, e.proc).killed;
        return;
      }
      case EventKind::InflightKill:
        ++line(e.line).inflightKills;
        if (e.killedPrefetch)
            ++prefetch(e.line, e.proc).killed;
        return;
      case EventKind::ParkedKill:
        ++prefetch(e.line, e.proc).killed;
        return;
      case EventKind::Downgrade:
        ++line(e.line).downgrades;
        return;
      case EventKind::PrefetchIssue:
        ++prefetch(e.line, e.proc).issued;
        return;
      case EventKind::PrefetchUseful:
        ++prefetch(e.line, e.proc).useful;
        return;
      case EventKind::Fill:
        if (e.prefetch && e.demand)
            prefetch(e.line, e.proc).latenessCycles += e.cycle - e.aux;
        return;
      case EventKind::Evict:
        if (e.prefetch)
            ++prefetch(e.line, e.proc).displaced;
        return;
      case EventKind::ParkedDisplace:
        ++prefetch(e.line, e.proc).displaced;
        return;
      case EventKind::BusGrant: {
        // Address-class upgrades never reach the grant path, so the
        // per-line cycles sum exactly to BusStats::busyCycles.
        ProfileLine &l = line(e.line);
        l.busCycles += e.arg;
        if (!e.demand)
            l.busCyclesPrefetch += e.arg;
        ++l.busOps;
        return;
      }
      case EventKind::Warmup:
        // The profile covers the measured window only, so its totals
        // match the post-warmup aggregates (Table 3).
        lines_.clear();
        prefetches_.clear();
        return;
      default:
        return;
    }
}

ProfileRun
AttributionProfiler::take(Cycle warmup_end)
{
    // Each prefetch record joins its line; a line that only saw
    // prefetches is created here.
    const std::vector<PrefetchKey> &keys = prefetches_.keys();
    const std::vector<ProfilePrefetch> &records = prefetches_.records();
    for (std::size_t i = 0; i < keys.size(); ++i)
        line(keys[i].first).prefetch.push_back(records[i]);
    run_.lines = std::move(lines_.records());
    std::sort(run_.lines.begin(), run_.lines.end(),
              [](const ProfileLine &a, const ProfileLine &b) {
                  return a.addr < b.addr;
              });
    for (ProfileLine &l : run_.lines)
        sortByProc(l.prefetch);
    run_.warmupEnd = warmup_end;
    return std::move(run_);
}

std::uint64_t
ProfileStore::totalLines() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const ProfileRun &r : runs_)
        n += r.lines.size();
    return n;
}

void
writeRunJson(JsonWriter &j, const ProfileRun &run)
{
    // A skipped run is a cached sweep result: simulation (and therefore
    // profiling) never happened.
    if (!beginRunJson(j, run))
        return;
    j.key("procs").value(std::uint64_t{run.procs});
    j.key("warmup_end").value(run.warmupEnd);
    j.key("lines").beginArray();
    for (const ProfileLine &l : run.lines) {
        j.beginObject();
        j.key("addr").value(l.addr);
        j.key("miss_nonsharing").value(l.missNonSharing);
        j.key("miss_nonsharing_prefetched")
            .value(l.missNonSharingPrefetched);
        j.key("miss_invalidation").value(l.missInvalidation);
        j.key("miss_invalidation_prefetched")
            .value(l.missInvalidationPrefetched);
        j.key("miss_prefetch_inflight").value(l.missPrefetchInflight);
        j.key("miss_false_sharing").value(l.missFalseSharing);
        j.key("invalidations").value(l.invalidations);
        j.key("invalidations_false").value(l.invalidationsFalse);
        j.key("downgrades").value(l.downgrades);
        j.key("inflight_kills").value(l.inflightKills);
        j.key("bus_cycles").value(l.busCycles);
        j.key("bus_cycles_prefetch").value(l.busCyclesPrefetch);
        j.key("bus_ops").value(l.busOps);
        j.key("pf").beginArray();
        for (const ProfilePrefetch &pf : l.prefetch) {
            j.beginObject();
            j.key("proc").value(std::uint64_t{pf.proc});
            j.key("issued").value(pf.issued);
            j.key("useful").value(pf.useful);
            j.key("late").value(pf.late);
            j.key("lateness_cycles").value(pf.latenessCycles);
            j.key("killed").value(pf.killed);
            j.key("displaced").value(pf.displaced);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    const ProfileTotals t = ProfileTotals::of(run);
    j.key("totals").beginObject();
    j.key("misses").value(t.misses);
    j.key("miss_invalidation").value(t.missInvalidation);
    j.key("miss_false_sharing").value(t.missFalseSharing);
    j.key("invalidations").value(t.invalidations);
    j.key("downgrades").value(t.downgrades);
    j.key("bus_cycles").value(t.busCycles);
    j.key("bus_cycles_prefetch").value(t.busCyclesPrefetch);
    j.key("pf_issued").value(t.pfIssued);
    j.key("pf_useful").value(t.pfUseful);
    j.key("pf_late").value(t.pfLate);
    j.key("pf_killed").value(t.pfKilled);
    j.key("pf_displaced").value(t.pfDisplaced);
    j.endObject();
    j.endObject();
}

namespace
{

void
readRunBody(const JsonField &j, ProfileRun &run)
{
    run.procs = static_cast<unsigned>(
        j["procs"].u64(std::numeric_limits<unsigned>::max()));
    run.warmupEnd = j["warmup_end"].u64();
    for (const JsonField &jl : formatArray(j, "lines")) {
        const Addr addr = jl["addr"].u64();
        if (!run.lines.empty() && addr <= run.lines.back().addr)
            throw FormatError(jl.path() +
                              ": line addresses are not strictly "
                              "ascending");
        ProfileLine &l = run.lines.emplace_back();
        l.addr = addr;
        l.missNonSharing = jl["miss_nonsharing"].u64();
        l.missNonSharingPrefetched = jl["miss_nonsharing_prefetched"].u64();
        l.missInvalidation = jl["miss_invalidation"].u64();
        l.missInvalidationPrefetched =
            jl["miss_invalidation_prefetched"].u64();
        l.missPrefetchInflight = jl["miss_prefetch_inflight"].u64();
        l.missFalseSharing = jl["miss_false_sharing"].u64();
        l.invalidations = jl["invalidations"].u64();
        l.invalidationsFalse = jl["invalidations_false"].u64();
        l.downgrades = jl["downgrades"].u64();
        l.inflightKills = jl["inflight_kills"].u64();
        l.busCycles = jl["bus_cycles"].u64();
        l.busCyclesPrefetch = jl["bus_cycles_prefetch"].u64();
        l.busOps = jl["bus_ops"].u64();
        for (const JsonField &jp : formatArray(jl, "pf")) {
            const std::uint64_t proc = jp["proc"].u64();
            if (proc >= run.procs)
                throw FormatError(jp.path() + ": pf proc out of range");
            // A repeated processor adds up, as the totals block does.
            ProfilePrefetch &pf =
                l.prefetchFor(static_cast<unsigned>(proc));
            pf.issued += jp["issued"].u64();
            pf.useful += jp["useful"].u64();
            pf.late += jp["late"].u64();
            pf.latenessCycles += jp["lateness_cycles"].u64();
            pf.killed += jp["killed"].u64();
            pf.displaced += jp["displaced"].u64();
        }
        sortByProc(l.prefetch);
    }
    const ProfileTotals t = ProfileTotals::of(run);
    const JsonField totals = j["totals"];
    for (const auto &[key, sum] :
         {std::pair{"misses", t.misses},
          {"miss_invalidation", t.missInvalidation},
          {"miss_false_sharing", t.missFalseSharing},
          {"invalidations", t.invalidations},
          {"downgrades", t.downgrades},
          {"bus_cycles", t.busCycles},
          {"bus_cycles_prefetch", t.busCyclesPrefetch},
          {"pf_issued", t.pfIssued},
          {"pf_useful", t.pfUseful},
          {"pf_late", t.pfLate},
          {"pf_killed", t.pfKilled},
          {"pf_displaced", t.pfDisplaced}}) {
        if (totals[key].u64() != sum)
            throw FormatError(totals.path() + "." + key +
                              ": does not equal the sum of the rows");
    }
}

} // namespace

std::vector<ProfileRun>
readProfileJson(const JsonValue &doc)
{
    return readRunsJson<ProfileRun>(doc, readRunBody);
}

std::vector<ProfileRun>
loadProfileJson(const std::string &path)
{
    return loadRunsJson<ProfileRun>(path, readRunBody);
}

} // namespace obs
} // namespace prefsim
