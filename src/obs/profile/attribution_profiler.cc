#include "obs/profile/attribution_profiler.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{
namespace obs
{

ProfileTotals
ProfileTotals::of(const ProfileRun &run)
{
    ProfileTotals t;
    for (const auto &[addr, l] : run.lines) {
        (void)addr;
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
        for (const auto &[proc, pf] : l.prefetch) {
            (void)proc;
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
        run_.lines.clear();
        return;
      default:
        return;
    }
}

ProfileRun
AttributionProfiler::take(Cycle warmup_end)
{
    run_.warmupEnd = warmup_end;
    return std::move(run_);
}

void
ProfileStore::commit(ProfileRun run)
{
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(std::move(run));
}

bool
ProfileStore::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return runs_.empty();
}

std::size_t
ProfileStore::numRuns() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return runs_.size();
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

std::vector<ProfileRun>
ProfileStore::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return runs_;
}

void
ProfileStore::writeRunJson(JsonWriter &j, const ProfileRun &run)
{
    j.beginObject();
    j.key("label").value(run.label);
    if (run.skipped) {
        // A cached sweep result: simulation (and therefore profiling)
        // was skipped. The explicit marker keeps "no data" and "run
        // never happened" distinguishable downstream.
        j.key("skipped").value("cache-hit");
        j.endObject();
        return;
    }
    j.key("procs").value(std::uint64_t{run.procs});
    j.key("warmup_end").value(run.warmupEnd);
    j.key("lines").beginArray();
    for (const auto &[addr, l] : run.lines) {
        j.beginObject();
        j.key("addr").value(addr);
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
        for (const auto &[proc, pf] : l.prefetch) {
            j.beginObject();
            j.key("proc").value(std::uint64_t{proc});
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

void
ProfileStore::writeJson(std::ostream &os) const
{
    // Sort a view by label: concurrent sweeps commit in completion
    // order, and the document must be deterministic (check.sh diffs
    // engine outputs byte-for-byte).
    std::vector<const ProfileRun *> ordered;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ordered.reserve(runs_.size());
        for (const ProfileRun &r : runs_)
            ordered.push_back(&r);
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const ProfileRun *a, const ProfileRun *b) {
                         return a->label < b->label;
                     });
    JsonWriter j(os);
    j.beginObject();
    j.key("schema").value("prefsim-profile-v1");
    j.key("runs").beginArray();
    for (const ProfileRun *r : ordered)
        writeRunJson(j, *r);
    j.endArray();
    j.endObject();
    os << "\n";
}

} // namespace obs
} // namespace prefsim
