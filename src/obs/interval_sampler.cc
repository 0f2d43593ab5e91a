#include "obs/interval_sampler.hh"


#include "common/json.hh"
#include "common/log.hh"

namespace prefsim
{
namespace obs
{

IntervalSampler::IntervalSampler(Cycle interval, unsigned procs,
                                 std::string label)
    : interval_(interval), next_(interval)
{
    prefsim_assert(interval > 0, "sample interval must be at least 1");
    series_.label = std::move(label);
    series_.interval = interval;
    series_.procs = procs;
    series_.perProc.resize(procs);
    prev_.procs.resize(procs);
}

void
IntervalSampler::emitRow(const SampleFrame &f)
{
    prefsim_assert(f.cycle > prev_.cycle,
                   "time-series rows must move forward");
    prefsim_assert(f.procs.size() == series_.procs,
                   "sample frame processor count changed mid-run");
    const Cycle window = f.cycle - prev_.cycle;
    series_.cycle.push_back(f.cycle);
    series_.window.push_back(window);
    const Cycle busy = f.busBusy - prev_.busBusy;
    series_.busBusy.push_back(busy);
    series_.busUtil.push_back(static_cast<double>(busy) /
                              static_cast<double>(window));
    series_.busQueueDepth.push_back(f.busQueueDepth);
    series_.busActive.push_back(f.busActive);
    series_.mshrs.push_back(f.mshrs);
    series_.missNonSharing.push_back(f.missNonSharing -
                                     prev_.missNonSharing);
    series_.missInvalidation.push_back(f.missInvalidation -
                                       prev_.missInvalidation);
    series_.missFalseSharing.push_back(f.missFalseSharing -
                                       prev_.missFalseSharing);
    series_.pfIssued.push_back(f.pfIssued - prev_.pfIssued);
    series_.pfDropped.push_back(f.pfDropped - prev_.pfDropped);
    series_.pfUseful.push_back(f.pfUseful - prev_.pfUseful);
    series_.pfLate.push_back(f.pfLate - prev_.pfLate);
    series_.pfUseless.push_back(f.pfUseless - prev_.pfUseless);
    series_.pfCancelled.push_back(f.pfCancelled - prev_.pfCancelled);
    for (std::size_t p = 0; p < f.procs.size(); ++p) {
        ProcSeries &out = series_.perProc[p];
        const SampleFrame::Proc &cur = f.procs[p];
        const SampleFrame::Proc &old = prev_.procs[p];
        out.busy.push_back(cur.busy - old.busy);
        out.stallDemand.push_back(cur.stallDemand - old.stallDemand);
        out.stallUpgrade.push_back(cur.stallUpgrade - old.stallUpgrade);
        out.stallPrefetchQueue.push_back(cur.stallPrefetchQueue -
                                         old.stallPrefetchQueue);
        out.spinLock.push_back(cur.spinLock - old.spinLock);
        out.waitBarrier.push_back(cur.waitBarrier - old.waitBarrier);
    }
    prev_ = f;
}

void
IntervalSampler::sample(const SampleFrame &f)
{
    prefsim_assert(f.cycle == next_,
                   "sample taken off the boundary grid (got cycle ",
                   f.cycle, ", expected ", next_, ")");
    // A boundary can coincide with a warmup rebase (prev_.cycle ==
    // f.cycle): the window is zero-width, so there is no row to emit —
    // but the boundary still advances.
    if (f.cycle > prev_.cycle)
        emitRow(f);
    next_ += interval_;
}

void
IntervalSampler::rebase(const SampleFrame &f, Cycle warmup_end)
{
    prev_ = f;
    prev_.cycle = warmup_end;
    series_.warmupEnd = warmup_end;
}

void
IntervalSampler::finish(const SampleFrame &f)
{
    if (f.cycle > prev_.cycle)
        emitRow(f);
}

std::uint64_t
TimeSeriesStore::totalSamples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const TimeSeries &s : runs_)
        n += s.samples();
    return n;
}

namespace
{

void
writeColumn(JsonWriter &j, const char *name,
            const std::vector<std::uint64_t> &col)
{
    j.key(name).beginArray();
    for (const std::uint64_t v : col)
        j.value(v);
    j.endArray();
}

void
writeProcColumn(JsonWriter &j, const char *name,
                const std::vector<ProcSeries> &procs,
                const std::vector<Cycle> ProcSeries::*member)
{
    j.key(name).beginArray();
    for (const ProcSeries &p : procs) {
        j.beginArray();
        for (const Cycle v : p.*member)
            j.value(v);
        j.endArray();
    }
    j.endArray();
}

} // namespace

void
writeRunJson(JsonWriter &j, const TimeSeries &s)
{
    if (!beginRunJson(j, s))
        return;
    j.key("interval").value(s.interval);
    j.key("procs").value(std::uint64_t{s.procs});
    j.key("warmup_end").value(s.warmupEnd);
    j.key("samples").value(std::uint64_t{s.samples()});
    j.key("columns").beginObject();
    writeColumn(j, "cycle", s.cycle);
    writeColumn(j, "window", s.window);
    writeColumn(j, "bus_busy", s.busBusy);
    j.key("bus_util").beginArray();
    for (const double v : s.busUtil)
        j.value(v);
    j.endArray();
    writeColumn(j, "bus_queue_depth", s.busQueueDepth);
    writeColumn(j, "bus_active", s.busActive);
    writeColumn(j, "mshrs", s.mshrs);
    writeColumn(j, "miss_nonsharing", s.missNonSharing);
    writeColumn(j, "miss_invalidation", s.missInvalidation);
    writeColumn(j, "miss_false_sharing", s.missFalseSharing);
    writeColumn(j, "pf_issued", s.pfIssued);
    writeColumn(j, "pf_dropped", s.pfDropped);
    writeColumn(j, "pf_useful", s.pfUseful);
    writeColumn(j, "pf_late", s.pfLate);
    writeColumn(j, "pf_useless", s.pfUseless);
    writeColumn(j, "pf_cancelled", s.pfCancelled);
    j.endObject();
    j.key("proc_columns").beginObject();
    writeProcColumn(j, "busy", s.perProc, &ProcSeries::busy);
    writeProcColumn(j, "stall_demand", s.perProc,
                    &ProcSeries::stallDemand);
    writeProcColumn(j, "stall_upgrade", s.perProc,
                    &ProcSeries::stallUpgrade);
    writeProcColumn(j, "stall_prefetch_queue", s.perProc,
                    &ProcSeries::stallPrefetchQueue);
    writeProcColumn(j, "spin_lock", s.perProc, &ProcSeries::spinLock);
    writeProcColumn(j, "wait_barrier", s.perProc,
                    &ProcSeries::waitBarrier);
    j.endObject();
    j.endObject();
}

} // namespace obs
} // namespace prefsim
