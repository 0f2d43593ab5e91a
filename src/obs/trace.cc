#include "obs/trace.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"
#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{
namespace obs
{

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Bus:
        return "bus";
      case TraceCat::Coherence:
        return "coherence";
      case TraceCat::Prefetch:
        return "prefetch";
      case TraceCat::Sync:
        return "sync";
      case TraceCat::Exec:
        return "exec";
    }
    return "?";
}

TraceBuffer::TraceBuffer(std::uint32_t num_procs, std::size_t capacity,
                         std::uint32_t pid, std::string label)
    : num_procs_(num_procs), capacity_(capacity), pid_(pid),
      label_(std::move(label)), open_(num_procs)
{
    prefsim_assert(capacity_ > 0, "trace buffer needs capacity");
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
TraceBuffer::push(const TraceEvent &e)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(e);
        return;
    }
    // Saturated: overwrite the oldest (next_ is the logical head).
    ring_[next_] = e;
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
    ++dropped_;
}

namespace
{

/** Span names of Event::op (indexed by BusOpKind; static storage). */
constexpr const char *kBusOpNames[] = {"ReadShared", "ReadExclusive",
                                       "Upgrade", "WriteBack",
                                       "WriteUpdate"};

/** Span names of Stall (indexed by its value; static storage). */
constexpr const char *kStallNames[] = {"stall_miss", "stall_upgrade",
                                       "stall_inflight_prefetch",
                                       "stall_prefetch_buffer", "spin_lock"};

/** Distinguishes data-transfer async spans from the transaction
 *  lifetime spans they overlap (async pairs match on category + id;
 *  transaction ids never reach this bit). */
constexpr std::uint64_t kXferIdBit = 1ull << 63;

} // namespace

void
TraceBuffer::on(const Event &e)
{
    const Cycle t = e.cycle;
    // Stalls are recorded once, as a span, when the event ending them
    // arrives.
    const auto open = [&](const char *name, TraceCat cat) {
        open_[e.proc] = {name, cat, t};
    };
    const auto close = [&] {
        OpenStall &s = open_[e.proc];
        if (s.name != nullptr)
            span(e.proc, s.name, s.cat, s.begin, t);
        s.name = nullptr;
    };
    switch (e.kind) {
      case EventKind::BusComplete:
        asyncSpan(busTid(), kBusOpNames[e.op], TraceCat::Bus, e.busId, e.aux,
                  t, e.line, e.proc);
        return;
      case EventKind::BusGrant:
        // Data-bus occupancy. With a single channel grants are strictly
        // sequential, so a synchronous span nests; with parallel
        // channels transfers overlap and need async pairing.
        if (e.parallel)
            asyncSpan(busTid(), "transfer", TraceCat::Bus,
                      e.busId | kXferIdBit, t, t + e.arg, e.line, e.proc);
        else
            span(busTid(), "transfer", TraceCat::Bus, t, t + e.arg, e.line,
                 e.proc);
        return;
      case EventKind::Downgrade:
        instant(e.proc, "downgrade", TraceCat::Coherence, t, e.line, e.peer);
        return;
      case EventKind::Invalidate:
        instant(e.proc, "invalidate", TraceCat::Coherence, t, e.line,
                e.peer);
        return;
      case EventKind::InflightKill:
        instant(e.proc, "kill_inflight_fill", TraceCat::Coherence, t,
                e.line, e.peer);
        return;
      case EventKind::LateAttach:
        instant(e.proc, "late_demand_attach", TraceCat::Prefetch, t, e.line);
        return;
      case EventKind::PrefetchIssue:
        instant(e.proc, e.exclusive ? "prefetch_excl_issue" : "prefetch_issue",
                TraceCat::Prefetch, t, e.line);
        return;
      case EventKind::Fill:
        instant(e.proc,
                e.dead       ? "dead_fill"
                : e.prefetch ? "prefetch_fill"
                             : "fill",
                e.prefetch ? TraceCat::Prefetch : TraceCat::Coherence, t,
                e.line);
        return;
      case EventKind::StallBegin:
        open(kStallNames[static_cast<unsigned>(e.stall)],
             e.stall == Stall::Lock ? TraceCat::Sync : TraceCat::Exec);
        return;
      case EventKind::Wake:
      case EventKind::PrefetchStallEnd:
      case EventKind::BarrierRelease:
        close();
        return;
      case EventKind::LockAcquire:
        close(); // A spin, when the lock was held.
        instant(e.proc, "lock_acquire", TraceCat::Sync, t, kNoAddr, e.arg);
        return;
      case EventKind::LockRelease:
        instant(e.proc, "lock_release", TraceCat::Sync, t, kNoAddr, e.arg);
        return;
      case EventKind::BarrierArrive:
        instant(e.proc, "barrier_arrive", TraceCat::Sync, t, kNoAddr, e.arg);
        if (!e.last)
            open("wait_barrier", TraceCat::Sync);
        return;
      default:
        return;
    }
}

std::vector<TraceEvent>
TraceBuffer::orderedEvents() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    if (!wrapped_) {
        out = ring_;
        return out;
    }
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
}

std::size_t
TraceBuffer::size() const
{
    return ring_.size();
}

Tracer::Tracer(std::size_t events_per_session, std::size_t max_sessions)
    : events_per_session_(events_per_session), max_sessions_(max_sessions)
{}

std::unique_ptr<TraceBuffer>
Tracer::beginSession(std::uint32_t num_procs, std::string label)
{
    if (!enabled_)
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    if (next_pid_ >= max_sessions_)
        return nullptr;
    return std::make_unique<TraceBuffer>(num_procs, events_per_session_,
                                         next_pid_++, std::move(label));
}

void
Tracer::commit(std::unique_ptr<TraceBuffer> buffer)
{
    if (!buffer)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.push_back(std::move(buffer));
}

std::size_t
Tracer::numSessions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sessions_.size();
}

std::uint64_t
Tracer::totalEvents() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t n = 0;
    for (const auto &s : sessions_)
        n += s->size();
    return n;
}

namespace
{

/** One expanded Chrome event, ready for sorting and emission. */
struct OutEvent
{
    std::uint32_t pid;
    std::uint32_t tid;
    Cycle ts;
    /** Sort rank at equal (pid, ts): ends before instants before
     *  begins, so a span ending where the next begins nests cleanly. */
    int rank;
    char ph; ///< 'B','E','b','e','i'.
    const TraceEvent *src;
};

void
writeCommonFields(JsonWriter &j, const OutEvent &e)
{
    j.key("name").value(e.src->name);
    j.key("cat").value(traceCatName(e.src->cat));
    j.key("pid").value(static_cast<std::uint64_t>(e.pid));
    j.key("tid").value(static_cast<std::uint64_t>(e.tid));
    j.key("ts").value(static_cast<std::uint64_t>(e.ts));
}

void
writeArgs(JsonWriter &j, const TraceEvent &src)
{
    if (src.line == kNoAddr && src.arg == 0)
        return;
    j.key("args").beginObject();
    if (src.line != kNoAddr)
        j.key("line").value(src.line);
    if (src.arg != 0)
        j.key("arg").value(src.arg);
    j.endObject();
}

void
writeMetadata(JsonWriter &j, const TraceBuffer &s)
{
    j.beginObject();
    j.key("ph").value("M");
    j.key("name").value("process_name");
    j.key("pid").value(static_cast<std::uint64_t>(s.pid()));
    j.key("args").beginObject();
    j.key("name").value(s.label().empty() ? std::string("prefsim run")
                                          : s.label());
    j.endObject();
    j.endObject();
    for (std::uint32_t t = 0; t <= s.numProcs(); ++t) {
        j.beginObject();
        j.key("ph").value("M");
        j.key("name").value("thread_name");
        j.key("pid").value(static_cast<std::uint64_t>(s.pid()));
        j.key("tid").value(static_cast<std::uint64_t>(t));
        j.key("args").beginObject();
        j.key("name").value(t == s.busTid() ? std::string("bus")
                                            : "cpu " + std::to_string(t));
        j.endObject();
        j.endObject();
    }
}

} // namespace

void
Tracer::exportChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);

    // Expand spans into their paired events, then sort the whole
    // document so timestamps are monotone.
    std::vector<std::vector<TraceEvent>> per_session;
    per_session.reserve(sessions_.size());
    std::vector<OutEvent> out;
    for (const auto &s : sessions_) {
        per_session.push_back(s->orderedEvents());
        const auto &events = per_session.back();
        for (const TraceEvent &e : events) {
            switch (e.ph) {
              case TraceEvent::Ph::Span:
                out.push_back({s->pid(), e.tid, e.ts, 2, 'B', &e});
                out.push_back({s->pid(), e.tid, e.ts + e.dur, 0, 'E', &e});
                break;
              case TraceEvent::Ph::Async:
                out.push_back({s->pid(), e.tid, e.ts, 2, 'b', &e});
                out.push_back({s->pid(), e.tid, e.ts + e.dur, 0, 'e', &e});
                break;
              case TraceEvent::Ph::Instant:
                out.push_back({s->pid(), e.tid, e.ts, 1, 'i', &e});
                break;
            }
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const OutEvent &a, const OutEvent &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         return a.rank < b.rank;
                     });

    JsonWriter j(os);
    j.beginObject();
    j.key("displayTimeUnit").value("ms");
    j.key("traceEvents").beginArray();
    for (const auto &s : sessions_)
        writeMetadata(j, *s);
    for (const OutEvent &e : out) {
        j.beginObject();
        writeCommonFields(j, e);
        j.key("ph").value(std::string(1, e.ph));
        if (e.ph == 'b' || e.ph == 'e') {
            // Async pairs match on (cat, id); scope ids per process.
            j.key("id").value(e.src->id);
            std::string scope = "p";
            scope += std::to_string(e.pid);
            j.key("scope").value(scope);
        }
        if (e.ph == 'i')
            j.key("s").value("t");
        if (e.ph == 'B' || e.ph == 'b' || e.ph == 'i')
            writeArgs(j, *e.src);
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

} // namespace obs
} // namespace prefsim
