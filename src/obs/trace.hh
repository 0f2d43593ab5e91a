/**
 * @file
 * Structured event tracing for whole simulation runs.
 *
 * Each Simulator run records into its own single-threaded TraceBuffer
 * (no locks on the recording path); when the run finishes, the buffer
 * is committed to the shared Tracer, which assigns one Chrome
 * trace-event *process* per run and one *thread* per processor plus one
 * for the bus. exportChromeTrace() writes the whole collection as a
 * Chrome trace-event / Perfetto-loadable JSON document.
 *
 * A TraceBuffer is one consumer of the run's event stream (see
 * obs/event.hh): it exists only while a Tracer is wired in via
 * ObsContext and enabled (--trace-out), and on() turns each event
 * into the span or instant the viewer shows. It also keeps the one
 * piece of state the stream leaves implicit — each processor's open
 * stall — and emits the stall as a single span when it ends.
 *
 * Buffers are bounded rings: when full, the oldest events are dropped
 * (and counted), never the newest — the end of a run is usually where
 * the interesting saturation behaviour lives. Spans are recorded once,
 * at their *end*, as (begin, duration) records, so an evicted event can
 * never produce an unpaired begin/end in the export.
 */

#ifndef PREFSIM_OBS_TRACE_HH
#define PREFSIM_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"

namespace prefsim
{
namespace obs
{

struct Event;

/** Event category (Chrome "cat" field; filterable in the viewer). */
enum class TraceCat : std::uint8_t
{
    Bus,       ///< Bus transaction lifecycle and data-bus occupancy.
    Coherence, ///< Line state transitions (invalidate/downgrade/fill).
    Prefetch,  ///< Prefetch issue / fill / late-demand attachment.
    Sync,      ///< Locks and barriers.
    Exec,      ///< Processor stalls.
};

const char *traceCatName(TraceCat cat);

/** One recorded event (spans store begin + duration). */
struct TraceEvent
{
    Cycle ts = 0;   ///< Begin cycle (spans) or event cycle (instants).
    Cycle dur = 0;  ///< Span length; 0 for instants.
    std::uint32_t tid = 0; ///< Track: procs 0..P-1; P = the bus.
    const char *name = ""; ///< Static string; never owned.
    TraceCat cat = TraceCat::Exec;
    enum class Ph : std::uint8_t
    {
        Span,    ///< Exported as a B/E pair (must not overlap per tid).
        Instant, ///< Exported as an "i" event.
        Async,   ///< Exported as a b/e pair matched by id (may overlap).
    } ph = Ph::Instant;
    std::uint64_t id = 0;   ///< Async pair id (bus transaction id).
    Addr line = kNoAddr;    ///< Line address payload (kNoAddr = none).
    std::uint64_t arg = 0;  ///< Small scalar payload (requester, state).
};

/**
 * Per-run, single-threaded bounded event ring. Create via
 * Tracer::beginSession; one run's Sink owns it until the run commits
 * it back.
 */
class TraceBuffer
{
  public:
    TraceBuffer(std::uint32_t num_procs, std::size_t capacity,
                std::uint32_t pid, std::string label);

    /** Record a completed span [begin, end). Zero-length spans are
     *  stored as instants (a B/E pair at one timestamp renders as
     *  nothing and can break nesting). */
    void
    span(std::uint32_t tid, const char *name, TraceCat cat, Cycle begin,
         Cycle end, Addr line = kNoAddr, std::uint64_t arg = 0)
    {
        TraceEvent e;
        e.ts = begin;
        e.dur = end > begin ? end - begin : 0;
        e.tid = tid;
        e.name = name;
        e.cat = cat;
        e.ph = e.dur ? TraceEvent::Ph::Span : TraceEvent::Ph::Instant;
        e.line = line;
        e.arg = arg;
        push(e);
    }

    /** Record a completed async span (pairs matched by @p id; may
     *  overlap other spans on the same track). */
    void
    asyncSpan(std::uint32_t tid, const char *name, TraceCat cat,
              std::uint64_t id, Cycle begin, Cycle end,
              Addr line = kNoAddr, std::uint64_t arg = 0)
    {
        TraceEvent e;
        e.ts = begin;
        e.dur = end > begin ? end - begin : 0;
        e.tid = tid;
        e.name = name;
        e.cat = cat;
        e.ph = TraceEvent::Ph::Async;
        e.id = id;
        e.line = line;
        e.arg = arg;
        push(e);
    }

    /** Record an instantaneous event. */
    void
    instant(std::uint32_t tid, const char *name, TraceCat cat, Cycle ts,
            Addr line = kNoAddr, std::uint64_t arg = 0)
    {
        TraceEvent e;
        e.ts = ts;
        e.tid = tid;
        e.name = name;
        e.cat = cat;
        e.ph = TraceEvent::Ph::Instant;
        e.line = line;
        e.arg = arg;
        push(e);
    }

    /** Record @p e as the trace shows it (the stream's consumer). */
    void on(const Event &e);

    std::uint32_t numProcs() const { return num_procs_; }
    /** The bus track id (== numProcs). */
    std::uint32_t busTid() const { return num_procs_; }
    std::uint32_t pid() const { return pid_; }
    const std::string &label() const { return label_; }

    /** Events in recording order (oldest surviving first). */
    std::vector<TraceEvent> orderedEvents() const;
    std::size_t size() const;
    std::uint64_t dropped() const { return dropped_; }

  private:
    void push(const TraceEvent &e);

    /** A processor's open stall (name null when none). A processor has
     *  at most one, so the spans it closes into nest. */
    struct OpenStall
    {
        const char *name = nullptr;
        TraceCat cat = TraceCat::Exec;
        Cycle begin = 0;
    };

    std::uint32_t num_procs_;
    std::size_t capacity_;
    std::uint32_t pid_;
    std::string label_;
    std::vector<TraceEvent> ring_;
    std::size_t next_ = 0;     ///< Ring write cursor once saturated.
    bool wrapped_ = false;
    std::uint64_t dropped_ = 0;
    std::vector<OpenStall> open_; ///< Per processor.
};

/**
 * The shared trace collector. Thread-safe: sessions begin and commit
 * under a mutex; recording itself happens in per-run buffers without
 * synchronisation.
 */
class Tracer
{
  public:
    /**
     * @param events_per_session ring capacity of each run's buffer.
     * @param max_sessions runs traced before beginSession returns null
     *        (bounds sweep memory; first-come first-traced).
     */
    explicit Tracer(std::size_t events_per_session = 1u << 16,
                    std::size_t max_sessions = 16);

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Allocate a buffer for one run (null when disabled or the session
     * budget is spent). The caller commits it back when the run ends.
     */
    std::unique_ptr<TraceBuffer> beginSession(std::uint32_t num_procs,
                                              std::string label);

    /** Take ownership of a finished run's events. Null is tolerated. */
    void commit(std::unique_ptr<TraceBuffer> buffer);

    std::size_t numSessions() const;
    std::uint64_t totalEvents() const;

    /**
     * Write everything committed so far as one Chrome trace-event JSON
     * document ({"traceEvents":[...]}): per-run process labels, named
     * per-processor + bus threads, events sorted by timestamp with ends
     * ordered before begins at equal timestamps so adjacent spans nest.
     * Cycle timestamps are written as microseconds (1 cycle = 1us in
     * the viewer).
     */
    void exportChromeTrace(std::ostream &os) const;

  private:
    bool enabled_ = false;
    std::size_t events_per_session_;
    std::size_t max_sessions_;

    mutable std::mutex mu_;
    std::uint32_t next_pid_ = 0; ///< Also counts begun sessions.
    std::vector<std::unique_ptr<TraceBuffer>> sessions_;
};

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_TRACE_HH
