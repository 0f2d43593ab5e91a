/**
 * @file
 * Trace record definitions.
 *
 * A trace is the per-processor event stream that drives the simulator,
 * standing in for the MPTrace address traces used in the paper. Records
 * model exactly the events Charlie consumed: instruction batches, data
 * references, lock acquire/release, barriers — plus the prefetch records
 * that the off-line prefetch pass inserts.
 */

#ifndef PREFSIM_TRACE_TRACE_RECORD_HH
#define PREFSIM_TRACE_TRACE_RECORD_HH

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"

namespace prefsim
{

/** Kind of a trace record. */
enum class RecordKind : std::uint8_t
{
    Instr,       ///< @c count non-memory instructions (1 cycle each).
    Read,        ///< Data read of @c addr (1 instr + 1 cycle on hit).
    Write,       ///< Data write of @c addr (1 instr + 1 cycle on hit).
    Prefetch,    ///< Shared-mode prefetch of the line containing @c addr.
    PrefetchExcl,///< Exclusive-mode prefetch (read-for-ownership).
    LockAcquire, ///< Acquire lock @c sync (spins until free).
    LockRelease, ///< Release lock @c sync.
    Barrier,     ///< Global barrier @c sync across all processors.
};

/** True for Read/Write records (demand data references). */
constexpr bool
isDemandRef(RecordKind k)
{
    return k == RecordKind::Read || k == RecordKind::Write;
}

/** True for shared or exclusive prefetch records. */
constexpr bool
isPrefetch(RecordKind k)
{
    return k == RecordKind::Prefetch || k == RecordKind::PrefetchExcl;
}

/** True for lock / barrier records. */
constexpr bool
isSync(RecordKind k)
{
    return k == RecordKind::LockAcquire || k == RecordKind::LockRelease ||
           k == RecordKind::Barrier;
}

/** Largest lock or barrier id a TraceRecord can carry (16-bit field). */
inline constexpr SyncId kMaxSyncId = 0xffff;

/**
 * One event in a per-processor trace.
 *
 * The struct is deliberately a flat 16-byte POD: whole experiments iterate
 * hundreds of millions of records, and trace storage is nearly all of a
 * run's host memory. The fields are ordered so nothing pads; the sync id
 * is stored in 16 bits, checked by the sync-record constructors (readers
 * reject larger ids before they get here).
 */
struct TraceRecord
{
    RecordKind kind = RecordKind::Instr;
    /** For sync records: lock or barrier identifier (<= kMaxSyncId). */
    std::uint16_t sync = 0;
    /** For Instr: the number of instructions batched into this record. */
    std::uint32_t count = 0;
    /** For Read/Write/Prefetch*: byte address. For sync records: unused. */
    Addr addr = kNoAddr;

    /** @name Constructors for each record kind. @{ */
    static TraceRecord
    instr(std::uint32_t count)
    {
        return {RecordKind::Instr, 0, count, kNoAddr};
    }

    static TraceRecord
    read(Addr addr)
    {
        return {RecordKind::Read, 0, 0, addr};
    }

    static TraceRecord
    write(Addr addr)
    {
        return {RecordKind::Write, 0, 0, addr};
    }

    static TraceRecord
    prefetch(Addr addr, bool exclusive = false)
    {
        return {exclusive ? RecordKind::PrefetchExcl : RecordKind::Prefetch,
                0, 0, addr};
    }

    static TraceRecord
    lockAcquire(SyncId id)
    {
        return syncRecord(RecordKind::LockAcquire, id);
    }

    static TraceRecord
    lockRelease(SyncId id)
    {
        return syncRecord(RecordKind::LockRelease, id);
    }

    static TraceRecord
    barrier(SyncId id)
    {
        return syncRecord(RecordKind::Barrier, id);
    }
    /** @} */

    bool
    operator==(const TraceRecord &o) const
    {
        return kind == o.kind && count == o.count && addr == o.addr &&
               sync == o.sync;
    }

  private:
    static TraceRecord
    syncRecord(RecordKind kind, SyncId id)
    {
        prefsim_assert(id <= kMaxSyncId, "sync id ", id,
                       " does not fit a trace record");
        return {kind, static_cast<std::uint16_t>(id), 0, kNoAddr};
    }
};

static_assert(sizeof(TraceRecord) == 16, "TraceRecord must stay 16 bytes");

} // namespace prefsim

#endif // PREFSIM_TRACE_TRACE_RECORD_HH
