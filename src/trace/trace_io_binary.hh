/**
 * @file
 * Binary serialisation of parallel traces (format v2).
 *
 * The text format (trace_io.hh) is for inspection and diffing; this one
 * is for volume: records are packed as a one-byte tag plus varints,
 * with reference addresses zigzag-delta-encoded against the previous
 * address of the same processor. Typical traces shrink ~6-8x and load
 * an order of magnitude faster.
 *
 * Layout:
 *   magic "PFS2"
 *   varint numProcs, numLocks, numBarriers
 *   varint nameLength, name bytes
 *   per processor: varint recordCount, then records:
 *     tag byte = RecordKind (low 3 bits)
 *     Instr:             varint count
 *     Read/Write/Prefetch: zigzag-varint delta(addr, prevAddr)
 *     Lock/Unlock/Barrier: varint sync id
 *
 * Like the text reader, the reader returns canonical traces (trace.hh):
 * it drops Instr records of count 0 and folds adjacent ones, so a
 * processor may hold fewer records than its recordCount.
 * readTraceAutoFile() sniffs the magic and accepts either format.
 */

#ifndef PREFSIM_TRACE_TRACE_IO_BINARY_HH
#define PREFSIM_TRACE_TRACE_IO_BINARY_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace prefsim
{

/** Write @p trace to @p os in the v2 binary format. */
void writeTraceBinary(std::ostream &os, const ParallelTrace &trace);

/** Write @p trace to @p path; fatal() on I/O failure. */
void writeTraceBinaryFile(const std::string &path,
                          const ParallelTrace &trace);

/**
 * Parse a v2 binary trace from @p is.
 * @throws std::runtime_error on malformed input.
 */
ParallelTrace readTraceBinary(std::istream &is);

/** Read a binary trace from @p path; fatal() if it cannot be opened. */
ParallelTrace readTraceBinaryFile(const std::string &path);

/** Read a trace file of either format (sniffs the magic). */
ParallelTrace readTraceAutoFile(const std::string &path);

} // namespace prefsim

#endif // PREFSIM_TRACE_TRACE_IO_BINARY_HH
