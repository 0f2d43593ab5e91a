/**
 * @file
 * Text serialization of parallel traces.
 *
 * Format (one record per line, '#' comments allowed):
 *
 *   prefsim-trace v1
 *   name <workload-name>
 *   procs <n> locks <n> barriers <n>
 *   proc <id>
 *   I <count>         instruction batch
 *   R <hex-addr>      read
 *   W <hex-addr>      write
 *   P <hex-addr>      shared prefetch
 *   X <hex-addr>      exclusive prefetch
 *   L <id>            lock acquire
 *   U <id>            lock release
 *   B <id>            barrier
 *
 * The format exists so traces can be inspected, diffed, and fed to the
 * simulator from files (mirroring the paper's trace-driven methodology).
 * The reader returns canonical traces (trace.hh): it drops "I 0" lines
 * and folds adjacent batches, so a file need not be canonical itself.
 */

#ifndef PREFSIM_TRACE_TRACE_IO_HH
#define PREFSIM_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace prefsim
{

/** Write @p trace to @p os in the v1 text format. */
void writeTrace(std::ostream &os, const ParallelTrace &trace);

/** Write @p trace to @p path; fatal() on I/O failure. */
void writeTraceFile(const std::string &path, const ParallelTrace &trace);

/**
 * Parse a v1 text trace from @p is.
 * @throws std::runtime_error on malformed input.
 */
ParallelTrace readTrace(std::istream &is);

/** Read a trace from @p path; fatal() if the file cannot be opened. */
ParallelTrace readTraceFile(const std::string &path);

} // namespace prefsim

#endif // PREFSIM_TRACE_TRACE_IO_HH
