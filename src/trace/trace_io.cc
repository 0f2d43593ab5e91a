#include "trace/trace_io.hh"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/log.hh"

namespace prefsim
{

void
writeTrace(std::ostream &os, const ParallelTrace &trace)
{
    os << "prefsim-trace v1\n";
    os << "name " << (trace.name.empty() ? "unnamed" : trace.name) << "\n";
    os << "procs " << trace.numProcs() << " locks " << trace.numLocks
       << " barriers " << trace.numBarriers << "\n";
    for (std::size_t p = 0; p < trace.numProcs(); ++p) {
        os << "proc " << p << "\n";
        for (const auto &r : trace.procs[p].records()) {
            switch (r.kind) {
              case RecordKind::Instr:
                os << "I " << r.count << "\n";
                break;
              case RecordKind::Read:
                os << "R " << std::hex << r.addr << std::dec << "\n";
                break;
              case RecordKind::Write:
                os << "W " << std::hex << r.addr << std::dec << "\n";
                break;
              case RecordKind::Prefetch:
                os << "P " << std::hex << r.addr << std::dec << "\n";
                break;
              case RecordKind::PrefetchExcl:
                os << "X " << std::hex << r.addr << std::dec << "\n";
                break;
              case RecordKind::LockAcquire:
                os << "L " << r.sync << "\n";
                break;
              case RecordKind::LockRelease:
                os << "U " << r.sync << "\n";
                break;
              case RecordKind::Barrier:
                os << "B " << r.sync << "\n";
                break;
            }
        }
    }
}

void
writeTraceFile(const std::string &path, const ParallelTrace &trace)
{
    std::ofstream os(path);
    if (!os)
        prefsim_fatal("cannot open trace file for writing: ", path);
    writeTrace(os, trace);
    if (!os)
        prefsim_fatal("I/O error while writing trace file: ", path);
}

namespace
{

[[noreturn]] void
bad(std::size_t line_no, const std::string &what)
{
    std::ostringstream os;
    os << "trace parse error at line " << line_no << ": " << what;
    throw std::runtime_error(os.str());
}

/**
 * Read an unsigned decimal field into @p out and check it against
 * @p max. A leading '-' is an error: stream extraction would wrap it.
 */
template <typename T>
bool
readBounded(std::istream &ls, std::uint64_t max, T &out)
{
    ls >> std::ws;
    if (ls.peek() == '-')
        return false;
    ls >> out;
    return ls && out <= max;
}

} // namespace

ParallelTrace
readTrace(std::istream &is)
{
    ParallelTrace trace;
    std::string line;
    std::size_t line_no = 0;
    long cur_proc = -1;

    auto next_line = [&]() -> bool {
        while (std::getline(is, line)) {
            ++line_no;
            if (line.empty() || line[0] == '#')
                continue;
            return true;
        }
        return false;
    };

    if (!next_line() || line != "prefsim-trace v1")
        bad(line_no, "missing 'prefsim-trace v1' header");

    if (!next_line())
        bad(line_no, "missing 'name' line");
    {
        std::istringstream ls(line);
        std::string kw;
        ls >> kw >> trace.name;
        if (kw != "name" || trace.name.empty())
            bad(line_no, "expected 'name <workload>'");
    }

    if (!next_line())
        bad(line_no, "missing 'procs' line");
    {
        std::istringstream ls(line);
        std::string kw1, kw2, kw3;
        std::size_t nprocs = 0;
        ls >> kw1;
        const bool procs_ok = readBounded(ls, kMaxTraceProcs, nprocs);
        ls >> kw2;
        const bool locks_ok = readBounded(ls, kMaxSyncId + 1, trace.numLocks);
        ls >> kw3;
        const bool barriers_ok =
            readBounded(ls, kMaxSyncId + 1, trace.numBarriers);
        if (!ls || kw1 != "procs" || kw2 != "locks" || kw3 != "barriers")
            bad(line_no, "expected 'procs <n> locks <n> barriers <n>'");
        if (!procs_ok)
            bad(line_no, "processor count must be 0.." +
                             std::to_string(kMaxTraceProcs));
        if (!locks_ok || !barriers_ok)
            bad(line_no, "lock and barrier counts must be 0.." +
                             std::to_string(kMaxSyncId + 1));
        trace.procs.resize(nprocs);
    }

    while (next_line()) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "proc") {
            std::size_t p = 0;
            ls >> p;
            if (!ls || p >= trace.numProcs())
                bad(line_no, "bad processor id");
            cur_proc = static_cast<long>(p);
            continue;
        }
        if (cur_proc < 0)
            bad(line_no, "record before any 'proc' line");
        Trace &t = trace.procs[static_cast<std::size_t>(cur_proc)];
        if (tag == "I") {
            std::uint32_t n = 0;
            if (!readBounded(ls, kMaxInstrCount, n))
                bad(line_no, "bad instruction count");
            t.appendInstrs(n);
        } else if (tag == "R" || tag == "W" || tag == "P" || tag == "X") {
            Addr a = 0;
            ls >> std::hex >> a;
            if (!ls)
                bad(line_no, "bad address");
            if (tag == "R")
                t.append(TraceRecord::read(a));
            else if (tag == "W")
                t.append(TraceRecord::write(a));
            else
                t.append(TraceRecord::prefetch(a, tag == "X"));
        } else if (tag == "L" || tag == "U" || tag == "B") {
            SyncId id = 0;
            if (!readBounded(ls, kMaxSyncId, id))
                bad(line_no, "bad sync id (must be 0.." +
                                 std::to_string(kMaxSyncId) + ")");
            if (tag == "L")
                t.append(TraceRecord::lockAcquire(id));
            else if (tag == "U")
                t.append(TraceRecord::lockRelease(id));
            else
                t.append(TraceRecord::barrier(id));
        } else {
            bad(line_no, "unknown record tag '" + tag + "'");
        }
    }
    return trace;
}

ParallelTrace
readTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        prefsim_fatal("cannot open trace file for reading: ", path);
    return readTrace(is);
}

} // namespace prefsim
