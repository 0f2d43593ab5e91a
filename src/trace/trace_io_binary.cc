#include "trace/trace_io_binary.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/log.hh"
#include "trace/trace_io.hh"

namespace prefsim
{

namespace
{

constexpr char kMagic[4] = {'P', 'F', 'S', '2'};

void
putVarint(std::ostream &os, std::uint64_t v)
{
    while (v >= 0x80) {
        os.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    os.put(static_cast<char>(v));
}

std::uint64_t
getVarint(std::istream &is)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        const int c = is.get();
        if (c == EOF)
            throw std::runtime_error("binary trace: truncated varint");
        v |= std::uint64_t{static_cast<unsigned>(c) & 0x7f} << shift;
        if ((c & 0x80) == 0)
            return v;
        shift += 7;
        if (shift >= 64)
            throw std::runtime_error("binary trace: varint overflow");
    }
}

// Address deltas wrap modulo 2^64 in both directions, so any pair of
// addresses round-trips without signed overflow.
constexpr std::uint64_t
zigzag(std::uint64_t delta)
{
    return (delta << 1) ^ (0 - (delta >> 63));
}

constexpr std::uint64_t
unzigzag(std::uint64_t v)
{
    return (v >> 1) ^ (0 - (v & 1));
}

/** Most records reserved up front: a count is only a hint until read. */
constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 20;

/** Read a varint and reject it when above @p max. */
std::uint64_t
getBounded(std::istream &is, std::uint64_t max, const char *what)
{
    const std::uint64_t v = getVarint(is);
    if (v > max)
        throw std::runtime_error(std::string("binary trace: ") + what +
                                 " " + std::to_string(v) +
                                 " out of range");
    return v;
}

} // namespace

void
writeTraceBinary(std::ostream &os, const ParallelTrace &trace)
{
    os.write(kMagic, sizeof(kMagic));
    putVarint(os, trace.numProcs());
    putVarint(os, trace.numLocks);
    putVarint(os, trace.numBarriers);
    putVarint(os, trace.name.size());
    os.write(trace.name.data(),
             static_cast<std::streamsize>(trace.name.size()));

    for (const auto &proc : trace.procs) {
        putVarint(os, proc.size());
        Addr prev = 0;
        for (const auto &r : proc.records()) {
            os.put(static_cast<char>(r.kind));
            switch (r.kind) {
              case RecordKind::Instr:
                putVarint(os, r.count);
                break;
              case RecordKind::Read:
              case RecordKind::Write:
              case RecordKind::Prefetch:
              case RecordKind::PrefetchExcl:
                putVarint(os, zigzag(r.addr - prev));
                prev = r.addr;
                break;
              case RecordKind::LockAcquire:
              case RecordKind::LockRelease:
              case RecordKind::Barrier:
                putVarint(os, r.sync);
                break;
            }
        }
    }
}

void
writeTraceBinaryFile(const std::string &path, const ParallelTrace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        prefsim_fatal("cannot open trace file for writing: ", path);
    writeTraceBinary(os, trace);
    if (!os)
        prefsim_fatal("I/O error while writing trace file: ", path);
}

ParallelTrace
readTraceBinary(std::istream &is)
{
    char magic[4];
    is.read(magic, sizeof(magic));
    if (is.gcount() != sizeof(magic) ||
        !std::equal(magic, magic + 4, kMagic))
        throw std::runtime_error("binary trace: bad magic");

    ParallelTrace trace;
    const auto num_procs = getVarint(is);
    if (num_procs > kMaxTraceProcs)
        throw std::runtime_error("binary trace: too many processors");
    trace.numLocks =
        static_cast<SyncId>(getBounded(is, kMaxSyncId + 1, "lock count"));
    trace.numBarriers = static_cast<SyncId>(
        getBounded(is, kMaxSyncId + 1, "barrier count"));
    const auto name_len = getVarint(is);
    if (name_len > 4096)
        throw std::runtime_error("binary trace: oversized name");
    trace.name.resize(name_len);
    is.read(trace.name.data(), static_cast<std::streamsize>(name_len));
    if (is.gcount() != static_cast<std::streamsize>(name_len))
        throw std::runtime_error("binary trace: truncated name");

    trace.procs.resize(num_procs);
    for (auto &proc : trace.procs) {
        const auto count = getVarint(is);
        proc.reserve(std::min(count, kMaxReserve));
        Addr prev = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const int tag = is.get();
            if (tag == EOF)
                throw std::runtime_error("binary trace: truncated record");
            const auto kind = static_cast<RecordKind>(tag);
            switch (kind) {
              case RecordKind::Instr:
                proc.records().push_back(
                    TraceRecord::instr(static_cast<std::uint32_t>(
                        getBounded(is, kMaxInstrCount, "instr count"))));
                break;
              case RecordKind::Read:
              case RecordKind::Write:
              case RecordKind::Prefetch:
              case RecordKind::PrefetchExcl: {
                const Addr addr = prev + unzigzag(getVarint(is));
                prev = addr;
                TraceRecord r;
                r.kind = kind;
                r.addr = addr;
                proc.records().push_back(r);
                break;
              }
              case RecordKind::LockAcquire:
              case RecordKind::LockRelease:
              case RecordKind::Barrier: {
                TraceRecord r;
                r.kind = kind;
                r.sync = static_cast<std::uint16_t>(
                    getBounded(is, kMaxSyncId, "sync id"));
                proc.records().push_back(r);
                break;
              }
              default:
                throw std::runtime_error(
                    "binary trace: unknown record tag " +
                    std::to_string(tag));
            }
        }
    }
    return trace;
}

ParallelTrace
readTraceBinaryFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        prefsim_fatal("cannot open trace file for reading: ", path);
    return readTraceBinary(is);
}

ParallelTrace
readTraceAutoFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        prefsim_fatal("cannot open trace file for reading: ", path);
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    is.seekg(0);
    if (std::equal(magic, magic + 4, kMagic))
        return readTraceBinary(is);
    return readTrace(is);
}

} // namespace prefsim
