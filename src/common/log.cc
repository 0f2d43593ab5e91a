#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

namespace prefsim
{

namespace
{

std::atomic<bool> g_quiet{false};
std::atomic<int> g_threshold{logSeverity(LogLevel::Inform)};

/** Serializes every emission and guards the injected sink. */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

LogSink &
sinkSlot()
{
    static LogSink sink;
    return sink;
}

void
defaultSink(LogLevel level, const std::string &msg)
{
    switch (level) {
      case LogLevel::Debug:
        std::fprintf(stdout, "debug: %s\n", msg.c_str());
        break;
      case LogLevel::Inform:
        std::fprintf(stdout, "info: %s\n", msg.c_str());
        break;
      case LogLevel::Warn:
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
        break;
      case LogLevel::Fatal:
      case LogLevel::Panic:
        std::fprintf(stderr, "%s\n", msg.c_str());
        break;
    }
}

void
emit(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    if (sinkSlot())
        sinkSlot()(level, msg);
    else
        defaultSink(level, msg);
}

/**
 * Flush both standard streams under the log mutex so a worker thread's
 * terminating message is never lost to unflushed buffers (and never
 * interleaves with another thread's output).
 */
void
flushStreams()
{
    std::fflush(stdout);
    std::fflush(stderr);
}

} // namespace

LogSink
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(logMutex());
    LogSink previous = std::move(sinkSlot());
    sinkSlot() = std::move(sink);
    return previous;
}

LogLevel
setLogThreshold(LogLevel min_level)
{
    const int prev =
        g_threshold.exchange(logSeverity(min_level),
                             std::memory_order_relaxed);
    // Map the stored severity back to the canonical level per rank.
    switch (prev) {
      case 0:
        return LogLevel::Debug;
      case 1:
        return LogLevel::Inform;
      case 2:
        return LogLevel::Warn;
      default:
        return LogLevel::Fatal;
    }
}

LogLevel
logThreshold()
{
    switch (g_threshold.load(std::memory_order_relaxed)) {
      case 0:
        return LogLevel::Debug;
      case 1:
        return LogLevel::Inform;
      case 2:
        return LogLevel::Warn;
      default:
        return LogLevel::Fatal;
    }
}

std::optional<LogLevel>
parseLogLevel(const std::string &name)
{
    if (name == "error")
        return LogLevel::Fatal; // Fatal/panic only.
    if (name == "warn" || name == "warning")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Inform;
    if (name == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

void
setQuiet(bool q)
{
    g_quiet.store(q, std::memory_order_relaxed);
}

bool
quiet()
{
    return g_quiet.load(std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emit(LogLevel::Panic,
         format("panic: ", msg, "\n  at ", file, ":", line));
    flushStreams();
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emit(LogLevel::Fatal,
         format("fatal: ", msg, "\n  at ", file, ":", line));
    flushStreams();
    // _Exit instead of exit: a fatal raised on a sweep worker thread
    // must not run static destructors while sibling threads still hold
    // references into them. Streams were flushed above.
    std::_Exit(1);
}

namespace
{

bool
thresholdAllows(LogLevel level)
{
    return logSeverity(level) >=
           g_threshold.load(std::memory_order_relaxed);
}

} // namespace

void
warnImpl(const std::string &msg)
{
    if (thresholdAllows(LogLevel::Warn))
        emit(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    if (!quiet() && thresholdAllows(LogLevel::Inform))
        emit(LogLevel::Inform, msg);
}

void
debugImpl(const std::string &msg)
{
    if (!quiet() && thresholdAllows(LogLevel::Debug))
        emit(LogLevel::Debug, msg);
}

} // namespace detail
} // namespace prefsim
