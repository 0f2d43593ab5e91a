/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic()  — an internal invariant was violated: a prefsim bug. Aborts.
 * fatal()  — the user asked for something impossible (bad configuration,
 *            inconsistent parameters). Exits with status 1.
 * warn()   — something works but is suspicious or approximated.
 * inform() — plain status output.
 *
 * All entry points are safe to call concurrently from worker threads:
 * message emission is serialized through one mutex-guarded sink, and the
 * terminating paths flush both standard streams before ending the
 * process. The sink is injectable (setLogSink) so embedders — and the
 * sweep engine's tests — can capture or redirect diagnostics.
 */

#ifndef PREFSIM_COMMON_LOG_HH
#define PREFSIM_COMMON_LOG_HH

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace prefsim
{

/** Severity of one log message, as seen by an injected sink. */
enum class LogLevel
{
    Inform, ///< Plain status output (stdout by default).
    Warn,   ///< Suspicious but non-fatal (stderr by default).
    Fatal,  ///< User error; the process exits after emission.
    Panic,  ///< Simulator bug; the process aborts after emission.
    Debug   ///< Diagnostic detail (suppressed unless --log-level debug).
};

/** Numeric severity for threshold comparisons (higher = more severe). */
constexpr int
logSeverity(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:
        return 0;
      case LogLevel::Inform:
        return 1;
      case LogLevel::Warn:
        return 2;
      case LogLevel::Fatal:
        return 3;
      case LogLevel::Panic:
        return 4;
    }
    return 4;
}

/**
 * Receives every emitted message (already formatted, no trailing
 * newline). Called with the global log mutex held: sinks need no
 * locking of their own but must not log re-entrantly.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Install @p sink as the destination of all log output; pass nullptr to
 * restore the default stdout/stderr sink. Quiet suppression of
 * inform/debug happens before the sink is invoked.
 * @return the previously installed sink (empty if the default).
 */
LogSink setLogSink(LogSink sink);

/**
 * RAII sink guard: installs @p sink on construction and restores
 * whatever was installed before on destruction, so a test (or a scoped
 * capture in an embedder) cannot leak its sink into later code.
 */
class ScopedLogSink
{
  public:
    explicit ScopedLogSink(LogSink sink)
        : previous_(setLogSink(std::move(sink)))
    {}

    ~ScopedLogSink() { setLogSink(std::move(previous_)); }

    ScopedLogSink(const ScopedLogSink &) = delete;
    ScopedLogSink &operator=(const ScopedLogSink &) = delete;

  private:
    LogSink previous_;
};

/**
 * Minimum severity that is emitted (default LogLevel::Inform, i.e.
 * debug suppressed). Fatal/panic are always emitted. Returns the
 * previous threshold. --log-level on the bench binaries maps here.
 */
LogLevel setLogThreshold(LogLevel min_level);
LogLevel logThreshold();

/**
 * Parse a --log-level spelling: "error" (fatal/panic only), "warn",
 * "info" (the default) or "debug". Returns nullopt on anything else.
 */
std::optional<LogLevel> parseLogLevel(const std::string &name);

namespace detail
{

/** Terminate after printing a panic message (simulator bug). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminate after printing a fatal message (user error). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to the sink (stderr by default). */
void warnImpl(const std::string &msg);

/** Print an informational message to the sink (stdout by default). */
void informImpl(const std::string &msg);

/** Print a debug message (suppressed unless the threshold allows). */
void debugImpl(const std::string &msg);

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Quiet mode (--quiet): drop inform and debug messages. Warnings,
 *  fatals and panics are still emitted. */
void setQuiet(bool quiet);
bool quiet();

} // namespace prefsim

#define prefsim_panic(...)                                                   \
    ::prefsim::detail::panicImpl(__FILE__, __LINE__,                         \
                                 ::prefsim::detail::format(__VA_ARGS__))

#define prefsim_fatal(...)                                                   \
    ::prefsim::detail::fatalImpl(__FILE__, __LINE__,                         \
                                 ::prefsim::detail::format(__VA_ARGS__))

#define prefsim_warn(...)                                                    \
    ::prefsim::detail::warnImpl(::prefsim::detail::format(__VA_ARGS__))

#define prefsim_inform(...)                                                  \
    ::prefsim::detail::informImpl(::prefsim::detail::format(__VA_ARGS__))

#define prefsim_debug(...)                                                   \
    ::prefsim::detail::debugImpl(::prefsim::detail::format(__VA_ARGS__))

/** Invariant check that survives NDEBUG: panics with a message on failure. */
#define prefsim_assert(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::prefsim::detail::panicImpl(                                    \
                __FILE__, __LINE__,                                          \
                ::prefsim::detail::format("assertion '" #cond "' failed: ",  \
                                          ##__VA_ARGS__));                   \
        }                                                                    \
    } while (0)

#endif // PREFSIM_COMMON_LOG_HH
