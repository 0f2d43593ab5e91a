/**
 * @file
 * The one strict unsigned-integer rule shared by every command line.
 */

#ifndef PREFSIM_COMMON_PARSE_UINT_HH
#define PREFSIM_COMMON_PARSE_UINT_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

namespace prefsim
{

/**
 * Parse @p text as a plain decimal no larger than @p max (the
 * destination field's range): a leading digit, no trailing text, no
 * overflow. strtoull alone would skip leading blanks and accept a sign,
 * silently wrapping "-1" to 2^64 - 1, and a cast to a narrower field
 * would wrap 4294967298 to 2.
 * @return the value, or nullopt when @p text breaks the rule.
 */
inline std::optional<std::uint64_t>
parseUint(const char *text,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (*text < '0' || *text > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || value > max)
        return std::nullopt;
    return value;
}

} // namespace prefsim

#endif // PREFSIM_COMMON_PARSE_UINT_HH
