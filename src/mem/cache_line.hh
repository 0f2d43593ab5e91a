/**
 * @file
 * Cache line state for the Illinois write-invalidate protocol.
 *
 * The Illinois protocol (Papamarcos & Patel) is MESI with cache-to-cache
 * sourcing. Its private-clean (Exclusive) state is what makes exclusive
 * prefetching meaningful: a read miss with no other cached copy — and an
 * exclusive prefetch — installs in E, so a later write needs no bus
 * operation (paper §3.3, §4.1).
 */

#ifndef PREFSIM_MEM_CACHE_LINE_HH
#define PREFSIM_MEM_CACHE_LINE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace prefsim
{

/** Illinois / MESI line states. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,    ///< Clean, possibly cached elsewhere.
    Exclusive, ///< Private clean: no other cached copy.
    Modified,  ///< Private dirty.
};

/** Display name of @p s ("I", "S", "E", "M"). */
std::string lineStateName(LineState s);

/** True for E and M (no other cache holds a copy). */
constexpr bool
isPrivate(LineState s)
{
    return s == LineState::Exclusive || s == LineState::Modified;
}

/** True for any valid state. */
constexpr bool
isValid(LineState s)
{
    return s != LineState::Invalid;
}

/**
 * One direct-mapped cache frame.
 *
 * Beyond tag+state, the frame carries the provenance the paper's miss
 * taxonomy needs: whether the current residency was brought by a
 * prefetch and not yet used, which words the local CPU touched during
 * this residency (per-word false-sharing accounting), and — once the
 * line is invalidated — why, so the *next* local miss can be classified.
 */
struct CacheFrame
{
    /** Line base address of the current (or last) occupant;
     *  kNoAddr when the frame was never filled. */
    Addr tag = kNoAddr;
    /** Words the local CPU accessed during this residency. */
    std::uint32_t accessMask = 0;
    LineState state = LineState::Invalid;

    /** The residency was created by a prefetch... */
    bool broughtByPrefetch = false;
    /** ...and the CPU has since accessed the line. */
    bool usedSinceFill = false;

    /** @name Set when the frame is invalidated by a remote operation
     * (tag kept), consumed by the classification of the next local miss.
     * @{ */
    /** The invalidating write targeted a word the local CPU had not
     *  accessed during the residency: false sharing (paper §4.4). */
    bool invalFalseSharing = false;
    /** @} */

    /** Reset residency-scoped metadata on a fresh fill. */
    void
    beginResidency(Addr line_base, LineState s, bool by_prefetch)
    {
        tag = line_base;
        state = s;
        accessMask = 0;
        broughtByPrefetch = by_prefetch;
        usedSinceFill = false;
        invalFalseSharing = false;
    }
};

// Widest field first: the 8-byte tag, the 4-byte access mask, then the
// one-byte state and flags pack into 16 bytes with no interior padding
// (state before accessMask would pad to 24). Every snoop and demand
// lookup compares frame tags, so four frames share a 64-byte line.
static_assert(sizeof(CacheFrame) == 16,
              "CacheFrame must pack into 16 bytes; see the field order");

} // namespace prefsim

#endif // PREFSIM_MEM_CACHE_LINE_HH
