/**
 * @file
 * Runtime invariant hooks, compiled into the memory system and the bus
 * behind -DPREFSIM_VERIFY=ON (CMake option PREFSIM_VERIFY) and to
 * nothing by default.
 *
 * The hooks evaluate the *same* predicates the offline verify library
 * uses (MemorySystem::checkLineInvariantDetail, SplitBus::checkInvariants),
 * so a long bench self-checks with exactly the vocabulary the model
 * checker proves exhaustively on small configurations; see
 * docs/verification.md. A hook that fails panics with the violated
 * predicate's description.
 *
 * This header is dependency-free on purpose: mem/ and sim/ include it
 * without linking the verify library (the predicates live on the
 * checked classes themselves).
 */

#ifndef PREFSIM_VERIFY_RUNTIME_HH
#define PREFSIM_VERIFY_RUNTIME_HH

#include "common/log.hh"

#if PREFSIM_VERIFY

/** Check the full single-line invariant suite on @p ms for @p line.
 *  Skipped while a protocol mutation is seeded: the mutations exist to
 *  prove the checker fires, not to crash the harness seeding them. */
#define PREFSIM_VERIFY_MEM_LINE(ms, line)                                    \
    do {                                                                     \
        if ((ms).protocolMutation() == ProtocolMutation::None) {             \
            std::string verify_why_;                                         \
            if (!(ms).checkLineInvariantDetail((line), &verify_why_))        \
                prefsim_panic("PREFSIM_VERIFY: ", verify_why_);              \
        }                                                                    \
    } while (0)

/** Check the structural bus invariants on @p bus. */
#define PREFSIM_VERIFY_BUS(bus)                                              \
    do {                                                                     \
        std::string verify_why_;                                             \
        if (!(bus).checkInvariants(&verify_why_))                            \
            prefsim_panic("PREFSIM_VERIFY: ", verify_why_);                  \
    } while (0)

#else

#define PREFSIM_VERIFY_MEM_LINE(ms, line)                                    \
    do {                                                                     \
    } while (0)

#define PREFSIM_VERIFY_BUS(bus)                                              \
    do {                                                                     \
    } while (0)

#endif // PREFSIM_VERIFY

#endif // PREFSIM_VERIFY_RUNTIME_HH
