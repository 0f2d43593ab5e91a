/**
 * @file
 * The complete SimStats fingerprint shared by every engine-identity and
 * neutrality test.
 */

#ifndef PREFSIM_TESTS_SIM_FINGERPRINT_HH
#define PREFSIM_TESTS_SIM_FINGERPRINT_HH

#include <sstream>
#include <string>

#include "sim/sim_stats.hh"

namespace prefsim
{

/**
 * Serialize every statistics field to text. Two runs agree bit-for-bit
 * iff their fingerprints compare equal, and a mismatch's first
 * differing line names the field that diverged.
 */
inline std::string
fingerprint(const SimStats &s)
{
    std::ostringstream os;
    os << "cycles=" << s.cycles << '\n';
    os << "bus.busyCycles=" << s.bus.busyCycles << '\n';
    for (int k = 0; k < 5; ++k)
        os << "bus.opCount[" << k << "]=" << s.bus.opCount[k] << '\n';
    os << "bus.queueWaitDemand=" << s.bus.queueWaitDemand << '\n';
    os << "bus.queueWaitPrefetch=" << s.bus.queueWaitPrefetch << '\n';
    os << "bus.grantsDemand=" << s.bus.grantsDemand << '\n';
    os << "bus.grantsPrefetch=" << s.bus.grantsPrefetch << '\n';
    for (std::size_t p = 0; p < s.procs.size(); ++p) {
        const ProcStats &ps = s.procs[p];
        os << "proc" << p << ".busy=" << ps.busy
           << " stallDemand=" << ps.stallDemand
           << " stallUpgrade=" << ps.stallUpgrade
           << " stallPrefetchQueue=" << ps.stallPrefetchQueue
           << " spinLock=" << ps.spinLock
           << " waitBarrier=" << ps.waitBarrier
           << " finishedAt=" << ps.finishedAt << '\n';
        os << "proc" << p << ".demandRefs=" << ps.demandRefs
           << " reads=" << ps.reads << " writes=" << ps.writes
           << " prefetchesExecuted=" << ps.prefetchesExecuted
           << " prefetchMisses=" << ps.prefetchMisses
           << " droppedResident=" << ps.prefetchesDroppedResident
           << " droppedDuplicate=" << ps.prefetchesDroppedDuplicate
           << " upgradesIssued=" << ps.upgradesIssued
           << " victimHits=" << ps.victimHits
           << " prefetchBufferHits=" << ps.prefetchBufferHits
           << " bufferProtectionEvents=" << ps.bufferProtectionEvents
           << '\n';
        const MissBreakdown &m = ps.misses;
        os << "proc" << p
           << ".misses=" << m.nonSharingNotPrefetched << ','
           << m.nonSharingPrefetched << ',' << m.invalNotPrefetched << ','
           << m.invalPrefetched << ',' << m.prefetchInProgress << ','
           << m.falseSharing << '\n';
    }
    return os.str();
}

} // namespace prefsim

#endif // PREFSIM_TESTS_SIM_FINGERPRINT_HH
