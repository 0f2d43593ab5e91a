/**
 * @file
 * Synthetic Mp3d (SPLASH rarefied hypersonic particle flow).
 *
 * Character reproduced (paper §3.2, §4.2, Fig 3c):
 *  - the per-processor particle slice streams through the cache every
 *    timestep: the workload has the highest miss rate (processor
 *    utilisation .39 down to .22) and its non-sharing misses are
 *    perfectly predictable leading references — which is why Mp3d shows
 *    the best PREF speedups in the paper;
 *  - space cells are a write-shared array updated by whichever
 *    processor's particle lands in them (no locks, as in the original),
 *    giving real invalidation traffic with substantial false sharing
 *    (several 8-byte cells per 32-byte line);
 *  - it is among the first workloads to saturate the bus.
 */

#include <algorithm>
#include <cstdint>

#include "common/log.hh"
#include "trace/builder.hh"
#include "trace/layout.hh"
#include "trace/workload.hh"

namespace prefsim
{

ParallelTrace
generateMp3d(const WorkloadParams &params)
{
    prefsim_assert(!params.restructured,
                   "mp3d has no restructured variant in the paper");
    const Mp3dTunables &tune = params.tunables.mp3d;
    const unsigned P = params.numProcs;
    const unsigned parts = std::max(
        64u, static_cast<unsigned>(tune.particlesPerProc * params.dataScale));

    const std::uint64_t refs_per_particle = 3 + 1 + tune.scratchRefs;
    const std::uint64_t refs_per_step = refs_per_particle * parts;
    const std::uint64_t steps =
        std::max<std::uint64_t>(5, params.refsPerProc / refs_per_step);

    const Addr cell_base = kSharedBaseB;
    auto cell_addr = [&](unsigned c) {
        return cell_base + Addr{c} * tune.cellBytes;
    };

    ParallelTrace out;
    out.name = "mp3d";
    out.numLocks = 0;
    out.numBarriers = static_cast<SyncId>(steps);

    buildProcs(out, P, params.seed, [&](ProcTraceBuilder &b) {
        const ProcId p = b.proc();
        Rng &rng = b.rng();
        // Particle slices live in the shared region (structurally shared
        // data, though touched almost exclusively by their owner).
        const Addr my_parts =
            kSharedBaseA + Addr{p} * parts * tune.particleBytes;
        const unsigned my_cluster =
            (p * tune.localClusterCells) % tune.numCells;
        // The hot scratch must not collide (in this processor's own
        // cache) with the sets its cell cluster occupies, or the two
        // ping-pong and the processor falls behind the barrier.
        const unsigned cluster_lines =
            tune.localClusterCells * tune.cellBytes / 32;
        const unsigned cluster_set_base =
            (p * cluster_lines) % 1024;
        const Addr priv = privateBase(p) +
                          ((cluster_set_base + 256) % 1024) * 32;

        for (std::uint64_t step = 0; step < steps; ++step) {
            // Deterministic migration-style imbalance: this processor's
            // share of the particle work this step.
            const double phase =
                static_cast<double>((p * 31 + step * 17) % 16) / 15.0;
            const auto step_parts = static_cast<unsigned>(
                parts *
                (1.0 - tune.imbalance + 2 * tune.imbalance * phase));
            for (unsigned k = 0; k < step_parts; ++k) {
                const Addr rec = my_parts + Addr{k} * tune.particleBytes;
                // Advance the particle: read its state; every Nth
                // particle commits an update. The streaming sweep is the
                // leading-reference miss source PREF covers so well.
                b.readRun(rec, 3);
                b.compute(static_cast<std::uint32_t>(
                    rng.geometric(tune.computeMean)));
                if (k % tune.particleWriteEvery == 0)
                    b.write(rec + 3 * kWordBytes);
                // Collide with the space cell the particle occupies.
                unsigned cell;
                if (rng.chance(tune.remoteCellProb)) {
                    cell = static_cast<unsigned>(rng.below(tune.numCells));
                } else {
                    // Local particles cluster on every other cell of the
                    // processor's region; random remote traffic writes
                    // the interleaved neighbours, so most invalidations
                    // of cluster lines are false sharing (two 16-byte
                    // cells per line).
                    cell = (my_cluster +
                            2 * static_cast<unsigned>(rng.below(
                                    tune.localClusterCells / 2))) %
                           tune.numCells;
                }
                b.read(cell_addr(cell));
                if (rng.chance(tune.cellWriteProb))
                    b.write(cell_addr(cell));
                // Collision-rate table lookups in private, hot scratch.
                for (unsigned s = 0; s < tune.scratchRefs; ++s)
                    b.read(priv + Addr{rng.below(512)} * kWordBytes);
            }
            b.barrier(static_cast<SyncId>(step));
        }
    });
    return out;
}

} // namespace prefsim
