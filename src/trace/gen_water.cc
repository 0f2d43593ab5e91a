/**
 * @file
 * Synthetic Water (SPLASH liquid-water molecular dynamics).
 *
 * Character reproduced (paper §3.2, §4.2):
 *  - the molecule set is cache-resident, so the miss rate is the lowest
 *    of the workload (processor utilisation ~.81-.82 under NP, bus
 *    utilisation .10-.38 across the sweep);
 *  - sharing is read-mostly (O(n^2) force computation reads partner
 *    molecules) with modest, lock-protected write sharing when partner
 *    force fields are accumulated;
 *  - little false sharing: molecule records are line-aligned multiples.
 *
 * Structure: per timestep, each processor computes interactions between
 * its molecule slice and sampled partners, then folds its private
 * partial forces into the shared force fields under per-molecule-group
 * locks, then crosses a barrier. A small cold-stream term models the
 * per-timestep boundary/reload misses of the real program.
 */

#include <cstdint>

#include "common/log.hh"
#include "trace/builder.hh"
#include "trace/layout.hh"
#include "trace/workload.hh"

namespace prefsim
{

ParallelTrace
generateWater(const WorkloadParams &params)
{
    prefsim_assert(!params.restructured,
                   "water has no restructured variant in the paper");
    const WaterTunables &tune = params.tunables.water;
    const unsigned P = params.numProcs;
    const unsigned mols_per_proc = std::max(
        1u, static_cast<unsigned>(tune.molsPerProc * params.dataScale));
    const unsigned num_mols = P * mols_per_proc;

    const std::uint64_t refs_per_step =
        std::uint64_t{mols_per_proc} * tune.partnersPerMol * 7 +
        std::uint64_t{mols_per_proc} * 7;
    const std::uint64_t steps =
        std::max<std::uint64_t>(5, params.refsPerProc / refs_per_step);

    const Addr mol_base = kSharedBaseA;
    auto mol_addr = [&](unsigned m, unsigned word) {
        return mol_base + Addr{m} * tune.molBytes + Addr{word} * kWordBytes;
    };
    const unsigned force_word = tune.molBytes / kWordBytes - 3;

    ParallelTrace out;
    out.name = "water";
    out.numLocks = tune.numLocks;
    out.numBarriers = static_cast<SyncId>(steps);

    buildProcs(out, P, params.seed, [&](ProcTraceBuilder &b) {
        const ProcId p = b.proc();
        Rng &rng = b.rng();
        const unsigned first_mol = p * mols_per_proc;
        const Addr accum = privateBase(p) + tune.accumOffset;
        ColdStream cold(privateBase(p) + tune.coldOffset);

        for (std::uint64_t step = 0; step < steps; ++step) {
            // Force computation: owned molecules vs. sampled partners.
            for (unsigned k = 0; k < mols_per_proc; ++k) {
                const unsigned i = first_mol + k;
                for (unsigned q = 0; q < tune.partnersPerMol; ++q) {
                    const unsigned j =
                        static_cast<unsigned>(rng.below(num_mols));
                    b.readRun(mol_addr(i, 0), 3);  // my position
                    b.readRun(mol_addr(j, 0), 3);  // partner position
                    b.compute(static_cast<std::uint32_t>(
                        rng.geometric(tune.computeMean)));
                    // Accumulate into a private partial-force buffer
                    // (conflict-free placement: always a hit).
                    b.write(accum + Addr{(i % 64) * 8 + q % 8} * kWordBytes);
                    if (rng.chance(tune.coldProb))
                        b.read(cold.next());
                    if (rng.chance(tune.partnerWriteProb)) {
                        const SyncId l = j % tune.numLocks;
                        b.lock(l);
                        b.read(mol_addr(j, force_word));
                        b.write(mol_addr(j, force_word));
                        b.unlock(l);
                    }
                }
            }
            // Update phase: fold private partials into owned force fields.
            for (unsigned k = 0; k < mols_per_proc; ++k) {
                const unsigned i = first_mol + k;
                const SyncId l = i % tune.numLocks;
                b.read(accum + Addr{(i % 64) * 8} * kWordBytes);
                b.lock(l);
                b.readRun(mol_addr(i, force_word), 3);
                b.writeRun(mol_addr(i, force_word), 3);
                b.unlock(l);
                b.compute(static_cast<std::uint32_t>(
                    rng.geometric(tune.computeMean)));
            }
            b.barrier(static_cast<SyncId>(step));
        }
    });
    return out;
}

} // namespace prefsim
