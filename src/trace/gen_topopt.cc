/**
 * @file
 * Synthetic Topopt (parallel simulated annealing for topological
 * optimisation of array logic).
 *
 * Character reproduced (paper §3.2, §4.3, Tables 3-5):
 *  - the shared cell array is deliberately small (it fits the 32 KB
 *    cache), yet the workload exhibits the highest degree of write
 *    sharing plus a population of conflict misses — the paper keeps it
 *    precisely because of that combination;
 *  - moves read and write pairs of cells under fine-grain locks.
 *    16-byte cell records put two cells in every line, and annealing
 *    neighbourhoods of adjacent processors overlap, so the *other* cell
 *    of a line frequently belongs to another processor: most
 *    invalidation misses are false sharing (Table 3);
 *  - netlist scratch accesses with a conflicting stride supply the
 *    conflict misses that prefetching later aggravates (modelled with a
 *    cold-line dial);
 *  - the restructured variant (Tables 4/5) pads cells to a full line
 *    and blocks the scratch walk: false sharing almost disappears
 *    (invalidation MR / 6) and locality improves enough to halve the
 *    non-sharing miss rate, lifting utilisation to ~.8 — at which point
 *    prefetching has little left to do.
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
generateTopopt(const WorkloadParams &params)
{
    const TopoptTunables &tune = params.tunables.topopt;
    const unsigned P = params.numProcs;
    const bool restructured = params.restructured;
    const unsigned cells = std::max(
        128u, static_cast<unsigned>(tune.numCells * params.dataScale));
    const unsigned cell_bytes = tune.cellBytes;
    const unsigned spacing = restructured
                                 ? tune.neighbourhoodSpacingRestructured
                                 : tune.neighbourhoodSpacing;
    const double conflict_prob = restructured
                                     ? tune.conflictProbRestructured
                                     : tune.conflictProb;

    const Addr cell_base = kSharedBaseA;
    auto cell_addr = [&](unsigned c, unsigned word) {
        return cell_base + Addr{c} * cell_bytes + Addr{word} * kWordBytes;
    };

    const std::uint64_t refs_per_move =
        3 + 3 + 2 + 2 + tune.scratchRefs + 1;
    const std::uint64_t refs_per_step = refs_per_move * tune.movesPerStep;
    const std::uint64_t steps =
        std::max<std::uint64_t>(5, params.refsPerProc / refs_per_step);

    ParallelTrace out;
    out.name = restructured ? "topopt-r" : "topopt";
    out.numLocks = tune.numLocks;
    out.numBarriers = static_cast<SyncId>(steps);

    buildProcs(out, P, params.seed, [&](ProcTraceBuilder &b) {
        const ProcId p = b.proc();
        Rng &rng = b.rng();
        const Addr scratch = privateBase(p) + tune.scratchOffset;
        ConflictStream conflict(privateBase(p) + tune.conflictOffset);
        const unsigned hood_first = (p * spacing) % cells;

        auto pick_cell = [&](bool allow_remote) -> unsigned {
            if (allow_remote && rng.chance(tune.remoteMoveProb)) {
                // Restructured, only the even slots are live cells (the
                // odd ones are the padding the transform inserted).
                if (restructured)
                    return 2 * static_cast<unsigned>(
                                   rng.below(cells / 2));
                return static_cast<unsigned>(rng.below(cells));
            }
            // Each neighbourhood works on every other cell of its span:
            // with the standard layout's odd spacing, adjacent
            // processors own opposite parities, so the two cells of a
            // line usually belong to different processors and remote
            // writes land on words the local processor never reads —
            // false sharing. The restructured layout's even, aligned
            // spacing gives every neighbourhood the same parity: the
            // unused odd cells act as padding and false sharing
            // disappears (Jeremiassen-Eggers).
            const unsigned pick = 2 * static_cast<unsigned>(rng.below(
                                          tune.neighbourhoodCells / 2));
            return (hood_first + pick) % cells;
        };

        for (std::uint64_t step = 0; step < steps; ++step) {
            for (unsigned m = 0; m < tune.movesPerStep; ++m) {
                const unsigned i = pick_cell(false);
                unsigned j = pick_cell(true);
                if (j == i)
                    j = (j + 1) % cells;
                // Lock ordering by lock id avoids deadlock.
                const SyncId la = i % tune.numLocks;
                const SyncId lb = j % tune.numLocks;
                const SyncId li = std::min(la, lb);
                const SyncId lj = std::max(la, lb);
                // Cost evaluation happens outside the critical
                // section; only the commit holds the two cell locks.
                b.readRun(cell_addr(i, 0), 3);
                b.readRun(cell_addr(j, 0), 3);
                b.compute(static_cast<std::uint32_t>(
                    rng.geometric(tune.computeMean)));
                b.lock(li);
                if (lj != li)
                    b.lock(lj);
                b.writeRun(cell_addr(i, 0), 2);
                b.writeRun(cell_addr(j, 0), 2);
                if (lj != li)
                    b.unlock(lj);
                b.unlock(li);
                // Netlist scratch: hot-table lookups plus the
                // conflicting strided walk (blocked to mostly-resident
                // data in the restructured program).
                for (unsigned s = 0; s < tune.scratchRefs; ++s)
                    b.read(scratch + Addr{rng.below(512)} * kWordBytes);
                if (rng.chance(conflict_prob))
                    b.read(conflict.next());
            }
            b.barrier(static_cast<SyncId>(step));
        }
    });
    return out;
}

} // namespace prefsim
