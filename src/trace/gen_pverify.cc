/**
 * @file
 * Synthetic Pverify (parallel Boolean-circuit equivalence checking).
 *
 * Character reproduced (paper §3.2, §4.2, Fig 3b, Tables 3-5):
 *  - gates are pulled in small batches from a lock-protected shared work
 *    queue, so neighbouring gates are processed by different processors;
 *  - each gate's result is one word of a shared result vector. Because
 *    the queue interleaves batches across processors, a cache line of
 *    results mixes words owned by different processors: writing a
 *    result invalidates the line in every cache holding it for some
 *    *other* gate's word — classic false sharing, the dominant source
 *    of Pverify's invalidation misses (paper Table 3);
 *  - fan-in evaluation reads earlier gates' results (true sharing);
 *  - the gate-description table is large and read-shared (streaming
 *    capacity misses), keeping utilisation low (.41 down to .18) and
 *    saturating the bus early;
 *  - the restructured variant groups each processor's results into a
 *    private padded region (Jeremiassen-Eggers): false sharing all but
 *    vanishes (invalidation MR / 4) while the non-sharing miss rate
 *    rises slightly because the padded layout enlarges the footprint
 *    (Table 4).
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "trace/builder.hh"
#include "trace/layout.hh"
#include "trace/workload.hh"

namespace prefsim
{

ParallelTrace
generatePverify(const WorkloadParams &params)
{
    const PverifyTunables &tune = params.tunables.pverify;
    const unsigned P = params.numProcs;
    const unsigned gates = std::max(
        1024u, static_cast<unsigned>(tune.numGates * params.dataScale));
    const unsigned batches = gates / tune.batchGates;

    const Addr desc_base = kSharedBaseA; // gate descriptions
    // Offset the result vector by half a cache so result[g] and desc[g]
    // never alias to the same set (they advance in lockstep with g).
    const Addr result_base = kSharedBaseB + 16 * 1024;
    const Addr queue_base = kSharedBaseC; // queue head word

    // Static round-robin emulation of the dynamic work queue: batch t is
    // processed by processor t % P. This keeps generation deterministic
    // and pins down the false-sharing structure (interleaved ownership).
    auto batch_owner = [&](unsigned t) { return t % P; };

    const bool restructured = params.restructured;
    const unsigned res_bytes =
        restructured ? tune.resultBytesRestructured : tune.resultBytes;
    // In the restructured layout each processor's results are grouped in
    // a contiguous, line-aligned region indexed by processing order.
    const Addr per_proc_span =
        (Addr{gates} / P + 64) * tune.resultBytesRestructured;
    std::vector<unsigned> local_index(gates, 0);
    {
        std::vector<unsigned> next(P, 0);
        for (unsigned t = 0; t < batches; ++t) {
            const unsigned owner = batch_owner(t);
            for (unsigned g = t * tune.batchGates;
                 g < (t + 1) * tune.batchGates; ++g)
                local_index[g] = next[owner]++;
        }
    }
    auto result_addr = [&](unsigned g) -> Addr {
        if (!restructured)
            return result_base + Addr{g} * res_bytes;
        const unsigned t = g / tune.batchGates;
        return result_base + Addr{batch_owner(t)} * per_proc_span +
               Addr{local_index[g]} * res_bytes;
    };

    const std::uint64_t refs_per_gate =
        1 /* desc */ + tune.faninReads + 1 /* result */ + tune.stackRefs;
    const std::uint64_t refs_per_pass =
        refs_per_gate * gates / P + 2 * batches / P;
    const std::uint64_t passes =
        std::max<std::uint64_t>(5, params.refsPerProc / refs_per_pass);

    ParallelTrace out;
    out.name = restructured ? "pverify-r" : "pverify";
    out.numLocks = 1;
    out.numBarriers = static_cast<SyncId>(passes);

    const unsigned owned = batches / P;
    buildProcs(out, P, params.seed, [&](ProcTraceBuilder &b) {
        const ProcId p = b.proc();
        Rng &rng = b.rng();
        const Addr priv = privateBase(p);

        for (std::uint64_t pass = 0; pass < passes; ++pass) {
            // Each processor walks its owned batches from a staggered
            // starting point. Without the stagger the two owners of
            // every result line would write their halves at the same
            // moment (pure interprocessor contention); with it, the
            // neighbour's writes land ~4 batch-times away — inside the
            // fan-in reuse window, so the invalidations are observed,
            // but *after* the writer is done: the sequential sharing
            // pattern real task queues produce and PWS targets (§4.1).
            std::vector<unsigned> recent; // my processed batches
            recent.reserve(owned);
            for (unsigned j = 0; j < owned; ++j) {
                const unsigned idx = (j + p * 4) % owned;
                const unsigned t = p + idx * P;

                // Pop a chunk of batches from the shared queue.
                if (j % tune.popEveryBatches == 0) {
                    b.lock(tune.queueLock);
                    b.read(queue_base);
                    b.write(queue_base);
                    b.unlock(tune.queueLock);
                }

                for (unsigned g = t * tune.batchGates;
                     g < (t + 1) * tune.batchGates; ++g) {
                    // Read the gate description (streaming,
                    // read-shared; gate pairs share an entry).
                    if (g % 2 == 0)
                        b.read(desc_base + Addr{g} * tune.gateBytes);
                    // Read fan-in results: usually from this processor's
                    // own recently processed gates (hits unless another
                    // processor's write false-shared the line away),
                    // sometimes from arbitrary recent results (true
                    // sharing).
                    for (unsigned f = 0; f < tune.faninReads; ++f) {
                        unsigned src;
                        if (rng.chance(tune.faninLocalProb) &&
                            recent.size() > 6) {
                            const auto back = 2 + rng.below(
                                std::min<std::size_t>(recent.size() - 2,
                                                      6));
                            const unsigned bt =
                                recent[recent.size() - 1 - back];
                            src = bt * tune.batchGates +
                                  static_cast<unsigned>(
                                      rng.below(tune.batchGates));
                        } else {
                            const unsigned span =
                                std::min(g, tune.faninWindow - 1) + 1;
                            src =
                                g - static_cast<unsigned>(rng.below(span));
                        }
                        b.read(result_addr(src));
                    }
                    // Private evaluation stack (cache resident).
                    for (unsigned s = 0; s < tune.stackRefs; ++s)
                        b.read(priv + Addr{rng.below(256)} * kWordBytes);
                    b.compute(static_cast<std::uint32_t>(
                        rng.geometric(tune.computeMean)));
                    // Publish this gate's result.
                    b.write(result_addr(g));
                }
                recent.push_back(t);
            }
            b.barrier(static_cast<SyncId>(pass));
        }
    });
    return out;
}

} // namespace prefsim
