/**
 * @file
 * The reproduction driver: `prefsim_repro [options] [NAME...]` runs
 * the union of the named experiments' points (bench/experiments.hh;
 * all of them by default) as one sweep, so a point several tables read
 * is simulated once, then renders each experiment in registry order to
 * stdout, or to DIR/<name>.txt under --out DIR. The telemetry documents
 * cover the whole sweep.
 */

#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench/bench_common.hh"
#include "bench/experiments.hh"

using namespace prefsim;

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    const BenchOptions opts = parseBenchArgs(argc, argv, &names);
    const std::vector<const Experiment *> selected =
        selectExperiments(names);

    SweepEngine engine = makeEngine(opts);
    for (const Experiment *e : selected)
        e->enqueue(engine);
    engine.runPending();

    if (!opts.outDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.outDir, ec);
        if (ec)
            prefsim_fatal("cannot create --out directory ", opts.outDir,
                          ": ", ec.message());
    }
    for (const Experiment *e : selected) {
        if (opts.outDir.empty()) {
            e->render(engine, opts.csv, std::cout);
            continue;
        }
        const std::string path = opts.outDir + "/" + e->name + ".txt";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        e->render(engine, opts.csv, out);
        if (!out)
            prefsim_fatal("cannot write ", path);
    }
    emitBenchTelemetry(opts, engine);
    return 0;
}
