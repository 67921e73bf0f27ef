/**
 * @file
 * Quickstart: build a 64-node fat tree with NIFDY network
 * interfaces, run the heavy synthetic workload for a while, and
 * print throughput and latency statistics.
 *
 * Usage: quickstart [cycles=200000] [experiment knobs...]
 * Every experiment knob works (topology=, nic=none|buffers|nifdy|lossy,
 * nodes=, seed=, ...; see run_experiment --list-knobs); a misspelled
 * key is fatal.
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/table.hh"
#include "traffic/synthetic.hh"

using namespace nifdy;

int
main(int argc, char **argv)
{
    Config conf;
    conf.parseArgs(argc, argv);

    ExperimentConfig cfg = experimentFromConfig(conf);
    Cycle cycles = conf.getInt("cycles", 200000);
    conf.requireAllRead();

    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), SyntheticParams::heavy(),
                               cfg.seed));
    exp.runFor(cycles);

    exp.statsTable().print();
    return 0;
}
