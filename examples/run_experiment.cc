/**
 * @file
 * Generic experiment runner: every knob of the key=value config
 * layer (topology, NIC kind, NIFDY parameters, lossy NIC, fault
 * injection, tracing, metric snapshots) plus a workload selector,
 * with the run summary printed as a table and optionally written as
 * a schema-versioned JSON report.
 *
 * Usage: run_experiment [key=value ...] [--json PATH]
 *        run_experiment --help | --list-knobs
 * The keys are the experiment knobs plus the runner's own (workload,
 * cycles, timeout, ...), both listed with defaults and docs by
 * --help and --list-knobs. timeout=N is the self-guard a campaign
 * supervisor sets: it caps the budget and notes run.timeout in the
 * report, so a wedged config reports itself instead of hanging. A
 * key the runner does not read is fatal.
 *
 * This is also the binary CI uses to exercise the telemetry stack:
 *   run_experiment workload=cshift nic=lossy fault.dropProb=0.001 \
 *       trace.path=trace.json metrics.path=metrics.jsonl
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "sim/config.hh"
#include "sim/knob.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "traffic/collective.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

using namespace nifdy;

namespace
{

/** The runner's own keys (everything else is an experiment knob). */
struct RunnerOptions
{
    std::string workload = "heavy";
    Cycle cycles = 200000;
    Cycle timeout = 0;
    int words = CShiftParams{}.wordsPerPair;
    int phases = CollectiveParams{}.phases;
    int collData = CollectiveParams{}.dataMsgs;
    bool csv = false;
};

using R = RunnerOptions;
constexpr Knob<R> runnerKnobs[] = {
    knob<&R::workload>("workload",
                       "workload kind: heavy, light, cshift, collective, idle"),
    knob<&R::cycles>("cycles", "cycle budget"),
    knob<&R::timeout>(
        "timeout",
        "hard cycle guard; note run.timeout when the workload did not "
        "finish (0 = off)"),
    knob<&R::words>("words", "cshift payload words per pair"),
    knob<&R::phases>("phases",
                     "collective phases (barrier/bcast/reduce rotation)"),
    knob<&R::collData>("collData",
                       "data messages per collective phase per node"),
    knob<&R::csv>("csv", "emit the summary table as CSV too"),
};

std::string
runnerKnobList()
{
    std::string list;
    listKnobs<R>(runnerKnobs, list);
    return list;
}

} // namespace

int
main(int argc, char **argv)
{
    Config conf;
    std::vector<std::string> leftovers = conf.parseArgs(argc, argv);
    std::string jsonPath;
    for (std::size_t i = 0; i < leftovers.size(); ++i) {
        if (leftovers[i] == "--help")
            conf.set("help", true);
        if (leftovers[i] == "--list-knobs") {
            printRaw(experimentKnobList());
            printRaw(runnerKnobList());
            return 0;
        }
        if (leftovers[i] == "--json" && i + 1 < leftovers.size())
            jsonPath = leftovers[i + 1];
    }
    if (conf.getBool("help", false)) {
        printRaw(experimentCliHelp());
        printRaw(knobHelp("runner keys:", runnerKnobList()));
        printRaw("  --json PATH\n      write the JSON run report\n");
        return 0;
    }

    ExperimentConfig cfg = experimentFromConfig(conf);
    RunnerOptions opt;
    readKnobs<R>(conf, runnerKnobs, opt);
    conf.requireAllRead();
    const Cycle cycles = opt.cycles;
    const Cycle timeout = opt.timeout;
    // The guard caps the budget; a workload that needed more cycles
    // shows up as run.timeout=1 in the report instead of running
    // (or hanging) unbounded under a campaign supervisor.
    Cycle budget = cycles;
    if (timeout > 0 && timeout < budget)
        budget = timeout;
    const std::string &workload = opt.workload;

    Experiment exp(cfg);
    CShiftBoard board(exp.numNodes());
    if (workload == "heavy" || workload == "light") {
        SyntheticParams sp = workload == "heavy"
                                 ? SyntheticParams::heavy()
                                 : SyntheticParams::light();
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), sp,
                                   cfg.seed));
    } else if (workload == "cshift") {
        CShiftParams cp;
        cp.wordsPerPair = opt.words;
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            exp.nic(n).setInjectBoard(&board.injected);
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), cp,
                                   board, cfg.seed));
        }
    } else if (workload == "collective") {
        CollectiveParams cp;
        cp.phases = opt.phases;
        cp.dataMsgs = opt.collData;
        // Software mode runs the same tree shape the NIC engines
        // would, so offload vs software compares like for like.
        cp.arity = cfg.coll.arity;
        for (NodeId n = 0; n < exp.numNodes(); ++n)
            exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), exp.numNodes(), cp,
                                   cfg.seed));
    } else if (workload != "idle") {
        fatal("unknown workload '%s' (want heavy, light, cshift, "
              "collective, or idle)",
              workload.c_str());
    }

    Cycle ran;
    if (workload == "cshift" || workload == "collective")
        ran = exp.runUntilDone(budget);
    else
        ran = exp.runFor(budget);

    RunReport rep("run_experiment");
    rep.echoConfig(conf);
    rep.echoConfig("workload", workload);
    exp.fillReport(rep);
    bool hitGuard = timeout > 0 && budget < cycles && !exp.allDone();
    if (hitGuard) {
        rep.addMetric("run.timeout", std::uint64_t(1));
        rep.addNote("TIMEOUT: workload '" + workload +
                    "' did not finish within the timeout=" +
                    std::to_string(timeout) + " cycle guard (ran " +
                    std::to_string(ran) + " of a " +
                    std::to_string(cycles) + "-cycle budget)");
    }
    rep.print(opt.csv);
    if (!jsonPath.empty())
        rep.writeJson(jsonPath);
    return 0;
}
