/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * packet pool recycling, RNG, channel transfer, router stepping
 * (idle and saturated), NIFDY unit stepping, and whole-system
 * cycles/second for the standard 64-node configurations.
 */

#include <benchmark/benchmark.h>

#include "harness/experiment.hh"
#include "sim/log.hh"
#include "sim/report.hh"
#include "traffic/synthetic.hh"

using namespace nifdy;

namespace
{

void
BM_PacketPoolAllocRelease(benchmark::State &state)
{
    PacketPool pool;
    for (auto _ : state) {
        Packet *p = pool.alloc();
        benchmark::DoNotOptimize(p);
        pool.release(p);
    }
}
BENCHMARK(BM_PacketPoolAllocRelease);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_ChannelPushPop(benchmark::State &state)
{
    ChannelParams cp;
    cp.cyclesPerFlit = 1;
    cp.latency = 1;
    Channel ch(cp);
    PacketPool pool;
    Packet *p = pool.alloc();
    p->sizeBytes = 4;
    Cycle t = 0;
    for (auto _ : state) {
        Flit f;
        f.pkt = p;
        f.head = f.tail = true;
        ch.push(f, t);
        t += 2;
        benchmark::DoNotOptimize(ch.pop(t));
    }
    pool.release(p);
}
BENCHMARK(BM_ChannelPushPop);

/** Cost of stepping an idle 64-node network, per simulated cycle. */
void
BM_IdleNetworkCycle(benchmark::State &state)
{
    setQuiet(true);
    NetworkParams np;
    np.numNodes = 64;
    auto net = makeNetwork("fattree", np);
    Kernel kernel;
    net->addToKernel(kernel);
    for (auto _ : state)
        kernel.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdleNetworkCycle);

/** Whole-system simulation speed under heavy synthetic load. */
void
BM_LoadedSystemCycle(benchmark::State &state)
{
    setQuiet(true);
    ExperimentConfig cfg;
    cfg.topology = state.range(0) == 0 ? "mesh2d" : "fattree";
    cfg.numNodes = 64;
    cfg.nicKind = NicKind::nifdy;
    cfg.msg.packetWords = 8;
    Experiment exp(cfg);
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(),
                               SyntheticParams::heavy(), 1));
    exp.runFor(5000); // warm up into steady state
    // The simulated rate comes from a fixed, untimed window, so it
    // does not depend on how many iterations the timer picks.
    constexpr Cycle rateWindow = 5000;
    const std::uint64_t before = exp.packetsDelivered();
    exp.runFor(rateWindow);
    const double pktsPerKcycle =
        double(exp.packetsDelivered() - before) * 1000.0 / rateWindow;
    for (auto _ : state)
        exp.kernel().step();
    state.SetItemsProcessed(state.iterations());
    state.counters["pkts/kcycle"] = benchmark::Counter(pktsPerKcycle);
}
BENCHMARK(BM_LoadedSystemCycle)->Arg(0)->Arg(1);

/** NIFDY send-side path: pool insert + eligibility + injection. */
void
BM_NifdySendPath(benchmark::State &state)
{
    setQuiet(true);
    ExperimentConfig cfg;
    cfg.topology = "mesh2d";
    cfg.numNodes = 4;
    cfg.nicKind = NicKind::nifdy;
    Experiment exp(cfg);
    NodeId dst = 1;
    for (auto _ : state) {
        state.PauseTiming();
        // Drain so the pool has room and the OPT is empty.
        while (!exp.nic(0).idle() || !exp.nic(dst).idle()) {
            exp.kernel().step();
            Cycle now = exp.kernel().now();
            if (Packet *p = exp.nic(dst).pollReceive(now))
                exp.pool().release(p);
        }
        Packet *p = exp.pool().alloc();
        p->src = 0;
        p->dst = dst;
        p->sizeBytes = 32;
        state.ResumeTiming();
        exp.nic(0).send(p, exp.kernel().now());
        exp.kernel().step();
    }
}
BENCHMARK(BM_NifdySendPath);

/**
 * Console reporter that additionally captures per-benchmark
 * nanoseconds/iteration so `--json` can emit them as a RunReport.
 */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &r : report)
            if (!r.error_occurred)
                runs.emplace_back(r.benchmark_name(),
                                  r.GetAdjustedRealTime());
        ConsoleReporter::ReportRuns(report);
    }

    std::vector<std::pair<std::string, double>> runs;
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel off `--json PATH` before google-benchmark sees the args.
    std::string jsonPath;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
            continue;
        }
        rest.push_back(argv[i]);
    }
    int restArgc = static_cast<int>(rest.size());
    benchmark::Initialize(&restArgc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(restArgc, rest.data()))
        return 1;
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!jsonPath.empty()) {
        RunReport rep("bench_micro_nifdy");
        for (const auto &run : reporter.runs)
            rep.addMetric("micro.ns." + run.first, run.second);
        rep.writeJson(jsonPath);
    }
    return 0;
}
