/**
 * @file
 * Single-workload runner of the layered simulator benchmark.
 *
 * Builds every experiment through the public harness path users take
 * (key=value Config -> experimentFromConfig -> Experiment ->
 * setWorkload) and measures it from outside, by timing calls into
 * public functions; nothing in src/ is instrumented. One invocation
 * runs one workload in one mode and prints one JSON object of raw
 * samples on stdout; perfbench/run.py turns those into metrics.
 *
 * Modes:
 *   plain   repeated kernel-driven reps (Experiment::runFor /
 *           runUntilDone) for the end-to-end host metrics
 *   traced  kernel-driven reference reps, plus reps in which this
 *           runner steps every component itself, in the order the
 *           Experiment registers them, timing each step with chained
 *           clock reads into one span per layer per 1,000-cycle chunk;
 *           and one kernel-driven rep with profile.enabled=true, whose
 *           Profiler accounts give the steps the kernel really takes
 *           and the kernel loop's own host time
 *   audit   one short audit=true pass (invariant checkers attached)
 *
 * Usage: nifdy_perfbench --workload NAME --mode plain|traced|audit
 *            [--seed N] [--seconds S] [--short] [--spans PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "nic/nifdy.hh"
#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace nifdy;

namespace
{

using Clock = std::chrono::steady_clock;

/** Simulated cycles per chunk: the unit of every per-kcycle figure. */
constexpr Cycle chunkCycles = 1000;
/** A run to completion that is still going after this many cycles
 * has failed. */
constexpr Cycle completionGuard = 5000000;
/** setup_s is a median over at least this many set-ups per process,
 * and over more (up to maxSetups) until they add up to
 * setupTopUpSeconds, so a sub-millisecond set-up is still steady. */
constexpr std::size_t minSetups = 11;
constexpr std::size_t maxSetups = 4001;
constexpr double setupTopUpSeconds = 0.25;

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

double
secondsSince(Clock::time_point t0)
{
    return double(nsBetween(t0, Clock::now())) * 1e-9;
}

//! @name Machine-speed calibration
//! @{

/** Interval of timed simulation between calibration slices. */
constexpr std::uint64_t sliceEveryNs = 40000000;
/** Rounds over every calibration cell in one slice (about 2.4 ms on
 * the reference machine). */
constexpr int sliceRounds = 200;
/** Median slice time on the reference machine, a 4-vCPU 2.1 GHz Xeon
 * VM: host times are reported as if measured there. */
constexpr double refSliceNs = 2.4e6;

/** A small component of the calibration loop. */
struct CalCell
{
    virtual ~CalCell() = default;
    virtual std::uint32_t step(std::uint32_t x) = 0;
};

struct CalRingCell : CalCell
{
    std::uint32_t ring[8] = {};
    unsigned head = 0;

    std::uint32_t step(std::uint32_t x) override
    {
        ring[head++ & 7] = x;
        return ring[(x >> 3) & 7] + x;
    }
};

struct CalMixCell : CalCell
{
    std::uint32_t acc = 1;

    std::uint32_t step(std::uint32_t x) override
    {
        if (x & 1)
            acc = acc * 2654435761u + x;
        else
            acc ^= x >> 2;
        return acc;
    }
};

/**
 * Measures how fast the machine is right now, with a fixed slice of
 * host work that shares no code with src/: virtual calls on 1,024
 * small objects interleaved with a walk of a 128 KB random
 * permutation, the access pattern of a cycle loop over components.
 *
 * The shared machine this benchmark was built on changed speed by up
 * to a third over tens of minutes, in thread CPU time as much as in
 * wall time. Slices interleaved with the timed chunks slow down with
 * it (per-rep correlation about 0.9 in a heavy64 trial), so run.py
 * multiplies every host time by speed() and reports it as measured
 * on the reference machine. A change to the simulator cannot move
 * the slices.
 */
class Calibrator
{
  public:
    Calibrator() : next_(1u << 15)
    {
        std::mt19937 g(12345);
        std::iota(next_.begin(), next_.end(), 0u);
        // Sattolo's shuffle: one cycle through every entry.
        for (std::size_t i = next_.size() - 1; i > 0; --i)
            std::swap(next_[i], next_[g() % i]);
        for (int i = 0; i < 1024; ++i) {
            if (g() & 1)
                cells_.push_back(std::make_unique<CalRingCell>());
            else
                cells_.push_back(std::make_unique<CalMixCell>());
        }
        last_ = Clock::now();
    }

    /** Run one slice once sliceEveryNs has passed since the last
     * one. @return the host time to leave out of the timing. */
    std::uint64_t maybeSlice(Clock::time_point now)
    {
        if (nsBetween(last_, now) < sliceEveryNs)
            return 0;
        slice();
        last_ = Clock::now();
        return nsBetween(now, last_);
    }

    void slice()
    {
        const auto t0 = Clock::now();
        std::uint32_t i = 0;
        std::uint32_t x = 0;
        for (int round = 0; round < sliceRounds; ++round)
            for (const auto &c : cells_) {
                i = next_[i ^ (x & 1023u)];
                x = c->step(x + i);
            }
        sink_ = x;
        slicesNs_.push_back(double(nsBetween(t0, Clock::now())));
    }

    const std::vector<double> &slicesNs() const { return slicesNs_; }

    /** Machine speed relative to the reference machine (> 1 = faster),
     * from the median slice. */
    double speed() const
    {
        std::vector<double> v = slicesNs_;
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return refSliceNs / v[v.size() / 2];
    }

  private:
    std::vector<std::uint32_t> next_;
    std::vector<std::unique_ptr<CalCell>> cells_;
    Clock::time_point last_;
    volatile std::uint32_t sink_ = 0;
    std::vector<double> slicesNs_;
};

//! @}

enum class Traffic { heavy, light, cshift };

struct WorkloadSpec
{
    std::string name;
    /** key=value knobs handed to experimentFromConfig(). */
    std::vector<std::string> knobs;
    Traffic traffic = Traffic::heavy;
    int packetWords = 8;
    Cycle warmup = 0;
    /** Timed window; 0 = run the pattern to completion and drain. */
    Cycle window = 0;
    int cshiftWords = 120;
    /** Distinct inputs per run (see inputSeed()). The simulated
     * metrics pool them, so one seed's tail-latency luck does not
     * decide the figure. */
    int inputs = 1;
};

/** Experiment seed of input @p k of benchmark seed @p seed. Input 0
 * is the seed itself. */
std::uint64_t
inputSeed(std::uint64_t seed, int k)
{
    return seed + std::uint64_t(k) * 1000003u;
}

const char *const observerKnobs[] = {"anatomy.enabled=true",
                                     "congestion.enabled=true"};

bool
isObserved(const WorkloadSpec &spec)
{
    return std::find(spec.knobs.begin(), spec.knobs.end(),
                     observerKnobs[0]) != spec.knobs.end();
}

WorkloadSpec
findWorkload(const std::string &name, bool shortMode)
{
    // Short mode (the self-check) keeps each workload's shape but
    // shrinks its window, so every workload runs in about a second.
    const Cycle scale = shortMode ? 10 : 1;
    WorkloadSpec s;
    s.name = name;
    if (name == "heavy64" || name == "heavy64-observed") {
        s.knobs = {"topology=fattree", "nodes=64", "nic=nifdy"};
        s.traffic = Traffic::heavy;
        s.packetWords = 8;
        s.warmup = 4000 / scale;
        s.window = 40000 / scale;
        s.inputs = 8;
        if (name == "heavy64-observed")
            s.knobs.insert(s.knobs.end(), std::begin(observerKnobs),
                           std::end(observerKnobs));
    } else if (name == "sparse256") {
        s.knobs = {"topology=fattree", "nodes=256", "nic=nifdy"};
        s.traffic = Traffic::light;
        s.packetWords = 8;
        s.warmup = 4000 / scale;
        s.window = 40000 / scale;
        s.inputs = 8;
    } else if (name == "cshift64") {
        s.knobs = {"topology=cm5", "nodes=64", "nic=nifdy",
                   "exploitInOrder=true"};
        s.traffic = Traffic::cshift;
        s.packetWords = 6;
        s.cshiftWords = shortMode ? 12 : 120;
        s.inputs = 2;
    } else {
        fatal("unknown workload '%s' (want heavy64, sparse256, "
              "cshift64, heavy64-observed)",
              name.c_str());
    }
    return s;
}

/** The same traffic with the anatomy and congestion observers
 * toggled: the other side of sim.observer_delta_ms. */
WorkloadSpec
observerTwin(const WorkloadSpec &spec)
{
    WorkloadSpec t = spec;
    if (isObserved(spec)) {
        t.knobs.resize(t.knobs.size() - std::size(observerKnobs));
        t.name = "heavy64";
    } else {
        t.knobs.insert(t.knobs.end(), std::begin(observerKnobs),
                       std::end(observerKnobs));
        t.name = spec.name + "+observers";
    }
    return t;
}

/** Host seconds of each set-up phase. */
struct HarnessTimes
{
    double parse = 0;
    double construct = 0;
    double attach = 0;
    double warmup = 0;

    double total() const { return parse + construct + attach + warmup; }
};

/** One constructed, warmed-up experiment. */
struct Run
{
    /** Declared before exp: the NICs and workloads point into it. */
    std::unique_ptr<CShiftBoard> board;
    std::unique_ptr<Experiment> exp;
    HarnessTimes times;
};

Run
setUp(const WorkloadSpec &spec, std::uint64_t seed, bool audit)
{
    Run r;
    const auto t0 = Clock::now();
    std::vector<std::string> args{"nifdy_perfbench"};
    args.insert(args.end(), spec.knobs.begin(), spec.knobs.end());
    args.push_back("seed=" + std::to_string(seed));
    if (audit)
        args.push_back("audit=true");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    Config conf;
    conf.parseArgs(static_cast<int>(argv.size()), argv.data());
    ExperimentConfig cfg = experimentFromConfig(conf);
    cfg.msg.packetWords = spec.packetWords;
    const auto t1 = Clock::now();

    r.exp = std::make_unique<Experiment>(cfg);
    Experiment &exp = *r.exp;
    const auto t2 = Clock::now();

    const int nodes = exp.numNodes();
    if (spec.traffic == Traffic::cshift) {
        CShiftParams cp;
        cp.wordsPerPair = spec.cshiftWords;
        r.board = std::make_unique<CShiftBoard>(nodes);
        for (NodeId n = 0; n < nodes; ++n) {
            exp.nic(n).setInjectBoard(&r.board->injected);
            exp.setWorkload(n, std::make_unique<CShiftWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), nodes, cp, *r.board,
                                   cfg.seed));
        }
    } else {
        SyntheticParams sp = spec.traffic == Traffic::heavy
                                 ? SyntheticParams::heavy()
                                 : SyntheticParams::light();
        for (NodeId n = 0; n < nodes; ++n)
            exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                                   exp.proc(n), exp.msg(n),
                                   exp.barrier(), nodes, sp,
                                   cfg.seed));
    }
    const auto t3 = Clock::now();

    exp.runFor(spec.warmup);
    const auto t4 = Clock::now();

    r.times.parse = double(nsBetween(t0, t1)) * 1e-9;
    r.times.construct = double(nsBetween(t1, t2)) * 1e-9;
    r.times.attach = double(nsBetween(t2, t3)) * 1e-9;
    r.times.warmup = double(nsBetween(t3, t4)) * 1e-9;
    return r;
}

/** Cumulative delivery counters at the start of the timed window. */
struct Mark
{
    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
    std::uint64_t words = 0;
    std::uint64_t sent = 0;
};

Mark
markOf(Experiment &exp)
{
    return {exp.network().totalFlitsSwitched(), exp.packetsDelivered(),
            exp.wordsDelivered(), exp.packetsSent()};
}

/**
 * The kernel's own accounts, read from the Profiler that
 * profile.enabled=true attaches: what Kernel::step really did, as
 * opposed to what the outside-in replay does.
 */
struct KernelAccounts
{
    std::size_t components = 0; //!< steppables the kernel steps
    std::uint64_t routerSteps = 0;
    std::uint64_t nicSteps = 0;
    std::uint64_t procSteps = 0;
    std::uint64_t timedCycles = 0;
    /** Loop time outside every component on timed cycles: the audit,
     * metrics and self phases. */
    std::uint64_t loopNs = 0;

    KernelAccounts operator-(const KernelAccounts &o) const
    {
        return {components,
                routerSteps - o.routerSteps,
                nicSteps - o.nicSteps,
                procSteps - o.procSteps,
                timedCycles - o.timedCycles,
                loopNs - o.loopNs};
    }
};

KernelAccounts
accountsOf(const Profiler &p)
{
    KernelAccounts k;
    k.components = p.numComponents();
    for (std::size_t c = 0; c < p.classes().size(); ++c) {
        const std::string &cls = p.classes()[c];
        if (cls == "router")
            k.routerSteps += p.classSteps(c);
        else if (cls == "nifdy-nic" || cls == "plain-nic")
            k.nicSteps += p.classSteps(c);
        else if (cls == "proc")
            k.procSteps += p.classSteps(c);
    }
    k.timedCycles = p.timedCycles();
    k.loopNs = p.phaseNs(ProfPhase::audit) + p.phaseNs(ProfPhase::metrics) +
               p.phaseNs(ProfPhase::self);
    return k;
}

/** The simulated outcome of the timed window: exact and
 * host-independent, so reps, the traced replay and observer twins
 * must all agree on it bit for bit. */
struct Fingerprint
{
    Cycle cycles = 0;     //!< cycles simulated after set-up
    Cycle completion = 0; //!< cycles until allDone() (= cycles when windowed)
    std::uint64_t flits = 0;
    std::uint64_t packets = 0;
    std::uint64_t words = 0;
    double latP50 = 0;
    double latP99 = 0;

    bool operator==(const Fingerprint &) const = default;
};

Fingerprint
fingerprintOf(Experiment &exp, const Mark &m, Cycle cycles,
              Cycle completion)
{
    Fingerprint f;
    f.cycles = cycles;
    f.completion = completion;
    f.flits = exp.network().totalFlitsSwitched() - m.flits;
    f.packets = exp.packetsDelivered() - m.packets;
    f.words = exp.wordsDelivered() - m.words;
    const Distribution lat = exp.mergedLatency();
    f.latP50 = lat.percentile(0.50);
    f.latP99 = lat.percentile(0.99);
    return f;
}

void
writeFingerprint(JsonWriter &w, const char *key, const Fingerprint &f)
{
    w.key(key);
    w.beginObject();
    w.field("cycles", std::uint64_t(f.cycles));
    w.field("completion", std::uint64_t(f.completion));
    w.field("flits", f.flits);
    w.field("packets", f.packets);
    w.field("words", f.words);
    w.field("lat_p50", f.latP50);
    w.field("lat_p99", f.latP99);
    w.endObject();
}

/** Outcome checks a finished rep must pass. */
struct Checks
{
    std::vector<std::string> failures;

    void require(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Run-to-completion ending: every workload done, every data packet
 * delivered, and the fabric drained. */
void
checkCompletion(Experiment &exp, const Mark &m, bool finished,
                Checks &c)
{
    c.require(finished, "run hit the completion guard");
    c.require(exp.allDone(), "allDone() is false at the end");
    c.require(exp.packetsDelivered() - m.packets ==
                  exp.packetsSent() - m.sent,
              "packetsDelivered() != packetsSent()");
    c.require(exp.drained(), "drained() is false at the end");
}

/** A kernel-driven rep: what a user's run does. */
struct PlainRep
{
    HarnessTimes setup;
    int input = 0;
    double runSeconds = 0;
    Fingerprint fp;
    Distribution latency; //!< mergedLatency() at the end
    std::vector<double> chunkMs; //!< full 1,000-cycle chunks only
    /** Over the timed window; zero unless profile.enabled=true. */
    KernelAccounts kernel;
    Checks checks;
};

/** A kernel-driven rep. With @p cal, calibration slices run between
 * chunks, left out of every timing. */
PlainRep
runPlain(const WorkloadSpec &spec, std::uint64_t seed,
         Calibrator *cal = nullptr)
{
    PlainRep rep;
    Run r = setUp(spec, seed, false);
    Experiment &exp = *r.exp;
    rep.setup = r.times;
    const Mark m = markOf(exp);
    const Profiler *prof = exp.profiler();
    const KernelAccounts k0 = prof ? accountsOf(*prof) : KernelAccounts{};
    Cycle ran = 0;
    Cycle completion = 0;
    bool finished = true;
    std::uint64_t runNs = 0;
    auto chunkStart = Clock::now();
    // Closes the current timed segment; a calibration slice may run
    // before the next one opens.
    auto closeChunk = [&](bool full) {
        const auto t = Clock::now();
        const std::uint64_t ns = nsBetween(chunkStart, t);
        runNs += ns;
        if (full)
            rep.chunkMs.push_back(double(ns) * 1e-6);
        chunkStart = t;
        if (cal && cal->maybeSlice(t) > 0)
            chunkStart = Clock::now();
    };
    if (spec.window > 0) {
        while (ran < spec.window) {
            ran += exp.runFor(std::min(chunkCycles, spec.window - ran));
            closeChunk(true);
        }
        completion = ran;
    } else {
        bool done = false;
        for (;;) {
            Cycle left = chunkCycles;
            if (!done) {
                const Cycle n = exp.runUntilDone(left);
                ran += n;
                left -= n;
                if (exp.allDone()) {
                    done = true;
                    completion = ran;
                }
            }
            // Drain tail: acks and piggyback holds still in flight.
            while (done && left > 0 && !exp.drained()) {
                ran += exp.runFor(1);
                --left;
            }
            closeChunk(left == 0);
            if (done && exp.drained())
                break;
            if (ran >= completionGuard) {
                finished = false;
                break;
            }
        }
    }
    rep.runSeconds = double(runNs) * 1e-9;
    rep.fp = fingerprintOf(exp, m, ran, completion);
    rep.latency = exp.mergedLatency();
    if (prof)
        rep.kernel = accountsOf(*prof) - k0;
    if (spec.window == 0)
        checkCompletion(exp, m, finished, rep.checks);
    return rep;
}

//! @name Outside-in span recorder
//! @{

enum Layer { layerRouter, layerNic, layerProc, layerCongestion,
             numLayers };

const char *const layerNames[numLayers] = {"net.router", "nic", "proc",
                                           "sim.congestion"};

/**
 * One span per layer per chunk, parented to the chunk's own span.
 * A layer's steps interleave within a chunk, so its span carries the
 * chunk's interval and the summed duration of its step calls; the
 * chunk's self time (the replay loop itself) is its duration minus
 * what its children cover.
 */
struct Span
{
    std::uint32_t run = 0;
    std::uint32_t chunk = 0;
    int layer = -1; //!< -1 = the chunk span (parent of the others)
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t busyNs = 0;
    std::uint64_t steps = 0;  //!< step calls; cycles for a chunk span
    std::uint64_t useful = 0; //!< steps that changed public state
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

    std::uint64_t offset(Clock::time_point t) const
    {
        return nsBetween(epoch_, t);
    }

    void add(const Span &s) { spans_.push_back(s); }

    /** Write every span as one JSON line (at the end of the run). */
    void writeJsonl(const std::string &path) const
    {
        std::ofstream out(path);
        for (const Span &s : spans_) {
            JsonWriter w;
            w.beginObject();
            w.field("run", unsigned(s.run));
            w.field("chunk", unsigned(s.chunk));
            w.field("name", s.layer < 0 ? "chunk" : layerNames[s.layer]);
            w.field("parent", s.layer < 0 ? "" : "chunk");
            w.field("start_ns", s.startNs);
            w.field("end_ns", s.endNs);
            w.field("busy_ns", s.busyNs);
            w.field("steps", s.steps);
            w.field("useful", s.useful);
            w.endObject();
            out << w.str() << '\n';
        }
    }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

//! @}

/** Per-layer totals of one traced rep. */
struct LayerTotals
{
    std::uint64_t ns = 0;
    std::uint64_t steps = 0;
    std::uint64_t useful = 0;
};

/** Summed public NIFDY counters across every NIC. */
struct NicCounters
{
    std::uint64_t acksSent = 0;
    std::uint64_t acksPiggybacked = 0;
    std::uint64_t bulkGrants = 0;
    std::uint64_t bulkRejects = 0;
    std::uint64_t bulkPackets = 0;
};

NicCounters
nicCountersOf(const std::vector<NifdyNic *> &nics)
{
    NicCounters c;
    for (const NifdyNic *n : nics) {
        c.acksSent += n->acksSent();
        c.acksPiggybacked += n->acksPiggybacked();
        c.bulkGrants += n->bulkGrants();
        c.bulkRejects += n->bulkRejects();
        c.bulkPackets += n->bulkPacketsSent();
    }
    return c;
}

/** A NIC's public state; a step that changes it did useful work. */
struct NicState
{
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    int arrivals = 0;
    int opt = 0;
    int pool = 0;
    std::uint64_t acks = 0;

    bool operator==(const NicState &) const = default;
};

NicState
nicStateOf(const Nic &nic, const NifdyNic *nn)
{
    NicState s;
    s.sent = nic.packetsSent();
    s.delivered = nic.packetsDelivered();
    s.arrivals = nic.arrivalsPending();
    if (nn) {
        s.opt = nn->optOccupancy();
        s.pool = nn->poolOccupancy();
        s.acks = nn->acksSent() + nn->acksPiggybacked();
    }
    return s;
}

/** A traced rep: the runner steps the components itself. */
struct TracedRep
{
    HarnessTimes setup;
    double runSeconds = 0;
    Fingerprint fp;
    /** Components the replay steps per cycle. */
    std::size_t components = 0;
    /** Fingerprint after the first prefixCycles (0 = not taken). */
    Fingerprint prefixFp;
    Cycle prefixCycles = 0;
    LayerTotals layer[numLayers];
    /** Router + NIC step time over the first prefixCycles. */
    std::uint64_t prefixRouterNicNs = 0;
    /** Congestion step time over the first prefixCycles. */
    std::uint64_t prefixCongestionNs = 0;
    /** Chunk-edge occupancy sums and their sample count. */
    double bufferedPerRouter = 0;
    double inflightPerChannel = 0;
    double optPerNic = 0;
    double poolPerNic = 0;
    double arrivalsPerNic = 0;
    std::uint64_t edgeSamples = 0;
    std::uint64_t procBusy = 0;
    NicCounters counters;
    std::uint64_t sent = 0;
    Checks checks;
};

/**
 * Replay the cycle loop exactly as Kernel::step() would run it for
 * the Experiment's registration order: every router, then per node
 * its NIC and processor, then the congestion observer when on.
 * Components use their kernel pointer only for noteActivity(), so
 * the replay simulates the same machine. @p limit > 0 stops after
 * that many cycles (observer-twin prefix); otherwise the spec's
 * window (or completion) applies.
 */
TracedRep
runTraced(const WorkloadSpec &spec, std::uint64_t seed,
          std::uint32_t runId, Cycle limit, Cycle prefix,
          SpanRecorder &rec)
{
    TracedRep rep;
    Run r = setUp(spec, seed, false);
    Experiment &exp = *r.exp;
    rep.setup = r.times;
    Network &net = exp.network();

    std::vector<Router *> routers;
    for (int i = 0; i < net.numRouters(); ++i)
        routers.push_back(&net.router(i));
    const int nodes = exp.numNodes();
    std::vector<Nic *> nics;
    std::vector<NifdyNic *> nnics;
    std::vector<Processor *> procs;
    for (NodeId n = 0; n < nodes; ++n) {
        nics.push_back(&exp.nic(n));
        nnics.push_back(dynamic_cast<NifdyNic *>(&exp.nic(n)));
        procs.push_back(&exp.proc(n));
    }
    std::vector<NifdyNic *> presentNnics;
    for (NifdyNic *nn : nnics)
        if (nn)
            presentNnics.push_back(nn);
    CongestionObserver *cong = exp.congestion();
    rep.components = routers.size() + 2 * std::size_t(nodes) + (cong ? 1 : 0);

    const Mark m = markOf(exp);
    const NicCounters c0 = nicCountersOf(presentNnics);
    const bool toCompletion = spec.window == 0;
    const Cycle target = limit > 0 ? limit : spec.window;
    Cycle now = exp.kernel().now();
    Cycle ran = 0;
    Cycle completion = 0;
    bool done = false;
    bool finished = true;
    bool stop = false;
    std::uint64_t procBusy0 = 0;
    for (const Processor *p : procs)
        procBusy0 += p->cyclesBusy() + p->sends() + p->receives();

    const auto start = Clock::now();
    for (std::uint32_t chunk = 0; !stop; ++chunk) {
        LayerTotals acc[numLayers];
        const auto chunkStart = Clock::now();
        Cycle inChunk = 0;
        for (; inChunk < chunkCycles; ++inChunk) {
            if (toCompletion) {
                if (!done && exp.allDone()) {
                    done = true;
                    completion = ran;
                }
                if (done && exp.drained()) {
                    stop = true;
                    break;
                }
                if (ran >= completionGuard) {
                    finished = false;
                    stop = true;
                    break;
                }
            }
            if (target > 0 && ran >= target) {
                stop = true;
                break;
            }
            // Chained clock: each read closes one step's interval and
            // opens the next.
            auto t = Clock::now();
            for (Router *rt : routers) {
                const std::uint64_t f0 = rt->flitsSwitched();
                const int b0 = rt->bufferedFlits();
                rt->step(now);
                const auto t1 = Clock::now();
                LayerTotals &a = acc[layerRouter];
                a.ns += nsBetween(t, t1);
                ++a.steps;
                if (rt->flitsSwitched() != f0 ||
                    rt->bufferedFlits() != b0)
                    ++a.useful;
                t = t1;
            }
            for (NodeId n = 0; n < nodes; ++n) {
                Nic *nic = nics[n];
                const NicState s0 = nicStateOf(*nic, nnics[n]);
                nic->step(now);
                auto t1 = Clock::now();
                LayerTotals &a = acc[layerNic];
                a.ns += nsBetween(t, t1);
                ++a.steps;
                if (!(nicStateOf(*nic, nnics[n]) == s0))
                    ++a.useful;
                t = t1;

                Processor *p = procs[n];
                const std::uint64_t p0 =
                    p->cyclesBusy() + p->sends() + p->receives();
                p->step(now);
                t1 = Clock::now();
                LayerTotals &pa = acc[layerProc];
                pa.ns += nsBetween(t, t1);
                ++pa.steps;
                if (p->cyclesBusy() + p->sends() + p->receives() != p0)
                    ++pa.useful;
                t = t1;
            }
            if (cong) {
                cong->step(now);
                const auto t1 = Clock::now();
                LayerTotals &a = acc[layerCongestion];
                a.ns += nsBetween(t, t1);
                ++a.steps;
                ++a.useful;
            }
            ++now;
            ++ran;
            if (prefix > 0 && ran == prefix) {
                rep.prefixFp = fingerprintOf(exp, m, ran, ran);
                rep.prefixCycles = ran;
            }
        }
        const auto chunkEnd = Clock::now();
        if (inChunk == 0)
            break;

        Span parent;
        parent.run = runId;
        parent.chunk = chunk;
        parent.startNs = rec.offset(chunkStart);
        parent.endNs = rec.offset(chunkEnd);
        parent.busyNs = nsBetween(chunkStart, chunkEnd);
        parent.steps = inChunk;
        rec.add(parent);
        const bool inPrefix = prefix > 0 && ran <= prefix;
        for (int l = 0; l < numLayers; ++l) {
            Span s = parent;
            s.layer = l;
            s.busyNs = acc[l].ns;
            s.steps = acc[l].steps;
            s.useful = acc[l].useful;
            rec.add(s);
            rep.layer[l].ns += acc[l].ns;
            rep.layer[l].steps += acc[l].steps;
            rep.layer[l].useful += acc[l].useful;
        }
        if (inPrefix) {
            rep.prefixRouterNicNs +=
                acc[layerRouter].ns + acc[layerNic].ns;
            rep.prefixCongestionNs += acc[layerCongestion].ns;
        }

        // Occupancy, sampled at chunk edges.
        rep.bufferedPerRouter +=
            double(net.totalBufferedFlits()) / double(routers.size());
        rep.inflightPerChannel +=
            double(net.totalInFlightFlits()) / double(net.numChannels());
        double opt = 0, pool = 0, arrivals = 0;
        for (NodeId n = 0; n < nodes; ++n) {
            arrivals += nics[n]->arrivalsPending();
            if (nnics[n]) {
                opt += nnics[n]->optOccupancy();
                pool += nnics[n]->poolOccupancy();
            }
        }
        rep.optPerNic += opt / nodes;
        rep.poolPerNic += pool / nodes;
        rep.arrivalsPerNic += arrivals / nodes;
        ++rep.edgeSamples;
    }
    rep.runSeconds = double(nsBetween(start, Clock::now())) * 1e-9;
    rep.fp = fingerprintOf(exp, m, ran, toCompletion ? completion : ran);
    const NicCounters c1 = nicCountersOf(presentNnics);
    rep.counters = {c1.acksSent - c0.acksSent,
                    c1.acksPiggybacked - c0.acksPiggybacked,
                    c1.bulkGrants - c0.bulkGrants,
                    c1.bulkRejects - c0.bulkRejects,
                    c1.bulkPackets - c0.bulkPackets};
    rep.sent = exp.packetsSent() - m.sent;
    std::uint64_t procBusy1 = 0;
    for (const Processor *p : procs)
        procBusy1 += p->cyclesBusy() + p->sends() + p->receives();
    rep.procBusy = procBusy1 - procBusy0;
    if (toCompletion && limit == 0)
        checkCompletion(exp, m, finished, rep.checks);
    return rep;
}

/**
 * Per-layer metrics of one traced rep, named as in BENCHMARK.json.
 * Step counts come from the kernel's own accounts @p k over the same
 * window, so a kernel that skips idle components shows in them; the
 * useful counts come from the replay, which steps everything.
 */
std::map<std::string, double>
layerMetrics(const TracedRep &t, const KernelAccounts &k)
{
    std::map<std::string, double> out;
    const double kc = double(t.fp.cycles) / double(chunkCycles);
    auto perK = [kc](double v) { return kc > 0 ? v / kc : 0.0; };
    auto frac = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const LayerTotals &rt = t.layer[layerRouter];
    const LayerTotals &nc = t.layer[layerNic];
    const LayerTotals &pr = t.layer[layerProc];
    const double edges = double(std::max<std::uint64_t>(t.edgeSamples, 1));

    out["net.router.self_ms"] = perK(double(rt.ns) * 1e-6);
    out["net.router.ns_per_flit"] = frac(double(rt.ns), double(t.fp.flits));
    out["net.router.steps"] = perK(double(k.routerSteps));
    out["net.router.useful_steps"] = perK(double(rt.useful));
    out["net.router.useful_frac"] =
        frac(double(rt.useful), double(k.routerSteps));
    out["net.flits_switched"] = perK(double(t.fp.flits));
    out["net.router.buffered_flits_mean"] = t.bufferedPerRouter / edges;
    out["net.channel.inflight_flits_mean"] = t.inflightPerChannel / edges;

    const NicCounters &c = t.counters;
    out["nic.self_ms"] = perK(double(nc.ns) * 1e-6);
    out["nic.ns_per_packet"] = frac(double(nc.ns), double(t.fp.packets));
    out["nic.steps"] = perK(double(k.nicSteps));
    out["nic.useful_steps"] = perK(double(nc.useful));
    out["nic.useful_frac"] = frac(double(nc.useful), double(k.nicSteps));
    out["nic.packets_sent"] = perK(double(t.sent));
    out["nic.packets_delivered"] = perK(double(t.fp.packets));
    out["nic.acks_sent"] = perK(double(c.acksSent));
    out["nic.acks_piggybacked"] = perK(double(c.acksPiggybacked));
    out["nic.piggyback_frac"] =
        frac(double(c.acksPiggybacked),
             double(c.acksSent + c.acksPiggybacked));
    out["nic.bulk_grants"] = perK(double(c.bulkGrants));
    out["nic.bulk_rejects"] = perK(double(c.bulkRejects));
    out["nic.bulk_grant_frac"] =
        frac(double(c.bulkGrants), double(c.bulkGrants + c.bulkRejects));
    out["nic.bulk_packets"] = perK(double(c.bulkPackets));
    out["nic.opt_occupancy_mean"] = t.optPerNic / edges;
    out["nic.pool_occupancy_mean"] = t.poolPerNic / edges;
    out["nic.arrivals_pending_mean"] = t.arrivalsPerNic / edges;

    out["proc.self_ms"] = perK(double(pr.ns) * 1e-6);
    out["proc.steps"] = perK(double(k.procSteps));
    out["proc.busy_steps"] = perK(double(pr.useful));
    out["proc.busy_frac"] = frac(double(pr.useful), double(k.procSteps));

    // Host time of the kernel loop outside the components, per timed
    // cycle scaled to a kcycle.
    out["sim.kernel.self_ms"] =
        frac(double(k.loopNs), double(k.timedCycles)) *
        double(chunkCycles) * 1e-6;
    return out;
}

//! @name JSON output helpers
//! @{

void
writeTimes(JsonWriter &w, const HarnessTimes &h)
{
    w.key("setup");
    w.beginObject();
    w.field("parse_s", h.parse);
    w.field("construct_s", h.construct);
    w.field("attach_s", h.attach);
    w.field("warmup_s", h.warmup);
    w.field("total_s", h.total());
    w.endObject();
}

void
writeFailures(JsonWriter &w, const std::vector<std::string> &fails)
{
    w.key("failures");
    w.beginArray();
    for (const std::string &f : fails)
        w.value(f);
    w.endArray();
}

/**
 * Peak resident set of this process in MB. VmHWM first: Linux carries
 * getrusage()'s ru_maxrss across exec(), so there it would include the
 * parent's footprint at fork time.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // in kB
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // in KiB
}

void
writeHeader(JsonWriter &w, const WorkloadSpec &spec,
            const std::string &mode, std::uint64_t seed)
{
    w.field("workload", spec.name);
    w.field("mode", mode);
    w.field("seed", seed);
#if defined(__clang__)
    w.field("compiler", "clang " __VERSION__);
#elif defined(__GNUC__)
    w.field("compiler", "g++ " __VERSION__);
#else
    w.field("compiler", __VERSION__);
#endif
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("warmup_cycles", std::uint64_t(spec.warmup));
    w.field("window_cycles", std::uint64_t(spec.window));
}

//! @}

struct Args
{
    std::string workload;
    std::string mode;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool shortMode = false;
    std::string spansPath;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto next = [&]() -> std::string {
            fatal_if(i + 1 >= argc, "%s needs a value", k.c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = next();
        else if (k == "--mode")
            a.mode = next();
        else if (k == "--seed")
            a.seed = std::stoull(next());
        else if (k == "--seconds")
            a.seconds = std::stod(next());
        else if (k == "--short")
            a.shortMode = true;
        else if (k == "--spans")
            a.spansPath = next();
        else
            fatal("unknown argument '%s'", k.c_str());
    }
    fatal_if(a.workload.empty() || a.mode.empty(),
             "usage: nifdy_perfbench --workload NAME --mode "
             "plain|traced|audit [--seed N] [--seconds S] [--short] "
             "[--spans PATH]");
    return a;
}

/** One short pass with the invariant checkers attached: a panic or a
 * checker failure escapes as an exception. */
int
auditMain(const Args &a, const WorkloadSpec &spec)
{
    JsonWriter w;
    w.beginObject();
    writeHeader(w, spec, "audit", a.seed);
    std::vector<std::string> fails;
    Cycle ran = 0;
    try {
        WorkloadSpec s = spec;
        s.warmup = std::min<Cycle>(spec.warmup, 1000);
        Run r = setUp(s, a.seed, true);
        if (r.exp->audit() == nullptr)
            fails.push_back("audit layer did not attach");
        const Cycle budget = a.shortMode ? 2000 : 5000;
        ran = spec.window > 0 ? r.exp->runFor(budget)
                              : r.exp->runUntilDone(budget);
    } catch (const std::exception &e) {
        fails.push_back(std::string("audit pass threw: ") + e.what());
    }
    w.field("cycles", std::uint64_t(ran));
    writeFailures(w, fails);
    w.endObject();
    printRaw(w.str() + "\n");
    return 0;
}

/** Repeated kernel-driven reps for the end-to-end host metrics. */
int
plainMain(const Args &a, const WorkloadSpec &spec)
{
    const auto t0 = Clock::now();
    std::vector<PlainRep> reps;
    std::vector<std::string> fails;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> setups;

    // heavy64-observed must simulate exactly what heavy64 does
    // (checked on input 0).
    bool haveTwin = false;
    Fingerprint twinFp;
    if (isObserved(spec)) {
        ++attempted;
        try {
            twinFp = runPlain(observerTwin(spec), a.seed).fp;
            haveTwin = true;
        } catch (const std::exception &e) {
            ++failed;
            fails.push_back(std::string("observer twin threw: ") +
                            e.what());
        }
    }

    // Round-robin over the inputs until the budget is spent, at least
    // one full round; a repeated input must repeat its fingerprint.
    std::vector<int> firstOf(spec.inputs, -1);
    Calibrator cal;
    double lastRep = 0;
    int k = 0;
    do {
        ++attempted;
        const auto r0 = Clock::now();
        const int input = k++ % spec.inputs;
        try {
            PlainRep rep = runPlain(spec, inputSeed(a.seed, input), &cal);
            rep.input = input;
            Checks &c = rep.checks;
            if (firstOf[input] >= 0)
                c.require(rep.fp == reps[firstOf[input]].fp,
                          "fingerprint differs from an earlier rep of "
                          "the same input");
            if (haveTwin && input == 0)
                c.require(rep.fp == twinFp,
                          "fingerprint differs from the observer-off "
                          "twin");
            if (!c.failures.empty()) {
                ++failed;
                fails.insert(fails.end(), c.failures.begin(),
                             c.failures.end());
            }
            setups.push_back(rep.setup.total());
            if (firstOf[input] < 0)
                firstOf[input] = static_cast<int>(reps.size());
            reps.push_back(std::move(rep));
        } catch (const std::exception &e) {
            ++failed;
            fails.push_back(std::string("rep threw: ") + e.what());
        }
        lastRep = secondsSince(r0);
    } while ((k < spec.inputs || secondsSince(t0) + lastRep <= a.seconds) &&
             failed == 0);

    // setup_s is a median: top the set-up samples up with set-up-only
    // passes when few reps fit the budget (long runs to completion).
    double setupSum = 0;
    for (double s : setups)
        setupSum += s;
    while (failed == 0 && setups.size() < maxSetups &&
           (setups.size() < minSetups || setupSum < setupTopUpSeconds)) {
        setups.push_back(setUp(spec, a.seed, false).times.total());
        setupSum += setups.back();
    }
    while (cal.slicesNs().size() < 3)
        cal.slice();

    JsonWriter w;
    w.beginObject();
    writeHeader(w, spec, "plain", a.seed);
    w.field("inputs", spec.inputs);
    // The simulated outcome pooled over the first rep of each input.
    Distribution pooled;
    std::uint64_t words = 0;
    Cycle completion = 0;
    int pooledInputs = 0;
    for (int i : firstOf) {
        if (i < 0)
            continue;
        pooled.merge(reps[i].latency);
        words += reps[i].fp.words;
        completion += reps[i].fp.completion;
        ++pooledInputs;
    }
    w.key("pooled");
    w.beginObject();
    w.field("inputs", pooledInputs);
    w.field("words", words);
    w.field("completion", std::uint64_t(completion));
    w.field("lat_p50", pooled.percentile(0.50));
    w.field("lat_p99", pooled.percentile(0.99));
    w.endObject();
    w.field("attempted", attempted);
    w.field("failed", failed);
    writeFailures(w, fails);
    w.key("calibration");
    w.beginObject();
    w.field("slices", std::uint64_t(cal.slicesNs().size()));
    w.field("ref_slice_ns", refSliceNs);
    w.field("speed", cal.speed());
    w.endObject();
    w.key("setups_s");
    w.beginArray();
    for (double s : setups)
        w.value(s);
    w.endArray();
    w.key("reps");
    w.beginArray();
    for (const PlainRep &rep : reps) {
        w.beginObject();
        writeTimes(w, rep.setup);
        w.field("run_s", rep.runSeconds);
        w.field("input", rep.input);
        writeFingerprint(w, "fp", rep.fp);
        w.key("chunk_ms");
        w.beginArray();
        for (double c : rep.chunkMs)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.field("peak_rss_mb", peakRssMb());
    w.endObject();
    printRaw(w.str() + "\n");
    return 0;
}

/** Traced reps beside kernel-driven references, plus one profiled
 * kernel-driven rep for the kernel's step and loop accounts and one
 * observer twin over a prefix for sim.observer_delta_ms. */
int
tracedMain(const Args &a, const WorkloadSpec &spec)
{
    const auto t0 = Clock::now();
    SpanRecorder rec(t0);
    std::vector<std::string> fails;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto note = [&](const Checks &c) {
        if (c.failures.empty())
            return;
        ++failed;
        fails.insert(fails.end(), c.failures.begin(), c.failures.end());
    };

    // The twin covers the window, or the first 40 chunks of a run to
    // completion.
    const Cycle prefix =
        spec.window > 0 ? spec.window : (a.shortMode ? 4000 : 40000);
    std::vector<PlainRep> plain;
    std::vector<TracedRep> traced;
    PlainRep profiled;
    bool haveProfiled = false;
    TracedRep twin;
    bool haveTwin = false;
    std::uint32_t runId = 0;
    double lastRound = 0;
    do {
        const auto r0 = Clock::now();
        try {
            ++attempted;
            PlainRep p = runPlain(spec, a.seed);
            if (!plain.empty())
                p.checks.require(p.fp == plain.front().fp,
                                 "kernel-driven fingerprint differs "
                                 "from rep 0");
            note(p.checks);
            plain.push_back(std::move(p));

            ++attempted;
            TracedRep t = runTraced(spec, a.seed, runId++, 0, prefix, rec);
            t.checks.require(t.fp == plain.front().fp,
                             "traced replay fingerprint differs from "
                             "the kernel-driven run");
            note(t.checks);
            traced.push_back(std::move(t));

            if (!haveProfiled) {
                ++attempted;
                WorkloadSpec ps = spec;
                ps.knobs.push_back("profile.enabled=true");
                profiled = runPlain(ps, a.seed);
                haveProfiled = true;
                Checks &c = profiled.checks;
                c.require(profiled.fp == plain.front().fp,
                          "profiled kernel run fingerprint differs from "
                          "the unprofiled one");
                // The replay mirrors Experiment's registration order;
                // a steppable it does not know about would make it
                // simulate another machine.
                c.require(profiled.kernel.components ==
                              traced.front().components,
                          "the kernel steps " +
                              std::to_string(profiled.kernel.components) +
                              " components but the replay steps " +
                              std::to_string(traced.front().components) +
                              ": runTraced no longer follows Experiment's "
                              "registration order");
                note(c);
            }

            if (!haveTwin) {
                ++attempted;
                twin = runTraced(observerTwin(spec), a.seed, runId++,
                                 prefix, prefix, rec);
                haveTwin = true;
                Checks c;
                c.require(twin.prefixCycles == prefix &&
                              traced.front().prefixCycles == prefix,
                          "a replay ended before the observer-twin "
                          "prefix");
                c.require(twin.prefixFp == traced.front().prefixFp,
                          "observer twin fingerprint differs over the "
                          "prefix");
                note(c);
            }
        } catch (const std::exception &e) {
            ++failed;
            fails.push_back(std::string("rep threw: ") + e.what());
        }
        lastRound = secondsSince(r0);
    } while (secondsSince(t0) + lastRound <= a.seconds && failed == 0);

    JsonWriter w;
    w.beginObject();
    writeHeader(w, spec, "traced", a.seed);
    w.field("attempted", attempted);
    w.field("failed", failed);
    writeFailures(w, fails);
    w.key("plain");
    w.beginArray();
    for (const PlainRep &p : plain) {
        w.beginObject();
        writeTimes(w, p.setup);
        w.field("run_s", p.runSeconds);
        writeFingerprint(w, "fp", p.fp);
        w.endObject();
    }
    w.endArray();
    if (haveProfiled) {
        w.key("profiled");
        w.beginObject();
        w.field("run_s", profiled.runSeconds);
        writeFingerprint(w, "fp", profiled.fp);
        w.endObject();
    }
    w.key("traced");
    w.beginArray();
    for (const TracedRep &t : traced) {
        w.beginObject();
        writeTimes(w, t.setup);
        w.field("run_s", t.runSeconds);
        writeFingerprint(w, "fp", t.fp);
        w.key("layers");
        w.beginObject();
        for (const auto &kv : layerMetrics(t, profiled.kernel))
            w.field(kv.first, kv.second);
        // The observed side minus the plain side, per kcycle, over
        // the common prefix.
        if (haveTwin && twin.prefixCycles > 0 && t.prefixCycles > 0) {
            const bool obs = isObserved(spec);
            const TracedRep &on = obs ? t : twin;
            const TracedRep &off = obs ? twin : t;
            const double kc = double(prefix) / double(chunkCycles);
            w.field("sim.observer_delta_ms",
                    (double(on.prefixRouterNicNs) -
                     double(off.prefixRouterNicNs)) *
                        1e-6 / kc);
            w.field("sim.congestion.self_ms",
                    double(on.prefixCongestionNs) * 1e-6 / kc);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    if (haveTwin) {
        w.key("twin");
        w.beginObject();
        w.field("workload", observerTwin(spec).name);
        writeTimes(w, twin.setup);
        w.field("prefix_cycles", std::uint64_t(twin.prefixCycles));
        w.endObject();
    }
    w.endObject();
    printRaw(w.str() + "\n");
    if (!a.spansPath.empty())
        rec.writeJsonl(a.spansPath);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    try {
        const Args a = parseArgs(argc, argv);
        const WorkloadSpec spec = findWorkload(a.workload, a.shortMode);
        if (a.mode == "audit")
            return auditMain(a, spec);
        if (a.mode == "plain")
            return plainMain(a, spec);
        if (a.mode == "traced")
            return tracedMain(a, spec);
        fatal("unknown mode '%s' (want plain, traced, audit)",
              a.mode.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nifdy_perfbench: %s\n", e.what());
        return 1;
    }
}
