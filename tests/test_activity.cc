/**
 * @file
 * Activity-driven kernel contract (DESIGN.md section 2.1):
 *
 *  - skipping is invisible: a config run under Kernel::run gives the
 *    same delivered/latency fingerprint as an outside-in replay that
 *    steps every component every cycle in registration order (as
 *    perfbench's replay does), and the same nifdy-report-1 as the
 *    kernel's step-every-component reference mode;
 *  - channel wake-ups land exactly at the arrival cycle: a sleeping
 *    router is first stepped when a pushed flit arrives, and a
 *    credit-blocked one when the returned credit becomes visible;
 *  - the deadlock watchdog counts a sleeping busy component's cycles
 *    as active, exactly, including a busy processor cut short by a
 *    crash.
 */

#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "net/router.hh"
#include "proc/workload.hh"
#include "sim/anatomy.hh"
#include "sim/config.hh"
#include "sim/congestion.hh"
#include "sim/fault.hh"
#include "sim/kernel.hh"
#include "sim/report.hh"
#include "traffic/collective.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

//===------------------------------------------------------------===//
// Equivalence: skipping vs stepping every component every cycle
//===------------------------------------------------------------===//

/** One equivalence config: experiment knobs plus a workload. */
struct Case
{
    std::string name;
    std::string workload; //!< heavy, light, cshift, collective
    std::vector<std::pair<std::string, std::string>> knobs;
};

/** gtest prints a Case by its name. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

/** An Experiment with the Case's workload installed on every node,
 * the way examples/run_experiment.cc sets it up. */
struct Rig
{
    explicit Rig(const Case &c)
    {
        Config conf;
        conf.set("topology", std::string("fattree"));
        conf.set("nodes", 16L);
        conf.set("seed", 5L);
        for (const auto &[k, v] : c.knobs)
            conf.set(k, v);
        cfg = experimentFromConfig(conf);
        exp = std::make_unique<Experiment>(cfg);
        board = std::make_unique<CShiftBoard>(exp->numNodes());
        for (NodeId n = 0; n < exp->numNodes(); ++n)
            exp->setWorkload(n, makeWorkload(c.workload, n));
    }

    std::unique_ptr<Workload>
    makeWorkload(const std::string &kind, NodeId n)
    {
        Experiment &e = *exp;
        if (kind == "cshift") {
            CShiftParams cp;
            cp.wordsPerPair = 40;
            e.nic(n).setInjectBoard(&board->injected);
            return std::make_unique<CShiftWorkload>(
                e.proc(n), e.msg(n), e.barrier(), e.numNodes(), cp,
                *board, cfg.seed);
        }
        if (kind == "collective") {
            CollectiveParams cp;
            cp.phases = 3;
            cp.dataMsgs = 1;
            cp.arity = cfg.coll.arity;
            return std::make_unique<CollectiveWorkload>(
                e.proc(n), e.msg(n), e.barrier(), e.numNodes(), cp,
                cfg.seed);
        }
        SyntheticParams sp = kind == "heavy" ? SyntheticParams::heavy()
                                             : SyntheticParams::light();
        return std::make_unique<SyntheticWorkload>(
            e.proc(n), e.msg(n), e.barrier(), e.numNodes(), sp,
            cfg.seed);
    }

    ExperimentConfig cfg;
    std::unique_ptr<Experiment> exp;
    std::unique_ptr<CShiftBoard> board;
};

/** The simulated outcome, independent of the kernel's clock. */
std::string
fingerprint(Experiment &exp)
{
    std::ostringstream os;
    const Distribution lat = exp.mergedLatency();
    os << "sent=" << exp.packetsSent()
       << " delivered=" << exp.packetsDelivered()
       << " words=" << exp.wordsDelivered()
       << " flits=" << exp.network().totalFlitsSwitched()
       << " buffered=" << exp.network().totalBufferedFlits()
       << " inflight=" << exp.network().totalInFlightFlits()
       << " lat.count=" << lat.count() << " lat.sum=" << lat.sum()
       << " lat.max=" << lat.max() << " lat.p50=" << lat.percentile(0.5)
       << " lat.p99=" << lat.percentile(0.99) << " nodes:";
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        os << ' ' << exp.nic(n).packetsDelivered() << '/'
           << exp.nic(n).latency().sum() << '/'
           << exp.nic(n).arrivalsPending() << '/'
           << exp.proc(n).cyclesBusy();
    return os.str();
}

std::string
reportJson(Experiment &exp)
{
    RunReport rep("test_activity");
    exp.fillReport(rep);
    return rep.json(false);
}

/**
 * Step every component every cycle from outside, in Experiment's
 * registration order: routers, the node-fault schedule, each node's
 * NIC and processor, the congestion observer. Pokes the components
 * make at the kernel meanwhile must be harmless.
 */
void
replayEveryCycle(Experiment &exp, Cycle cycles)
{
    Network &net = exp.network();
    Cycle now = exp.kernel().now();
    for (Cycle c = 0; c < cycles; ++c, ++now) {
        for (int i = 0; i < net.numRouters(); ++i)
            net.router(i).step(now);
        if (NodeFaultDriver *d = exp.nodeFaults())
            d->step(now);
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            exp.nic(n).step(now);
            exp.proc(n).step(now);
        }
        if (CongestionObserver *co = exp.congestion())
            co->step(now);
    }
}

class ActivityEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(ActivityEquivalence, SkippingMatchesSteppingEverything)
{
    const Cycle cycles = 8000;
    std::string fpRun, jsonRun, fpAll, jsonAll, fpReplay;
    {
        Rig r(GetParam());
        EXPECT_EQ(r.exp->runFor(cycles), cycles);
        fpRun = fingerprint(*r.exp);
        jsonRun = reportJson(*r.exp);
    }
    {
        Rig r(GetParam());
        r.exp->kernel().setStepAll(true);
        EXPECT_EQ(r.exp->runFor(cycles), cycles);
        fpAll = fingerprint(*r.exp);
        jsonAll = reportJson(*r.exp);
    }
    {
        Rig r(GetParam());
        replayEveryCycle(*r.exp, cycles);
        fpReplay = fingerprint(*r.exp);
    }
    EXPECT_EQ(fpRun.find(" delivered=0 "), std::string::npos)
        << "the config must deliver traffic to prove anything";
    EXPECT_EQ(fpRun, fpReplay);
    EXPECT_EQ(fpRun, fpAll);
    EXPECT_EQ(jsonRun, jsonAll);
}

std::vector<Case>
equivalenceCases()
{
    using K = std::vector<std::pair<std::string, std::string>>;
    return {
        {"heavy_nifdy", "heavy", K{}},
        {"light_nifdy_mesh", "light", K{{"topology", "mesh2d"}}},
        {"cshift_cm5", "cshift", K{{"topology", "cm5"}}},
        {"heavy_lossy", "heavy", K{{"nic", "lossy"}}},
        {"light_lossy_drops", "light",
         K{{"nic", "lossy"}, {"fault.dropProb", "0.03"}}},
        {"heavy_linkdown", "heavy",
         K{{"topology", "mesh2d-adaptive"},
           {"fault.linkDown", "3@500+3000,9@0"}}},
        {"heavy_crash_restart", "heavy",
         K{{"node.crash", "5@2000+2500"}}},
        {"cshift_crash", "cshift", K{{"node.crash", "3@1500+2000"}}},
        {"coll_offload", "collective", K{{"coll.offload", "nic"}}},
        {"observed", "heavy",
         K{{"anatomy.enabled", "true"},
           {"congestion.enabled", "true"}}},
        {"observed_light_buffers", "light",
         K{{"nic", "buffers"},
           {"anatomy.enabled", "true"},
           {"congestion.enabled", "true"}}},
        // Retransmission clones share their original's anatomy
        // record while its head may sit blocked in a router.
        {"observed_lossy_clones", "heavy",
         K{{"topology", "mesh2d"},
           {"nic", "lossy"},
           {"lossy.dropProb", "0.05"},
           {"lossy.retxTimeout", "300"},
           {"anatomy.enabled", "true"},
           {"congestion.enabled", "true"}}},
    };
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ActivityEquivalence,
    ::testing::ValuesIn(equivalenceCases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name;
    });

//===------------------------------------------------------------===//
// Observers: event-driven tiling vs stepping everything
//===------------------------------------------------------------===//

/** The congestion observer's rendered tables after @p cycles. */
struct ObservedTables
{
    std::string links, flows, episodes, blame;
    std::uint64_t opened = 0;
    std::uint64_t closed = 0;
};

ObservedTables
observedTables(const Case &c, bool stepAll, Cycle cycles)
{
    Rig r(c);
    r.exp->kernel().setStepAll(stepAll);
    EXPECT_EQ(r.exp->runFor(cycles), cycles);
    const CongestionObserver *co = r.exp->congestion();
    EXPECT_NE(co, nullptr);
    ObservedTables t;
    if (!co)
        return t;
    // Mid-run reads settle through the current cycle; finish() then
    // closes the books the way a report does.
    t.links = co->linkTable("links").csv();
    r.exp->congestion()->finish(r.exp->kernel().now());
    t.flows = co->flowTable("flows", 1000).csv();
    t.episodes = co->episodeTable("episodes").csv();
    t.opened = co->episodesOpened();
    t.closed = co->episodesClosed();
    if (const Anatomy *an = r.exp->anatomy())
        t.blame = an->blameTable("blame").csv();
    return t;
}

/** Time-sliced CM-5 links: busy cycles come from two per-class
 * serializer slots. */
TEST(ActivityObservers, TimeSlicedLinkTablesMatchSteppingEverything)
{
    const Case c{"cshift_cm5_observed", "cshift",
                 {{"topology", "cm5"},
                  {"anatomy.enabled", "true"},
                  {"congestion.enabled", "true"},
                  {"congestion.window", "128"}}};
    const ObservedTables run = observedTables(c, false, 8000);
    const ObservedTables all = observedTables(c, true, 8000);
    EXPECT_GT(run.opened, 0u);
    EXPECT_EQ(run.links, all.links);
    EXPECT_EQ(run.flows, all.flows);
    EXPECT_EQ(run.episodes, all.episodes);
    EXPECT_EQ(run.blame, all.blame);
}

/** Short windows on heavy traffic: hundreds of episodes open and
 * close, each harvesting its link's per-flow counts. */
TEST(ActivityObservers, ShortWindowEpisodesMatchSteppingEverything)
{
    const Case c{"heavy_window64", "heavy",
                 {{"anatomy.enabled", "true"},
                  {"congestion.enabled", "true"},
                  {"congestion.window", "64"}}};
    const ObservedTables run = observedTables(c, false, 8000);
    const ObservedTables all = observedTables(c, true, 8000);
    EXPECT_GE(run.closed, 200u);
    EXPECT_EQ(run.opened, all.opened);
    EXPECT_EQ(run.links, all.links);
    EXPECT_EQ(run.flows, all.flows);
    EXPECT_EQ(run.episodes, all.episodes);
    EXPECT_EQ(run.blame, all.blame);
}

//===------------------------------------------------------------===//
// Channel wake-ups
//===------------------------------------------------------------===//

/** Router that sends everything to output 0 and logs its steps. */
class LoggingRouter : public Router
{
  public:
    using Router::Router;

    void
    step(Cycle now) override
    {
        steps.push_back(now);
        Router::step(now);
    }

    std::vector<Cycle> steps;

  protected:
    bool
    route(int, Packet &, std::vector<int> &cands) override
    {
        cands.push_back(0);
        return false;
    }
};

class RouterWake : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        RouterParams rp;
        rp.bufDepth = 1;
        router = std::make_unique<LoggingRouter>(0, rp);
        ChannelParams cp;
        cp.cyclesPerFlit = 4;
        cp.latency = 1;
        in = std::make_unique<Channel>(cp);
        out = std::make_unique<Channel>(cp);
        router->addInPort(in.get());
        router->addOutPort(out.get(), rp.bufDepth);
        kernel.add(router.get(), "router");
    }

    /** Push a single-flit packet onto the input at kernel.now(). */
    void
    pushPacket()
    {
        Packet *p = pool.alloc();
        p->dst = 0;
        Flit f;
        f.pkt = p;
        f.head = f.tail = true;
        in->push(f, kernel.now());
    }

    void
    runTo(Cycle end)
    {
        while (kernel.now() < end)
            kernel.step();
    }

    PacketPool pool;
    Kernel kernel;
    std::unique_ptr<LoggingRouter> router;
    std::unique_ptr<Channel> in;
    std::unique_ptr<Channel> out;
};

TEST_F(RouterWake, FlitWakesSleepingRouterAtArrival)
{
    runTo(10);
    // Stepped once at registration, then asleep: it holds nothing.
    ASSERT_EQ(router->steps, std::vector<Cycle>{0});
    pushPacket(); // at cycle 10: arrives at 10 + 4 + 1
    runTo(30);
    ASSERT_GE(router->steps.size(), 2u);
    EXPECT_EQ(router->steps[1], 15u);
    EXPECT_EQ(router->flitsSwitched(), 1u);
    // Forwarded at 15, after which it holds nothing and sleeps.
    EXPECT_EQ(router->steps, (std::vector<Cycle>{0, 15}));
}

TEST_F(RouterWake, CreditWakesCreditBlockedRouterWhenVisible)
{
    pushPacket();
    runTo(5);
    pushPacket(); // serializer busy until 4; this one leaves at 4
    runTo(40);
    // The first packet took the only downstream credit; the second
    // is buffered and blocked on it, so the router sleeps.
    ASSERT_EQ(router->flitsSwitched(), 1u);
    ASSERT_EQ(router->bufferedFlits(), 1);
    const std::size_t stepsBlocked = router->steps.size();
    runTo(60);
    EXPECT_EQ(router->steps.size(), stepsBlocked)
        << "a credit-blocked router must sleep";

    // Drain the first flit and return its credit at cycle 60: it is
    // visible, and the router woken, at 61.
    ASSERT_TRUE(out->hasFlit(kernel.now()));
    Flit f = out->pop(kernel.now());
    out->pushCredit(f.vc, kernel.now());
    runTo(70);
    ASSERT_GT(router->steps.size(), stepsBlocked);
    EXPECT_EQ(router->steps[stepsBlocked], 61u);
    EXPECT_EQ(router->flitsSwitched(), 2u);
    pool.release(f.pkt);
}

//===------------------------------------------------------------===//
// Watchdog accounting for sleeping busy components
//===------------------------------------------------------------===//

/** Busy for 100 cycles from its first step, sleeping throughout;
 * cut() ends the busy period early. */
class BusySleeper : public Steppable
{
  public:
    void
    step(Cycle now) override
    {
        if (!started_) {
            started_ = true;
            holdActive(now + 100);
        }
        sleepUntil(neverCycle);
    }

    void cut(Cycle now) { holdActive(now); }

  private:
    bool started_ = false;
};

/** Calls target.cut() at cycle 10. */
class Cutter : public Steppable
{
  public:
    explicit Cutter(BusySleeper &t) : target_(t) {}

    void
    step(Cycle now) override
    {
        if (now == 10)
            target_.cut(now);
    }

  private:
    BusySleeper &target_;
};

/** Every-cycle stepping would count cycles 0..10 as active when the
 * cut comes after the busy component's turn in cycle 10: 50 idle
 * cycles later, at 61 executed, the quiescent run stops. */
TEST(ActivityWatchdog, CutAfterTurnCountsThatCycle)
{
    Kernel k;
    BusySleeper busy;
    Cutter cutter(busy);
    k.add(&busy);
    k.add(&cutter);
    k.setWatchdogLimit(50);
    EXPECT_EQ(k.run(1000), 61u);
}

/** A component that is always due and never makes progress. */
class Spinner : public Steppable
{
  public:
    void step(Cycle) override {}
};

/** A wedged run's panic names the first few components still due
 * and counts the rest. */
TEST(ActivityWatchdog, PanicNamesTheComponentsStillDue)
{
    Kernel k;
    std::vector<Spinner> spinners(6);
    for (std::size_t i = 0; i < spinners.size(); ++i)
        k.add(&spinners[i], "spinner" + std::to_string(i));
    k.setWatchdogLimit(20);
    EXPECT_THROW(
        {
            try {
                k.run(1000, [] { return false; });
            } catch (const std::logic_error &e) {
                const std::string msg = e.what();
                EXPECT_NE(msg.find("deadlock watchdog"),
                          std::string::npos) << msg;
                EXPECT_NE(msg.find("due: spinner0, spinner1, "
                                   "spinner2, spinner3 +2 more"),
                          std::string::npos) << msg;
                throw;
            }
        },
        std::logic_error);
}

/** ...and only cycles 0..9 when the cut comes before its turn. */
TEST(ActivityWatchdog, CutBeforeTurnDoesNotCountThatCycle)
{
    Kernel k;
    BusySleeper busy;
    Cutter cutter(busy);
    k.add(&cutter);
    k.add(&busy);
    k.setWatchdogLimit(50);
    EXPECT_EQ(k.run(1000), 60u);
}

/** A processor that computes for a long time at its first tick. */
class LongCompute : public Workload
{
  public:
    LongCompute(Processor &proc, MessageLayer &msg)
        : Workload(proc, msg, nullptr, 1)
    {
    }

    void
    tick(Cycle now) override
    {
        if (!started_) {
            started_ = true;
            proc_.compute(100000, now);
        }
    }

    bool done() const override { return false; }

  private:
    bool started_ = false;
};

/**
 * A busy processor crashed mid-computation stops counting as active
 * at the crash, so the quiescent run stops one watchdog period later
 * -- not when its forfeited busy period would have ended. The value
 * is what stepping every processor every cycle gives.
 */
TEST(ActivityWatchdog, CrashedBusyProcessorStopsCountingAtTheCrash)
{
    Config conf;
    conf.set("topology", std::string("fattree"));
    conf.set("nodes", 16L);
    conf.set("node.crash", std::string("3@1000"));
    conf.set("watchdog", 5000L);
    ExperimentConfig cfg = experimentFromConfig(conf);
    Experiment exp(cfg);
    exp.setWorkload(3, std::make_unique<LongCompute>(exp.proc(3),
                                                     exp.msg(3)));
    EXPECT_EQ(exp.runFor(1000000), 6000u);
}

} // namespace
} // namespace nifdy
