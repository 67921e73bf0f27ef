/**
 * @file
 * Observer-probe tests: every Experiment's observers hang off its own
 * kernel's probe, so two Experiments stepped alternately in one
 * process each reproduce their solo run; and the probe shows acks
 * and NIC control packets to the audit only.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/experiment.hh"
#include "net/packet.hh"
#include "sim/audit.hh"
#include "sim/congestion.hh"
#include "sim/probe.hh"
#include "sim/report.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

ExperimentConfig
meshCfg(bool observed)
{
    ExperimentConfig cfg;
    cfg.topology = "mesh2d";
    cfg.numNodes = 16;
    cfg.seed = 1;
    cfg.audit = observed;
    cfg.anatomy.enabled = observed;
    cfg.congestion.enabled = observed;
    return cfg;
}

std::unique_ptr<Experiment>
heavyRun(const ExperimentConfig &cfg)
{
    auto exp = std::make_unique<Experiment>(cfg);
    for (NodeId n = 0; n < exp->numNodes(); ++n)
        exp->setWorkload(n, std::make_unique<SyntheticWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(),
                                SyntheticParams::heavy(), cfg.seed));
    return exp;
}

std::string
reportOf(const Experiment &exp)
{
    RunReport rep("test_probe");
    exp.fillReport(rep);
    return rep.json(false);
}

TEST(Probe, InterleavedExperimentsMatchTheirSoloRuns)
{
    constexpr Cycle slice = 2500;
    constexpr int slices = 8;
    std::string soloObserved;
    std::string soloPlain;
    {
        auto exp = heavyRun(meshCfg(true));
        exp->runFor(slice * slices);
        soloObserved = reportOf(*exp);
    }
    {
        auto exp = heavyRun(meshCfg(false));
        exp->runFor(slice * slices);
        soloPlain = reportOf(*exp);
    }

    // Both alive at once, stepped alternately: the plain run's
    // packets must never reach the observed run's sinks.
    auto observed = heavyRun(meshCfg(true));
    auto plain = heavyRun(meshCfg(false));
    for (int i = 0; i < slices; ++i) {
        observed->runFor(slice);
        plain->runFor(slice);
    }
    EXPECT_EQ(reportOf(*observed), soloObserved);
    EXPECT_EQ(reportOf(*plain), soloPlain);
}

TEST(Probe, ShowsAcksAndControlPacketsToTheAuditOnly)
{
    Audit audit;
    CongestionConfig cc;
    cc.enabled = true;
    CongestionObserver co(cc, 4);
    Probe probe;
    probe.setAudit(&audit);
    probe.setCongestion(&co);

    Packet ack;
    ack.type = PacketType::ack;
    ack.src = 0;
    ack.dst = 1;
    Packet ctrl;
    ctrl.ctrlOnly = true;
    ctrl.src = 2;
    ctrl.dst = 3;
    probe.deliver(ack, 1, 10);
    probe.deliver(ctrl, 3, 10);
    EXPECT_EQ(audit.eventsSeen(), 2u);
    EXPECT_EQ(co.numFlows(), 0u);

    Packet data;
    data.src = 1;
    data.dst = 2;
    probe.deliver(data, 2, 10);
    EXPECT_EQ(audit.eventsSeen(), 3u);
    EXPECT_EQ(co.numFlows(), 1u);
}

} // namespace
} // namespace nifdy
