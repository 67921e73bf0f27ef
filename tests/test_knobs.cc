/**
 * @file
 * Knob-table tests: the generated --list-knobs references are pinned
 * byte for byte (names, defaults, docs), the generated readers ask
 * Config for exactly the keys their tables list, and DESIGN.md's
 * knob references (sections 9.5 and 11.6) match the tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "campaign/engine.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"

namespace nifdy
{
namespace
{

/** experimentKnobList() as pinned: any change to a knob's name,
 * default or doc must update this on purpose. */
const char *const goldenExperimentKnobs =
    "topology\tfattree\tnetwork topology: mesh2d, mesh3d, torus2d, fattree, fattree-saf, cm5, butterfly, multibutterfly, mesh2d-adaptive\n"
    "nodes\t64\tnumber of nodes\n"
    "nic\tnifdy\tNIC kind: none, buffers, nifdy, lossy\n"
    "seed\t1\texperiment RNG seed\n"
    "watchdog\t2000000\tidle-cycle watchdog limit\n"
    "barrierLatency\t100\tbarrier network release latency\n"
    "audit\tfalse\tattach the invariant-audit layer\n"
    "exploitInOrder\ttrue\tsoftware exploits in-order delivery when available\n"
    "nifdy.opt\tper-topology\tOPT entries (outstanding-packet table size)\n"
    "nifdy.pool\tper-topology\tsend-pool entries\n"
    "nifdy.dialogs\tper-topology\tsimultaneous bulk dialogs\n"
    "nifdy.window\tper-topology\tbulk dialog window size\n"
    "lossy.dropProb\t0\treceiver-side drop probability, [0, 1)\n"
    "lossy.retxTimeout\t4000\tinitial retransmit timeout in cycles\n"
    "lossy.backoffFactor\t1\ttimeout multiplier per retry (1 = fixed timer)\n"
    "lossy.maxRetxTimeout\t0\tbackoff ceiling in cycles (0 = 16x lossy.retxTimeout)\n"
    "lossy.jitterFrac\t0\tretransmit deadline jitter fraction, [0, 1)\n"
    "lossy.maxRetries\t0\tdeclare a peer dead after N retries (0 = retry forever)\n"
    "fault.dropProb\t0\tper-hop in-fabric packet drop probability, [0, 1]\n"
    "fault.corruptProb\t0\tper-hop packet corruption probability, [0, 1]\n"
    "fault.maxDrops\t-1\tstop injecting after N packets hit (-1 = unlimited)\n"
    "fault.seed\t0\tfault RNG seed (0 = experiment seed)\n"
    "fault.linkDown\t\tLINK@FROM[+DUR],... link outage windows\n"
    "fault.portDown\t\tROUTER.PORT@FROM[+DUR],... router output-port failures\n"
    "fault.downLinks\t0\tadditionally down N random internal links\n"
    "fault.downFrom\t0\trandom link outages start cycle\n"
    "fault.downFor\t0\trandom link outage duration (0 = permanent)\n"
    "node.crash\t\tNODE@FROM[+DUR],... fail-stop schedules (+DUR = downtime before restart; none = stays dead)\n"
    "node.randomCrashes\t0\tcrash N distinct random nodes\n"
    "node.crashFrom\t0\trandom crash-cycle window start\n"
    "node.crashSpan\t0\trandom crash-cycle window length\n"
    "node.restartAfter\t0\tdowntime before each random crash restarts (0 = stays dead)\n"
    "node.seed\t0\tendpoint-fault RNG seed (0 = experiment seed)\n"
    "node.reclaimTimeout\t0\tlive peers reclaim protocol state aimed at a silent peer after N idle cycles (0 = off; 25000 when a node plan is active)\n"
    "coll.offload\toff\tNIC-resident collectives: off (software barrier) or nic (barrier/bcast/reduce combined in the NIC step path)\n"
    "coll.arity\t4\tcollective combining-tree fan-out (parent(n) = (n-1)/k)\n"
    "coll.timeout\t3000\tinitial contribution retransmit timeout in cycles\n"
    "coll.backoffFactor\t2\tcollective timeout multiplier per retransmission (>= 1)\n"
    "coll.maxTimeout\t0\tcollective backoff ceiling in cycles (0 = 16x coll.timeout)\n"
    "coll.jitterFrac\t0.25\tcollective retransmit deadline jitter fraction, [0, 1)\n"
    "coll.maxRetries\t6\tunanswered contribution rounds before a parent is presumed dead and the child re-parents\n"
    "coll.probeTimeout\t6000\tsilence gate before (and between) probes of an awaited child\n"
    "coll.maxProbes\t4\tunanswered probes before a silent subtree is pruned (the collective then completes degraded among survivors)\n"
    "coll.seed\t0\tcollective jitter RNG seed (0 = experiment seed)\n"
    "trace.path\t\twrite a Chrome-trace-event packet-lifecycle trace here\n"
    "trace.sampleRate\t1\tfraction of packet lifecycles traced, [0, 1]\n"
    "trace.maxEvents\t1048576\thard event budget per trace file\n"
    "trace.seed\t0\tsampling hash seed (0 = experiment seed)\n"
    "metrics.path\t\twrite periodic metric snapshots (JSONL) here\n"
    "metrics.interval\t10000\tcycles between metric snapshots\n"
    "anatomy.enabled\tfalse\tlatency anatomy: per-packet stall-cause attribution\n"
    "anatomy.sampleRate\t1\tfraction of packet lifecycles attributed, [0, 1]\n"
    "anatomy.seed\t0\tanatomy sampling hash seed (0 = experiment seed)\n"
    "congestion.enabled\tfalse\tcongestion observatory: per-link stall maps, per-flow progress, victim/aggressor episodes\n"
    "congestion.window\t1024\tcongestion accounting window length in cycles\n"
    "congestion.onFrac\t0.5\tepisode opens at window stall fraction >= onFrac\n"
    "congestion.offFrac\t0.25\tepisode closes at window stall fraction < offFrac\n"
    "congestion.aggressorShare\t0.25\taggressor threshold: share of an episode's flits\n"
    "congestion.victimSlowdown\t2\tvictim threshold: mean latency over isolation baseline\n"
    "profile.enabled\tfalse\thost-cost profiler: per-component host-time and idle-work attribution\n"
    "profile.interval\t32\tcycles between profiler host-clock samples\n";

/** campaignKnobList() as pinned. */
const char *const goldenCampaignKnobs =
    "campaign.workers\t4\tparallel worker subprocesses the engine fans jobs across\n"
    "campaign.retryMax\t3\tretries per job after the first failure before it is marked failed\n"
    "campaign.backoffBaseMs\t100\tretry backoff after the first failure, milliseconds\n"
    "campaign.backoffFactor\t2\tbackoff multiplier per further failure (exponential)\n"
    "campaign.backoffMaxMs\t5000\tbackoff ceiling, milliseconds\n"
    "campaign.jitterFrac\t0.25\tseeded +/- jitter fraction applied to each backoff, [0, 1)\n"
    "campaign.wallTimeoutMs\t30000\tper-attempt wall-clock budget; SIGTERM at the deadline, SIGKILL one grace period later\n"
    "campaign.termGraceMs\t2000\tSIGTERM -> SIGKILL escalation delay, milliseconds\n"
    "campaign.jobTimeout\t0\tforwarded to every worker as its timeout=CYCLES self-guard (0 = off)\n"
    "campaign.pollMs\t2\tsupervisor poll interval while workers run, milliseconds\n"
    "campaign.seed\t1\tengine RNG seed (backoff jitter)\n"
    "campaign.failpoint\t0\tcrash-injection test hook: _exit(137) after N journal appends (0 = off)\n";

/** Ordered (name, default) pairs of a knob list. */
std::vector<std::pair<std::string, std::string>>
namesAndDefaults(const std::string &list)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream in(list);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t t1 = line.find('\t');
        std::size_t t2 = line.find('\t', t1 + 1);
        out.emplace_back(line.substr(0, t1),
                         line.substr(t1 + 1, t2 - t1 - 1));
    }
    return out;
}

std::vector<std::string>
names(const std::string &list)
{
    std::vector<std::string> out;
    for (const auto &nd : namesAndDefaults(list))
        out.push_back(nd.first);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(KnobTable, ExperimentListMatchesGolden)
{
    EXPECT_EQ(experimentKnobList(), goldenExperimentKnobs);
}

TEST(KnobTable, CampaignListMatchesGolden)
{
    EXPECT_EQ(campaignKnobList(), goldenCampaignKnobs);
}

TEST(KnobTable, HelpNamesEveryKnobWithItsDefault)
{
    const std::string help = experimentCliHelp();
    for (const auto &[name, def] :
         namesAndDefaults(experimentKnobList()))
        EXPECT_NE(help.find("  " + name + " (default " +
                            (def.empty() ? "empty" : def) + ")"),
                  std::string::npos)
            << name;
}

TEST(KnobTable, ExperimentReaderAsksForExactlyTheTable)
{
    Config conf;
    experimentFromConfig(conf);
    EXPECT_EQ(conf.askedKeys(), names(experimentKnobList()));
}

TEST(KnobTable, CampaignReaderAsksForExactlyTheTable)
{
    Config conf;
    campaignFromConfig(conf);
    EXPECT_EQ(conf.askedKeys(), names(campaignKnobList()));
}

TEST(KnobTable, EveryKnobIsReadWhenGiven)
{
    // Each listed knob, set to its own default, is consumed by the
    // reader (no unread-key failure) and changes nothing.
    Config conf;
    for (const auto &[name, def] :
         namesAndDefaults(experimentKnobList()))
        if (def != "per-topology")
            conf.set(name, def);
    ExperimentConfig cfg = experimentFromConfig(conf);
    conf.requireAllRead();
    EXPECT_FALSE(cfg.nifdyExplicit);
    EXPECT_EQ(cfg.topology, ExperimentConfig{}.topology);
    EXPECT_EQ(cfg.nodeReclaim, 0u);
}

TEST(KnobTable, NifdyKnobsMakeTheParametersExplicit)
{
    Config conf;
    conf.set("nifdy.window", 4L);
    ExperimentConfig cfg = experimentFromConfig(conf);
    EXPECT_TRUE(cfg.nifdyExplicit);
    EXPECT_EQ(cfg.nifdy.window, 4);
    EXPECT_EQ(cfg.nifdy.opt, NifdyConfig{}.opt);
}

TEST(KnobTable, ReclaimDefaultsOnUnderANodePlan)
{
    Config conf;
    conf.set("node.crash", std::string("3@1000"));
    EXPECT_EQ(experimentFromConfig(conf).nodeReclaim, 25000u);
    conf.set("node.reclaimTimeout", 0L);
    EXPECT_EQ(experimentFromConfig(conf).nodeReclaim, 0u);
}

TEST(KnobTable, UnsignedKnobsRejectNegativeValues)
{
    Config conf;
    conf.set("node.reclaimTimeout", -1L);
    EXPECT_THROW(experimentFromConfig(conf), std::runtime_error);
}

TEST(KnobTable, TelemetryReaderReadsOnlyObservabilityKnobs)
{
    Config conf;
    conf.set("trace.sampleRate", 0.5);
    conf.set("profile.enabled", true);
    conf.set("nodes", 16L);
    ExperimentConfig cfg;
    readTelemetryKnobs(conf, cfg);
    EXPECT_DOUBLE_EQ(cfg.trace.sampleRate, 0.5);
    EXPECT_TRUE(cfg.profile.enabled);
    EXPECT_EQ(cfg.numNodes, ExperimentConfig{}.numNodes);
    EXPECT_THROW(conf.requireAllRead(), std::runtime_error);
}

/**
 * Ordered (name, default) rows of the markdown knob table under the
 * DESIGN.md heading @p heading; "—" stands for an empty default.
 */
std::vector<std::pair<std::string, std::string>>
designTable(const std::string &heading)
{
    std::ifstream in(NIFDY_SOURCE_DIR "/DESIGN.md");
    std::vector<std::pair<std::string, std::string>> out;
    std::string line;
    bool inSection = false;
    while (std::getline(in, line)) {
        if (line.rfind("#", 0) == 0) {
            inSection = line.rfind(heading, 0) == 0;
            continue;
        }
        if (!inSection || line.rfind("| `", 0) != 0)
            continue;
        std::size_t nameEnd = line.find("` |", 3);
        std::size_t defEnd = line.find(" |", nameEnd + 3);
        std::string def = line.substr(nameEnd + 4, defEnd - nameEnd - 4);
        out.emplace_back(line.substr(3, nameEnd - 3),
                         def == "—" ? "" : def);
    }
    return out;
}

TEST(KnobTable, DesignKnobReferenceMatchesTable)
{
    EXPECT_EQ(designTable("### 9.5 "),
              namesAndDefaults(experimentKnobList()));
}

TEST(KnobTable, DesignCampaignKnobsMatchTable)
{
    EXPECT_EQ(designTable("### 11.6 "),
              namesAndDefaults(campaignKnobList()));
}

} // namespace
} // namespace nifdy
