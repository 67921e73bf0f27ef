/**
 * @file
 * Congestion observatory: per-link stall maps, per-flow progress
 * tracking, and victim/aggressor attribution.
 *
 * The CongestionObserver tiles every observed cycle of every link
 * into exactly one of three states -- busy (the serializer is
 * occupied at this cycle), stalled (idle, but the link's producer
 * wanted to push and was refused: no credits, serializer contention,
 * or a store-and-forward tail wait), or idle (no demand) -- giving
 * the per-window conservation invariant
 *
 *     busy + idle + stalled == window length
 *
 * checked exactly at every window close (panic on violation) and, in
 * cumulative form (busy + idle + stalled == cyclesObserved, per
 * link), by the audit layer's congestion-conservation checker every
 * cycle.
 *
 * The tiling is event-driven, not sampled: a link's state only
 * changes at a push (busy for the serializer slot's duration, read
 * from Channel::busyUntil(), per class on time-sliced links) or when
 * its producer -- the one router output or NIC inject port that
 * feeds it -- raises or clears its stall level. The producer sets
 * the level at each of its steps and it holds while the producer
 * sleeps, which is exact because a sleeping producer would refuse
 * the same pushes every cycle (sim/kernel.hh). Each event settles
 * the link's interval since the last one; window boundaries settle
 * every link, so the observer steps only at those and sleeps in
 * between. Accessors settle through the current cycle first.
 *
 * On top of the window accounting sits an online hysteresis detector:
 * a link opens a named congestion *episode* when its window stall
 * fraction reaches congestion.onFrac and closes it when the fraction
 * falls below congestion.offFrac. While an episode is open, each
 * flow's flit contribution across the link is accumulated; at close
 * the flows are classified -- *aggressors* hold at least
 * congestion.aggressorShare of the episode's flits, *victims* are
 * minor contributors whose end-to-end slowdown (mean delivered
 * latency over the flow's own minimum-latency isolation baseline)
 * is at least congestion.victimSlowdown.
 *
 * Cost model mirrors anatomy.hh: while no observer is attached to
 * the kernel's Probe (congestion.enabled defaults to off), each
 * reporting site pays one inline test in the probe, so
 * congestion-off runs produce byte-identical reports. When attached,
 * the hooks are NIFDY_HOT and allocation-free after warmup: each
 * link logs the flow of every data flit of the current window in a
 * buffer that is cleared, not freed, and folds it into its open
 * episode's per-flow counts (kept per link) at the window close;
 * episode flow lists are only materialized at the (rare) episode
 * close.
 */

#ifndef NIFDY_SIM_CONGESTION_HH
#define NIFDY_SIM_CONGESTION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/kernel.hh"
#include "sim/table.hh"
#include "sim/types.hh"

namespace nifdy
{

struct Packet;
struct Flit;
class Channel;
class Network;
class InvariantChecker;
class Tracer;

/** Runtime knobs (CLI: congestion.enabled / congestion.window / ...). */
struct CongestionConfig
{
    /** Master switch; off = no sink, hooks cost one pointer test. */
    bool enabled = false;
    /** Accounting window length in cycles. */
    Cycle window = 1024;
    /** Episode opens when a window's stall fraction >= onFrac. */
    double onFrac = 0.5;
    /** Episode closes when a window's stall fraction < offFrac. */
    double offFrac = 0.25;
    /** Aggressor threshold: share of an episode's flits. */
    double aggressorShare = 0.25;
    /** Victim threshold: mean latency over isolation baseline. */
    double victimSlowdown = 2.0;

    /** Panic on out-of-range values. */
    void validate() const;
};

/** Async-id space for congestion episode slices (bit 60 | link),
 * disjoint from packet ids, node chains (bit 62) and collective
 * chains (bit 61). */
inline std::uint64_t
congestionChainId(int link)
{
    return (std::uint64_t(1) << 60) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(link));
}

/**
 * One closed (or still-open) congestion episode on a link. Flow
 * shares are materialized and classified at close, sorted by flit
 * contribution descending (ties by (src,dst) ascending) so output is
 * deterministic despite unordered accumulation.
 */
struct CongestionEpisode
{
    int link = -1;           //!< index into the observer's link table
    Cycle open = 0;          //!< first cycle of the opening window
    Cycle close = 0;         //!< one past the last congested cycle
    int windows = 0;         //!< accounting windows spanned
    double peakStallFrac = 0;
    std::uint64_t totalFlits = 0; //!< data flits crossing while open

    struct Share
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        std::uint64_t flits = 0;
        double share = 0;     //!< flits / totalFlits
        double slowdown = 0;  //!< flow slowdown at close time
        bool aggressor = false;
        bool victim = false;
    };
    std::vector<Share> shares;

    bool closed() const { return close != 0; }
};

/**
 * The observatory sink, fed through the kernel's Probe once attached
 * to it. finish() closes still-open episodes and stops recording.
 */
class CongestionObserver : public Steppable
{
  public:
    /** Cumulative and current-window accounting for one link. */
    struct LinkStats
    {
        std::uint64_t busy = 0;    //!< serializer occupied
        std::uint64_t idle = 0;    //!< no demand
        std::uint64_t stalled = 0; //!< demand refused (credit/arb/tail)
        std::uint64_t winBusy = 0;
        std::uint64_t winIdle = 0;
        std::uint64_t winStalled = 0;
        std::uint64_t reqFlits = 0;   //!< request-class flits pushed
        std::uint64_t replyFlits = 0; //!< reply-class flits pushed
        int highWater = 0;  //!< occupancy high-water (flits in flight)
        int episodes = 0;   //!< episodes opened on this link
        int openEpisode = -1; //!< index into episodes(), -1 = calm
    };

    /** Progress accounting for one (src,dst) flow (data packets
     * only; acks and control-only packets are never tracked). */
    struct FlowStats
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        std::uint64_t injected = 0;  //!< injections incl. retx clones
        std::uint64_t delivered = 0; //!< packets into the arrival FIFO
        std::uint64_t deliveredFlits = 0;
        /** injected - delivered: in the fabric, or lost for good on
         * a NIC without retransmission. */
        std::int64_t inflight = 0;
        std::uint64_t latSum = 0;     //!< sum of delivery latencies
        Cycle latMin = neverCycle;    //!< isolation baseline estimate
        Cycle firstInject = neverCycle;
        Cycle lastDeliver = 0;
        int aggressorEpisodes = 0;
        int victimEpisodes = 0;

        double meanLatency() const
        {
            return delivered ? double(latSum) / double(delivered) : 0;
        }
        /** Mean latency over the flow's own best-case (minimum)
         * delivery latency: a deterministic, self-calibrating
         * isolation-baseline estimate. */
        double slowdown() const
        {
            return (delivered && latMin > 0)
                       ? meanLatency() / double(latMin)
                       : 0;
        }
        /** Completion slope: delivered packets per kilocycle of the
         * flow's active span. */
        double slope() const
        {
            if (!delivered || firstInject == neverCycle ||
                lastDeliver <= firstInject)
                return 0;
            return 1000.0 * double(delivered) /
                   double(lastDeliver - firstInject);
        }
    };

    CongestionObserver(const CongestionConfig &cfg, int numNodes);
    CongestionObserver(const CongestionObserver &) = delete;
    CongestionObserver &operator=(const CongestionObserver &) = delete;

    /** Render episode slices and the congested-link counter into
     * @p tracer (nullptr: none). Set by Probe. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Enumerate @p net's channels: inject/eject ports get
     * "inject<n>"/"eject<n>" labels, fabric links "internal<i>". */
    void attach(Network &net);
    /** Test seam: observe an explicit channel list. */
    void attachChannels(const std::vector<Channel *> &channels,
                        const std::vector<std::string> &labels,
                        int flitBytes);

    /** At a window's last cycle, settle every link and close the
     * window; then sleep until the next one. Registered after every
     * traffic-moving component, so it sees the cycle's final state.
     * Stepping it in any other cycle is a no-op. */
    void step(Cycle now) override;

    //! @name Recording (called through the kernel's Probe)
    //! @{
    /** The producer of @p ch raised (@p stalled) or cleared its
     * stall level at cycle @p now: until the next change, every
     * cycle the link is not serializing counts as stalled. */
    void onStallLevel(const Channel *ch, bool stalled, Cycle now);
    /** A flit started serializing on @p ch (called after the
     * push); @p data: it belongs to a data packet, whose flow the
     * link logs. */
    void onLinkFlit(const Channel *ch, const Flit &flit, bool data,
                    Cycle now);
    /** Head flit of a data packet entered the network. */
    void onInject(const Packet &pkt, Cycle now);
    /** Data packet entered the destination's arrival FIFO. */
    void onDeliver(const Packet &pkt, Cycle now);
    //! @}

    /** Close still-open episodes at @p now and stop recording.
     * Idempotent. */
    void finish(Cycle now);

    //! @name Aggregates (link counts settled through the current cycle)
    //! @{
    int numLinks() const { return static_cast<int>(links_.size()); }
    const LinkStats &link(int i) const
    {
        sync();
        return links_[static_cast<std::size_t>(i)];
    }
    const std::string &linkLabel(int i) const
    {
        return labels_[static_cast<std::size_t>(i)];
    }
    Cycle cyclesObserved() const;
    std::uint64_t windowsClosed() const { return windowsClosed_; }
    const std::vector<CongestionEpisode> &episodes() const
    {
        return episodes_;
    }
    std::uint64_t episodesOpened() const { return episodesOpened_; }
    std::uint64_t episodesClosed() const { return episodesClosed_; }
    int openEpisodes() const { return openEpisodes_; }
    /** Flow table lookup; nullptr when the flow was never seen. */
    const FlowStats *flow(NodeId src, NodeId dst) const;
    std::size_t numFlows() const { return flows_.size(); }
    /** Distinct flows classified as aggressor/victim in >= 1
     * episode. */
    int aggressorFlows() const;
    int victimFlows() const;
    double maxSlowdown() const;
    std::uint64_t totalBusy() const;
    std::uint64_t totalIdle() const;
    std::uint64_t totalStalled() const;
    /** Link with the most stalled cycles (-1 when no links). */
    int hottestLink() const;
    //! @}

    //! @name Rendering
    //! @{
    /** Per-link stall map (links that saw traffic or stalls). */
    Table linkTable(const std::string &title) const;
    /** Ranked flow progress/slowdown table (worst @p maxRows). */
    Table flowTable(const std::string &title,
                    std::size_t maxRows = 32) const;
    /** Episode log with aggressor/victim lists. */
    Table episodeTable(const std::string &title) const;
    //! @}

  private:
    static std::uint64_t flowKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst);
    }
    /** A flow as logged per link: 16 bits each of src and dst. */
    static std::uint32_t linkFlowKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint32_t>(
                    static_cast<std::uint16_t>(src))
                << 16) |
               static_cast<std::uint16_t>(dst);
    }

    /** One flow's flits across a link during its open episode. */
    struct FlowFlits
    {
        std::uint32_t flow = 0; //!< linkFlowKey()
        std::uint64_t flits = 0;
    };

    /** How far one link's tiling is settled, and its flow logs. */
    struct LinkTrack
    {
        Cycle settled = 0;    //!< cycles before this one are tiled
        Cycle busyEnd = 0;    //!< Channel::busyUntil() at the last push
        bool stalled = false; //!< the producer's stall level
        /** Flow of every data flit pushed this window. */
        std::vector<std::uint32_t> winFlows;
        /** The open episode's flits per flow, sorted by flow. */
        std::vector<FlowFlits> epFlows;
    };

    /** Index of @p ch in the link table, or -1 if unobserved. */
    int linkOf(const Channel *ch) const;
    /** Start the observation at cycle @p now (first call). */
    void begin(Cycle now);
    /** One past the last observed cycle (while recording). */
    Cycle observedEnd() const;
    /** Tile link @p i's cycles before @p upTo. */
    void settle(std::size_t i, Cycle upTo) const;
    /** Settle every link through the current cycle. */
    void sync() const;
    FlowStats &flowFor(const Packet &pkt);
    /** Fold link @p i's window log into its open episode, if any,
     * and clear the log. */
    void foldWindow(std::size_t i);
    void closeWindow(Cycle now);
    void openEpisode(int link, Cycle winStart);
    void closeEpisode(int link, Cycle end);
    void emitCongestedCounter(Cycle now);

    CongestionConfig cfg_;
    Tracer *tracer_ = nullptr;
    bool started_ = false;
    bool finished_ = false;
    int flitBytes_ = bytesPerWord;
    Cycle start_ = 0;   //!< first observed cycle
    Cycle stepped_ = 0; //!< one past the last cycle step() ran in

    std::vector<Channel *> channels_;
    std::vector<std::string> labels_;
    /** Settled lazily by const accessors (see sync()). */
    mutable std::vector<LinkStats> links_;
    mutable std::vector<LinkTrack> track_;
    /** Every link is settled through this cycle (exclusive). */
    mutable Cycle syncedTo_ = 0;
    std::unordered_map<const Channel *, int> linkIndex_; // nifdy:pointer-ok(keyed lookup only, never iterated; order never observed)

    std::unordered_map<std::uint64_t, FlowStats> flows_;

    std::vector<CongestionEpisode> episodes_;
    std::uint64_t windowsClosed_ = 0;
    std::uint64_t episodesOpened_ = 0;
    std::uint64_t episodesClosed_ = 0;
    int openEpisodes_ = 0;
};

/**
 * Cumulative conservation checker for the audit layer: per link, the
 * busy/idle/stalled tiling must sum to the cycles observed at every
 * cycle boundary and at finish.
 */
std::unique_ptr<InvariantChecker>
makeCongestionConservationChecker(const CongestionObserver *obs);

} // namespace nifdy

#endif // NIFDY_SIM_CONGESTION_HH
