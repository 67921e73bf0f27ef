/**
 * @file
 * Point-to-point link with serialization, latency, and a reverse
 * credit path.
 *
 * A Channel carries flits in one direction and buffer credits in the
 * other. Bandwidth is expressed as cycles per flit (a 32-bit flit on
 * the paper's 1-byte links takes 4 cycles). The two logical networks
 * (request/reply) are either demand-multiplexed over the full
 * physical bandwidth or strictly time-sliced so each class gets half
 * the bandwidth regardless of the other's traffic (the CM-5 mode).
 *
 * Everything pushed during cycle t becomes visible to the consumer
 * no earlier than cycle t+1, which makes intra-cycle component
 * ordering immaterial.
 *
 * A channel knows the component at each end: push() wakes the flit
 * consumer at the flit's arrival cycle and pushCredit() wakes the
 * flit producer (the credit's consumer) at the next cycle, so both
 * may sleep while the channel is quiet (sim/kernel.hh).
 */

#ifndef NIFDY_NET_CHANNEL_HH
#define NIFDY_NET_CHANNEL_HH

#include <vector>

#include "net/packet.hh"
#include "sim/probe.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace nifdy
{

class Steppable;

/** Static channel configuration. */
struct ChannelParams
{
    /** Cycles to serialize one flit at full physical bandwidth. */
    int cyclesPerFlit = 4;
    /** Extra pipeline latency in cycles (wire/router stages). */
    int latency = 1;
    /**
     * Strict time multiplexing of the two logical networks: each
     * class gets an independent serializer at half bandwidth.
     */
    bool timeSliced = false;
};

/**
 * One direction of a physical link, plus its reverse credit wires.
 */
class Channel
{
  public:
    explicit Channel(const ChannelParams &params);

    //! @name Endpoints (woken by the channel; may be unset)
    //! @{
    /** The component that pops flits and returns credits. */
    void setConsumer(Steppable *consumer);
    /** The component that pushes flits and absorbs credits. */
    void setProducer(Steppable *producer);
    /** Report each push to @p probe's congestion observer (@p probe
     * must outlive them). */
    void setProbe(const Probe *probe) { probe_ = probe; }
    //! @}

    //! @name Sender side
    //! @{
    /** Can a flit of class @p cls start serializing this cycle? */
    bool canPush(NetClass cls, Cycle now) const;
    /** Begin transmitting @p flit; requires canPush(). */
    void push(const Flit &flit, Cycle now);
    //! @}

    //! @name Receiver side
    //! @{
    /** Is a fully received flit available at cycle @p now? */
    bool hasFlit(Cycle now) const;
    /** Remove and return the next received flit. */
    Flit pop(Cycle now);
    //! @}

    //! @name Credit path (receiver -> sender)
    //! @{
    /** Return one buffer-slot credit for virtual channel @p vc. */
    void pushCredit(int vc, Cycle now);
    /** Is a credit visible at cycle @p now? */
    bool hasCredit(Cycle now) const;
    /** Remove and return the next credit's VC index. */
    int popCredit(Cycle now);
    //! @}

    /** Flits currently in flight (pushed, not yet popped). */
    int inFlight() const { return static_cast<int>(flits_.size()); }

    /**
     * First cycle from which no serializer slot is occupied: a flit
     * pushed at cycle t holds its slot through t + cyclesPerFlit - 1
     * (doubled when time-sliced), so the link is transmitting -- the
     * congestion observatory's "busy" state -- in every cycle before
     * this one since the last push.
     */
    Cycle busyUntil() const
    {
        Cycle until = 0;
        for (Cycle f : nextFree_)
            until = f > until ? f : until;
        return until;
    }

    /**
     * Flits in flight at the end of cycle @p now: those not yet
     * popped minus those already due, since the consumer pops every
     * flit in its arrival cycle.
     */
    int inFlightAt(Cycle now) const
    {
        std::size_t due = 0;
        while (due < flits_.size() && flits_[due].first <= now)
            ++due;
        return static_cast<int>(flits_.size() - due);
    }

    /**
     * Credit-discipline bound on in-flight flits: the consumer's
     * total buffer capacity (VCs x depth). Set by whoever attaches
     * the consumer; 0 means unknown/unbounded. push() panics when
     * the bound is exceeded -- in release builds too, since a
     * channel over capacity means the credit protocol is broken.
     */
    void setCapacityFlits(int capacity) { capacityFlits_ = capacity; }
    int capacityFlits() const { return capacityFlits_; }

    const ChannelParams &params() const { return params_; }

    /** Total flits ever pushed (bandwidth accounting). */
    std::uint64_t totalFlits() const { return totalFlits_; }
    /** Flits ever pushed for one logical network (telemetry). */
    std::uint64_t classFlits(NetClass cls) const
    {
        return classFlits_[static_cast<int>(cls)];
    }

    //! @name Fault injection: link-down windows
    //! @{
    /**
     * Declare the link down in [from, until); until == 0 means down
     * permanently. While down the channel refuses new flits
     * (canPush() is false) but keeps delivering flits and credits
     * already in flight, matching a cable pulled mid-transfer after
     * the last word cleared the serializer.
     */
    void addDownWindow(Cycle from, Cycle until);
    /** Is the link inside a down window at cycle @p now? */
    bool downAt(Cycle now) const;
    /** Does the link have any down window at all? */
    bool hasDownWindows() const { return !down_.empty(); }
    //! @}

    /**
     * Earliest cycle after @p now at which canPush(@p cls) may turn
     * true without any other component acting: the serializer's
     * free cycle, or now + 1 while the link is down.
     */
    Cycle pushReadyAt(NetClass cls, Cycle now) const;

  private:
    int classRate(NetClass cls) const;

    /** [from, until) link outage; until == 0 = permanent. */
    struct DownWindow
    {
        Cycle from = 0;
        Cycle until = 0;
    };

    ChannelParams params_;
    std::vector<DownWindow> down_;
    /** Serializer next-free time; [0] shared or per class. */
    Cycle nextFree_[numNetClasses] = {0, 0};
    Ring<std::pair<Cycle, Flit>> flits_;
    Ring<std::pair<Cycle, int>> credits_;
    std::uint64_t totalFlits_ = 0;
    std::uint64_t classFlits_[numNetClasses] = {0, 0};
    int capacityFlits_ = 0;
    Steppable *consumer_ = nullptr;
    Steppable *producer_ = nullptr;
    const Probe *probe_ = &noProbe;
};

} // namespace nifdy

#endif // NIFDY_NET_CHANNEL_HH
