/**
 * @file
 * The observer probe: one per Kernel, the single place simulated
 * components report observable events to.
 *
 * A Probe holds typed, non-owning pointers to the run's observers --
 * the invariant Audit, the packet-lifecycle Tracer, the latency
 * Anatomy and the CongestionObserver -- plus the Profiler the tracer
 * charges its file write to. Components report each event once, in
 * one vocabulary (DESIGN.md section 6.1); the probe fans it out to
 * exactly the sinks that consume it, always in the order audit,
 * trace, anatomy, congestion, so trace files do not depend on which
 * other observers are attached.
 *
 * Acks and NIC-internal control packets are not lifecycle subjects:
 * the probe tests that once per event and shows them to the audit
 * only.
 *
 * Cost model: every event method is an inline test of one flag or
 * pointer, and only a probe with a consuming sink attached makes the
 * out-of-line fan-out call. There are no virtual calls and no
 * subscriber registry. Components that are never wired to a kernel
 * (unit tests) point at noProbe, which never fires, so no emitting
 * site tests for a missing probe.
 *
 * Each Experiment owns its observers and attaches them to its own
 * kernel's probe, so two Experiments alive in one process never see
 * each other's packets.
 */

#ifndef NIFDY_SIM_PROBE_HH
#define NIFDY_SIM_PROBE_HH

#include <cstdint>

#include "sim/types.hh"

namespace nifdy
{

struct Packet;
struct Flit;
class Channel;
class Audit;
class Tracer;
class Anatomy;
class CongestionObserver;
class Profiler;
enum class StallCause : int;

class Probe
{
  public:
    constexpr Probe() = default;
    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    //! @name Sinks (non-owning; nullptr detaches)
    //! @{
    void setAudit(Audit *audit);
    void setTracer(Tracer *tracer);
    void setAnatomy(Anatomy *anatomy);
    void setCongestion(CongestionObserver *congestion);
    void setProfiler(Profiler *profiler);
    /** Detach every sink (the owner is about to destroy them). */
    void clear();

    Audit *audit() const { return audit_; }
    Tracer *tracer() const { return tracer_; }
    Anatomy *anatomy() const { return anatomy_; }
    Profiler *profiler() const { return profiler_; }
    //! @}

    //! @name Packet life
    //! @{
    void alloc(const Packet &pkt) const
    {
        if (audit_)
            emitAlloc(pkt);
    }
    void release(const Packet &pkt) const
    {
        if (audit_)
            emitRelease(pkt);
    }
    /** App packet handed to the NIC at @p node. */
    void send(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (on_)
            emitSend(pkt, node, now);
    }
    /** Head flit entered the network at @p node. */
    void inject(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (on_)
            emitInject(pkt, node, now);
    }
    /** Router @p router allocated the packet an output. */
    void hop(const Packet &pkt, int router, Cycle now) const
    {
        if (on_)
            emitHop(pkt, router, now);
    }
    /** A head flit lost switch allocation. */
    void arbLoss(const Packet &pkt, Cycle now) const
    {
        if (anatomy_)
            emitArbLoss(pkt, now);
    }
    /** A queued packet's NIC stall cause changed. */
    void stall(const Packet &pkt, StallCause cause, Cycle now) const
    {
        if (anatomy_)
            emitStall(pkt, cause, now);
    }
    /** A flit started serializing on @p ch. */
    void linkFlit(const Channel *ch, const Flit &flit, Cycle now) const
    {
        if (congestion_)
            emitLinkFlit(ch, flit, now);
    }
    /** @p ch's producer wants its stall level at @p stalled;
     * @p level is the level it last published, updated when this
     * one is (only while a congestion observer listens). */
    void stallLevel(const Channel *ch, bool &level, bool stalled,
                    Cycle now) const
    {
        if (congestion_ && stalled != level) {
            level = stalled;
            emitStallLevel(ch, stalled, now);
        }
    }
    /** Packet entered @p node's arrival FIFO (or its coll engine). */
    void deliver(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (on_)
            emitDeliver(pkt, node, now);
    }
    /** The processor took the packet from the arrival FIFO. */
    void accept(const Packet &pkt, Cycle now) const
    {
        if (anatomy_)
            emitAccept(pkt, now);
    }
    /** The NIC absorbed a protocol packet (ack, control, coll). */
    void consume(const Packet &pkt, NodeId node, const char *why) const
    {
        if (audit_)
            emitConsume(pkt, node, why);
    }
    /** Buffered in a bulk dialog's reorder window. */
    void reorder(const Packet &pkt, Cycle now) const
    {
        if (anatomy_)
            emitReorder(pkt, now);
    }
    /** @p pkt is a retransmission clone queued at @p node. */
    void retransmit(const Packet &pkt, NodeId node, Cycle now) const
    {
        if (on_)
            emitRetransmit(pkt, node, now);
    }
    //! @}

    //! @name Losses
    //! @{
    /** A NIC discarded the packet. */
    void drop(const Packet &pkt, NodeId node, Cycle now,
              const char *why) const
    {
        if (on_)
            emitDrop(pkt, node, now, why);
    }
    /** A fault injector swallowed the packet inside the fabric. */
    void fabricDrop(const Packet &pkt, int router, Cycle now,
                    const char *why) const
    {
        if (on_)
            emitFabricDrop(pkt, router, now, why);
    }
    /** A fault injector corrupted the packet at @p router. */
    void corrupt(const Packet &pkt, int router, Cycle now) const
    {
        if (on_)
            emitCorrupt(pkt, router, now);
    }
    /** Stale-incarnation reject: the packet is dropped. */
    void epochReject(const Packet &pkt, NodeId node, Cycle now,
                     const char *why) const
    {
        if (on_)
            emitEpochReject(pkt, node, now, why);
    }
    //! @}

    //! @name Trace marks
    //! @{
    /** Protocol step on a data packet's lifecycle chain: one of
     * ev::ackIssue (@p pkt is the data being acknowledged),
     * ev::optAdmit, ev::optDefer, ev::windowAdmit. */
    void mark(const char *name, const Packet &pkt, NodeId node,
              Cycle now) const
    {
        if (tracer_)
            emitMark(name, pkt, node, now);
    }
    /** Cumulative bulk ack covering the packet with root id
     * @p rootId. */
    void ackIssueId(std::uint64_t rootId, NodeId node, Cycle now) const
    {
        if (tracer_)
            emitAckIssueId(rootId, node, now);
    }
    //! @}

    //! @name Endpoints
    //! @{
    void nodeCrash(NodeId node, Cycle now) const
    {
        if (on_)
            emitNodeCrash(node, now);
    }
    void nodeRestart(NodeId node, std::uint32_t epoch, Cycle now) const
    {
        if (on_)
            emitNodeRestart(node, epoch, now);
    }
    /** Collective-engine event (any ev::coll* name) on @p node's
     * collective chain. */
    void coll(const char *name, NodeId node, Cycle now) const
    {
        if (tracer_)
            emitColl(name, node, now);
    }
    //! @}

  private:
    /** Recompute on_ and hand the tracer and profiler to the sinks
     * that render into them. */
    void wire();

    void emitAlloc(const Packet &pkt) const;
    void emitRelease(const Packet &pkt) const;
    void emitSend(const Packet &pkt, NodeId node, Cycle now) const;
    void emitInject(const Packet &pkt, NodeId node, Cycle now) const;
    void emitHop(const Packet &pkt, int router, Cycle now) const;
    void emitArbLoss(const Packet &pkt, Cycle now) const;
    void emitStall(const Packet &pkt, StallCause cause, Cycle now) const;
    void emitLinkFlit(const Channel *ch, const Flit &flit,
                      Cycle now) const;
    void emitStallLevel(const Channel *ch, bool stalled,
                        Cycle now) const;
    void emitDeliver(const Packet &pkt, NodeId node, Cycle now) const;
    void emitAccept(const Packet &pkt, Cycle now) const;
    void emitConsume(const Packet &pkt, NodeId node,
                     const char *why) const;
    void emitReorder(const Packet &pkt, Cycle now) const;
    void emitRetransmit(const Packet &pkt, NodeId node, Cycle now) const;
    void emitDrop(const Packet &pkt, NodeId node, Cycle now,
                  const char *why) const;
    void emitFabricDrop(const Packet &pkt, int router, Cycle now,
                        const char *why) const;
    void emitCorrupt(const Packet &pkt, int router, Cycle now) const;
    void emitEpochReject(const Packet &pkt, NodeId node, Cycle now,
                         const char *why) const;
    void emitMark(const char *name, const Packet &pkt, NodeId node,
                  Cycle now) const;
    void emitAckIssueId(std::uint64_t rootId, NodeId node,
                        Cycle now) const;
    void emitNodeCrash(NodeId node, Cycle now) const;
    void emitNodeRestart(NodeId node, std::uint32_t epoch,
                         Cycle now) const;
    void emitColl(const char *name, NodeId node, Cycle now) const;

    Audit *audit_ = nullptr;
    Tracer *tracer_ = nullptr;
    Anatomy *anatomy_ = nullptr;
    CongestionObserver *congestion_ = nullptr;
    Profiler *profiler_ = nullptr;
    /** Any event sink attached. */
    bool on_ = false;
};

/** The probe of components not wired to a kernel: it never fires. */
inline constexpr Probe noProbe{};

} // namespace nifdy

#endif // NIFDY_SIM_PROBE_HH
