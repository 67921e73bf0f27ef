#include "sim/probe.hh"

#include "net/packet.hh"
#include "sim/anatomy.hh"
#include "sim/audit.hh"
#include "sim/congestion.hh"
#include "sim/trace.hh"

namespace nifdy
{

namespace
{

/** Lifecycle subjects: everything but acks and NIC-internal control
 * packets, whose protocol effects trace as marks (or not at all). */
bool
isData(const Packet &pkt)
{
    return pkt.type != PacketType::ack && !pkt.ctrlOnly;
}

} // namespace

void
Probe::setAudit(Audit *audit)
{
    audit_ = audit;
    wire();
}

void
Probe::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    wire();
}

void
Probe::setAnatomy(Anatomy *anatomy)
{
    anatomy_ = anatomy;
    wire();
}

void
Probe::setCongestion(CongestionObserver *congestion)
{
    congestion_ = congestion;
    wire();
}

void
Probe::setProfiler(Profiler *profiler)
{
    profiler_ = profiler;
    wire();
}

void
Probe::clear()
{
    audit_ = nullptr;
    tracer_ = nullptr;
    anatomy_ = nullptr;
    congestion_ = nullptr;
    profiler_ = nullptr;
    on_ = false;
}

void
Probe::wire()
{
    on_ = audit_ || tracer_ || anatomy_ || congestion_;
    if (anatomy_)
        anatomy_->setTracer(tracer_);
    if (congestion_)
        congestion_->setTracer(tracer_);
    if (tracer_)
        tracer_->setProfiler(profiler_);
}

void
Probe::emitAlloc(const Packet &pkt) const
{
    audit_->alloc(pkt);
}

void
Probe::emitRelease(const Packet &pkt) const
{
    audit_->release(pkt);
}

void
Probe::emitSend(const Packet &pkt, NodeId node, Cycle now) const
{
    if (audit_)
        audit_->send(pkt, node);
    if (!isData(pkt))
        return;
    if (tracer_)
        tracer_->packetEvent(ev::packetSend, pkt, now, node);
    if (anatomy_)
        anatomy_->onSend(pkt, now);
}

void
Probe::emitInject(const Packet &pkt, NodeId node, Cycle now) const
{
    if (audit_)
        audit_->inject(pkt, node);
    if (!isData(pkt))
        return;
    if (tracer_)
        tracer_->packetEvent(ev::packetInject, pkt, now, node);
    if (anatomy_)
        anatomy_->onInject(pkt, now);
    if (congestion_)
        congestion_->onInject(pkt, now);
}

void
Probe::emitHop(const Packet &pkt, int router, Cycle now) const
{
    if (audit_)
        audit_->hop(pkt, router);
    if (!isData(pkt))
        return;
    if (tracer_)
        tracer_->packetEvent(ev::routerHop, pkt, now, router);
    if (anatomy_)
        anatomy_->onHop(pkt, now);
}

void
Probe::emitArbLoss(const Packet &pkt, Cycle now) const
{
    if (isData(pkt))
        anatomy_->onArbLoss(pkt, now);
}

void
Probe::emitStall(const Packet &pkt, StallCause cause, Cycle now) const
{
    if (isData(pkt))
        anatomy_->onStall(pkt, cause, now);
}

void
Probe::emitLinkFlit(const Channel *ch, const Flit &flit, Cycle now) const
{
    congestion_->onLinkFlit(ch, flit, isData(*flit.pkt), now);
}

void
Probe::emitStallLevel(const Channel *ch, bool stalled, Cycle now) const
{
    congestion_->onStallLevel(ch, stalled, now);
}

void
Probe::emitDeliver(const Packet &pkt, NodeId node, Cycle now) const
{
    if (audit_)
        audit_->deliver(pkt, node);
    if (!isData(pkt))
        return;
    if (tracer_)
        tracer_->packetEvent(ev::packetDeliver, pkt, now, node);
    if (anatomy_)
        anatomy_->onDeliver(pkt, now);
    if (congestion_)
        congestion_->onDeliver(pkt, now);
}

void
Probe::emitAccept(const Packet &pkt, Cycle now) const
{
    if (isData(pkt))
        anatomy_->onAccept(pkt, now);
}

void
Probe::emitConsume(const Packet &pkt, NodeId node, const char *why) const
{
    audit_->consume(pkt, node, why);
}

void
Probe::emitReorder(const Packet &pkt, Cycle now) const
{
    if (isData(pkt))
        anatomy_->onReorder(pkt, now);
}

void
Probe::emitRetransmit(const Packet &pkt, NodeId node, Cycle now) const
{
    if (audit_)
        audit_->retransmit(pkt, node);
    if (tracer_ && isData(pkt))
        tracer_->packetEvent(ev::packetRetransmit, pkt, now, node);
}

void
Probe::emitDrop(const Packet &pkt, NodeId node, Cycle now,
                const char *why) const
{
    if (audit_)
        audit_->drop(pkt, node, why);
    if (!isData(pkt))
        return;
    if (tracer_)
        tracer_->packetEvent(ev::packetDrop, pkt, now, node, why);
    if (anatomy_)
        anatomy_->onDrop(pkt, now);
}

void
Probe::emitFabricDrop(const Packet &pkt, int router, Cycle now,
                      const char *why) const
{
    if (audit_)
        audit_->fabricDrop(pkt, router, why);
    if (!isData(pkt))
        return;
    if (tracer_)
        tracer_->packetEvent(ev::fabricDrop, pkt, now, router, why);
    if (anatomy_)
        anatomy_->onDrop(pkt, now);
}

void
Probe::emitCorrupt(const Packet &pkt, int router, Cycle now) const
{
    if (audit_)
        audit_->corrupt(pkt, router);
    if (tracer_ && isData(pkt))
        tracer_->packetEvent(ev::fabricCorrupt, pkt, now, router);
}

void
Probe::emitEpochReject(const Packet &pkt, NodeId node, Cycle now,
                       const char *why) const
{
    if (audit_)
        audit_->drop(pkt, node, why);
    if (!isData(pkt))
        return;
    // The reject mark precedes the drop that keeps the chain terminal.
    if (tracer_) {
        tracer_->packetEvent(ev::epochReject, pkt, now, node);
        tracer_->packetEvent(ev::packetDrop, pkt, now, node, why);
    }
    if (anatomy_)
        anatomy_->onEpochReject(pkt, now);
}

void
Probe::emitMark(const char *name, const Packet &pkt, NodeId node,
                Cycle now) const
{
    if (isData(pkt))
        tracer_->packetEvent(name, pkt, now, node);
}

void
Probe::emitAckIssueId(std::uint64_t rootId, NodeId node, Cycle now) const
{
    tracer_->idEvent(ev::ackIssue, rootId, now, node);
}

void
Probe::emitNodeCrash(NodeId node, Cycle now) const
{
    if (audit_)
        audit_->nodeCrash(node, now);
    if (tracer_)
        tracer_->idEvent(ev::nodeCrash, nodeChainId(node), now, node);
}

void
Probe::emitNodeRestart(NodeId node, std::uint32_t epoch, Cycle now) const
{
    if (audit_)
        audit_->nodeRestart(node, epoch, now);
    if (tracer_)
        tracer_->idEvent(ev::nodeRestart, nodeChainId(node), now, node);
}

void
Probe::emitColl(const char *name, NodeId node, Cycle now) const
{
    tracer_->idEvent(name, collChainId(node), now, node);
}

} // namespace nifdy
