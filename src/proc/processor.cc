#include "proc/processor.hh"

#include "proc/workload.hh"
#include "sim/log.hh"

namespace nifdy
{

Processor::Processor(NodeId id, Nic &nic, const ProcParams &params)
    : id_(id), nic_(nic), params_(params)
{
}

void
Processor::setOffline(bool offline, Cycle now)
{
    offline_ = offline;
    if (offline) {
        // Whatever it was computing dies with it.
        busyUntil_ = now;
        holdActive(now);
    }
    wake();
}

NIFDY_HOT void
Processor::step(Cycle now)
{
    if (offline_ || !workload_) {
        sleepUntil(neverCycle); // setOffline()/setWorkload() wake us
        return;
    }
    if (busy(now)) {
        if (kernel_)
            kernel_->noteActivity();
    } else {
        workload_->tick(now);
    }
    // A busy cycle only notes activity, which holdActive() already
    // accounts for, so sleep through the rest of the busy period.
    sleepUntil(busyUntil_);
}

void
Processor::compute(Cycle cycles, Cycle now)
{
    if (cycles == 0)
        return;
    // Additive: charging twice in one tick stacks the costs.
    busyUntil_ = std::max(busyUntil_, now) + cycles;
    cyclesBusy_ += cycles;
    if (kernel_)
        kernel_->noteActivity();
    holdActive(busyUntil_);
}

bool
Processor::sendPacket(Packet *pkt, Cycle now)
{
    panic_if(pkt == nullptr, "sendPacket(nullptr)");
    if (!nic_.canSend(*pkt))
        return false;
    nic_.send(pkt, now);
    compute(params_.tSend, now);
    ++sends_;
    return true;
}

Packet *
Processor::poll(Cycle now)
{
    Packet *pkt = nic_.pollReceive(now);
    if (pkt) {
        compute(params_.tReceive, now);
        ++receives_;
    } else {
        compute(params_.tPoll, now);
        ++emptyPolls_;
    }
    return pkt;
}

} // namespace nifdy
