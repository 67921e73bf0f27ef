#include "net/channel.hh"

#include <algorithm>

#include "sim/kernel.hh"
#include "sim/log.hh"

namespace nifdy
{

Channel::Channel(const ChannelParams &params) : params_(params)
{
    panic_if(params_.cyclesPerFlit < 1, "cyclesPerFlit must be >= 1");
    panic_if(params_.latency < 0, "negative channel latency");
}

void
Channel::setConsumer(Steppable *consumer)
{
    consumer_ = consumer;
    // The slowest flit lands serialization + latency cycles out.
    consumer->reserveWakeReach(
        static_cast<Cycle>(classRate(NetClass::request) + params_.latency));
}

void
Channel::setProducer(Steppable *producer)
{
    producer_ = producer; // credits land one cycle out
}

int
Channel::classRate(NetClass cls) const
{
    (void)cls;
    // Time slicing halves the bandwidth each class sees.
    return params_.timeSliced ? params_.cyclesPerFlit * numNetClasses
                              : params_.cyclesPerFlit;
}

NIFDY_HOT bool
Channel::canPush(NetClass cls, Cycle now) const
{
    if (downAt(now))
        return false;
    int slot = params_.timeSliced ? static_cast<int>(cls) : 0;
    return nextFree_[slot] <= now;
}

void
Channel::addDownWindow(Cycle from, Cycle until)
{
    panic_if(until != 0 && until <= from,
             "empty channel down window [%llu, %llu)",
             static_cast<unsigned long long>(from),
             static_cast<unsigned long long>(until));
    down_.push_back({from, until});
}

Cycle
Channel::pushReadyAt(NetClass cls, Cycle now) const
{
    if (downAt(now))
        return now + 1;
    int slot = params_.timeSliced ? static_cast<int>(cls) : 0;
    return std::max(nextFree_[slot], now + 1);
}

bool
Channel::downAt(Cycle now) const
{
    for (const DownWindow &w : down_)
        if (now >= w.from && (w.until == 0 || now < w.until))
            return true;
    return false;
}

NIFDY_HOT void
Channel::push(const Flit &flit, Cycle now)
{
    panic_if(!flit.valid(), "pushing invalid flit");
    NetClass cls = flit.pkt->netClass;
    panic_if(!canPush(cls, now), "push on busy channel");
    int slot = params_.timeSliced ? static_cast<int>(cls) : 0;
    nextFree_[slot] = now + classRate(cls);
    Cycle arrival = now + classRate(cls) + params_.latency;
    flits_.push_back({arrival, flit}); // nifdy:alloc-ok(Ring grows to high-water then reuses)
    if (consumer_)
        consumer_->wakeAt(arrival);
    ++totalFlits_;
    ++classFlits_[static_cast<int>(cls)];
    probe_->linkFlit(this, flit, now);
    panic_if(capacityFlits_ > 0 && inFlight() > capacityFlits_,
             "channel over capacity: %d flits in flight, "
             "credit-bounded capacity %d (%s)",
             inFlight(), capacityFlits_,
             flit.pkt->toString().c_str());
}

NIFDY_HOT bool
Channel::hasFlit(Cycle now) const
{
    return !flits_.empty() && flits_.front().first <= now;
}

NIFDY_HOT Flit
Channel::pop(Cycle now)
{
    panic_if(!hasFlit(now), "pop on empty channel");
    Flit f = flits_.front().second;
    flits_.pop_front();
    return f;
}

NIFDY_HOT void
Channel::pushCredit(int vc, Cycle now)
{
    credits_.push_back({now + 1, vc}); // nifdy:alloc-ok(Ring grows to high-water then reuses)
    if (producer_)
        producer_->wakeAt(now + 1);
}

NIFDY_HOT bool
Channel::hasCredit(Cycle now) const
{
    return !credits_.empty() && credits_.front().first <= now;
}

NIFDY_HOT int
Channel::popCredit(Cycle now)
{
    panic_if(!hasCredit(now), "popCredit on empty credit queue");
    int vc = credits_.front().second;
    credits_.pop_front();
    return vc;
}

} // namespace nifdy
