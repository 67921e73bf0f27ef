#include "net/router.hh"

#include <algorithm>

#include "sim/anatomy.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

namespace nifdy
{

Router::Router(int id, const RouterParams &params)
    : rng_(params.seed, 0x7000 + id), id_(id), params_(params),
      numVCs_(numNetClasses * params.vcsPerClass)
{
    panic_if(params_.vcsPerClass < 1, "router needs >= 1 VC per class");
    panic_if(params_.bufDepth < 1, "router needs >= 1 flit buffer");
}

int
Router::addInPort(Channel *ch)
{
    InPort p;
    p.ch = ch;
    p.vcs.resize(numVCs_);
    ins_.push_back(std::move(p));
    ch->setConsumer(this);
    return static_cast<int>(ins_.size()) - 1;
}

int
Router::addOutPort(Channel *ch, int depth)
{
    OutPort p;
    p.ch = ch;
    p.credits.assign(numVCs_, depth);
    p.owner.assign(numVCs_, -1);
    // The credit discipline bounds what this channel can carry.
    ch->setCapacityFlits(numVCs_ * depth);
    ch->setProducer(this);
    outs_.push_back(std::move(p));
    return static_cast<int>(outs_.size()) - 1;
}

int
Router::creditsAvailable(int outPort, NetClass cls) const
{
    const OutPort &op = outs_[outPort];
    int base = static_cast<int>(cls) * params_.vcsPerClass;
    int total = 0;
    for (int v = 0; v < params_.vcsPerClass; ++v)
        total += op.credits[base + v];
    return total;
}

bool
Router::anyOutDownWindows() const
{
    for (const OutPort &op : outs_)
        if (op.ch->hasDownWindows())
            return true;
    return false;
}

int
Router::bufferCapacityFlits() const
{
    return static_cast<int>(ins_.size()) * numVCs_ * params_.bufDepth;
}

unsigned
Router::vcMaskForHop(int outPort, Packet &pkt)
{
    (void)outPort;
    (void)pkt;
    return ~0u;
}

void
Router::onAllocate(Packet &pkt, int outPort, int subVc)
{
    (void)pkt;
    (void)outPort;
    (void)subVc;
}

NIFDY_HOT void
Router::step(Cycle now)
{
    // Absorb returned credits.
    for (OutPort &op : outs_) {
        while (op.ch->hasCredit(now)) {
            int vc = op.ch->popCredit(now);
            ++op.credits[vc];
            panic_if(op.credits[vc] > params_.bufDepth * 8,
                     "credit leak on router %d", id_);
        }
    }

    // Absorb arriving flits into their VC buffers.
    for (InPort &ip : ins_) {
        while (ip.ch->hasFlit(now)) {
            Flit f = ip.ch->pop(now);
            if (faults_ &&
                faults_->filterArrival(id_, ip.ch, f, now, *probe_)) {
                // Swallowed by fault injection. Return the input
                // buffer credit the upstream hop charged for this
                // flit so the loss stays invisible to flow control.
                ip.ch->pushCredit(f.vc, now);
                if (kernel_)
                    kernel_->noteActivity();
                continue;
            }
            VirtChan &vc = ip.vcs[f.vc];
            vc.buf.push_back(f); // nifdy:alloc-ok(Ring grows to bufDepth then reuses)
            ++bufferedFlits_;
            panic_if(static_cast<int>(vc.buf.size()) >
                         params_.bufDepth,
                     "buffer overflow on router %d vc %d", id_, f.vc);
        }
    }

    if (bufferedFlits_ == 0) {
        // Nothing to forward until a flit arrives, and its channel
        // wakes us when it does. Every output's stall level is down:
        // the pass that emptied us saw no refused request.
        sleepUntil(neverCycle);
        return;
    }

    // Route computation + VC allocation for fresh head flits.
    bool allocBlocked = false;
    for (int p = 0; p < static_cast<int>(ins_.size()); ++p) {
        for (int v = 0; v < numVCs_; ++v) {
            VirtChan &vc = ins_[p].vcs[v];
            if (!vc.active && !vc.buf.empty() &&
                vc.buf.front().head && !tryAllocate(p, v, now)) {
                allocBlocked = true;
                probe_->arbLoss(*vc.buf.front().pkt, now);
            }
        }
    }

    const Cycle ready = switchPass(now);
    if (bufferedFlits_ == 0) {
        sleepUntil(neverCycle);
        return;
    }
    // Stepping again before `ready` would be a no-op: the same heads
    // would fail allocation (re-stamping an unchanged anatomy cause)
    // and the same outputs stay stalled (the published level holds).
    // Not so while a blocked head waits out a link outage, or while
    // a retransmission clone may move the record a blocked head
    // keeps re-stamping. Flits and credits wake us on arrival.
    const Anatomy *anat = probe_->anatomy();
    if (allocBlocked &&
        (anyOutDownWindows() || (anat && anat->clonesShareRecords())))
        return;
    sleepUntil(ready);
}

NIFDY_HOT bool
Router::tryAllocate(int inPort, int vcIdx, Cycle now)
{
    VirtChan &vc = ins_[inPort].vcs[vcIdx];
    Packet &pkt = *vc.buf.front().pkt;

    candidateScratch_.clear();
    bool adaptive = route(inPort, pkt, candidateScratch_);
    panic_if(candidateScratch_.empty(),
             "router %d: no route for %s", id_, pkt.toString().c_str());

    NetClass cls = pkt.netClass;
    int base = static_cast<int>(cls) * params_.vcsPerClass;

    int bestPort = -1;
    int bestVC = -1;
    int bestScore = -1;
    int ties = 0;
    for (int op : candidateScratch_) {
        OutPort &out = outs_[op];
        // Fault-aware routing: never commit a packet to a link that
        // is down right now; adaptive topologies reroute around it.
        if (out.ch->downAt(now))
            continue;
        unsigned mask = vcMaskForHop(op, pkt);
        // Find a free output VC within the class, preferring one
        // that has credits right now.
        int freeVC = -1;
        bool freeHasCredit = false;
        for (int s = 0; s < params_.vcsPerClass; ++s) {
            if (!(mask & (1u << s)))
                continue;
            int idx = base + s;
            if (out.owner[idx] != -1)
                continue;
            bool has = out.credits[idx] > 0;
            if (params_.allocNeedsCredit && !has)
                continue;
            if (freeVC == -1 || (has && !freeHasCredit)) {
                freeVC = idx;
                freeHasCredit = has;
            }
        }
        if (freeVC == -1)
            continue;
        int score = freeHasCredit ? 1 + creditsAvailable(op, cls) : 0;
        if (!adaptive) {
            // First allocatable candidate wins outright.
            bestPort = op;
            bestVC = freeVC;
            break;
        }
        if (score > bestScore) {
            bestScore = score;
            bestPort = op;
            bestVC = freeVC;
            ties = 1;
        } else if (score == bestScore && ties > 0) {
            // Reservoir-sample among equally good candidates.
            ++ties;
            if (rng_.nextBounded(ties) == 0) {
                bestPort = op;
                bestVC = freeVC;
            }
        }
    }

    if (bestPort == -1)
        return false;

    vc.active = true;
    vc.cls = cls;
    vc.outPort = bestPort;
    vc.outVC = bestVC;
    outs_[bestPort].owner[bestVC] = inVcId(inPort, vcIdx);
    outs_[bestPort].reqs.push_back( // nifdy:alloc-ok(vector capacity persists at numVCs high-water)
        {inPort, vcIdx});
    onAllocate(pkt, bestPort, bestVC % params_.vcsPerClass);
    probe_->hop(pkt, id_, now);
    return true;
}

NIFDY_HOT Cycle
Router::switchPass(Cycle now)
{
    Cycle ready = neverCycle;
    for (int op = 0; op < static_cast<int>(outs_.size()); ++op) {
        OutPort &out = outs_[op];
        const int nReqs = static_cast<int>(out.reqs.size());
        // A request that wants this output and is refused (no
        // credit, busy serializer, SAF tail wait) stalls the link.
        bool stalled = false;
        // Round-robin over the input VCs routed to this output.
        int slot = nReqs > 0 ? out.rr % nReqs : 0;
        for (int k = 0; k < nReqs; ++k, ++slot) {
            if (slot == nReqs)
                slot = 0;
            const InVcRef ref = out.reqs[slot];
            InPort &in = ins_[ref.port];
            // Input-port crossbar constraint: one departure per
            // input port per cycle; next cycle this one may go.
            if (in.usedAt == now) {
                ready = now + 1;
                continue;
            }
            VirtChan &vc = in.vcs[ref.vc];
            if (vc.buf.empty())
                continue;
            if (out.credits[vc.outVC] <= 0) {
                stalled = true;
                continue;
            }
            if (!out.ch->canPush(vc.cls, now)) {
                stalled = true;
                ready = std::min(ready, out.ch->pushReadyAt(vc.cls, now));
                continue;
            }
            Flit &front = vc.buf.front();
            if (params_.storeAndForward && front.head) {
                // The whole packet must be buffered before the head
                // may leave.
                bool tailHere = false;
                for (const Flit &f : vc.buf) {
                    if (f.tail) {
                        tailHere = true;
                        break;
                    }
                }
                if (!tailHere) {
                    stalled = true;
                    continue;
                }
            }

            Flit f = front;
            vc.buf.pop_front();
            --bufferedFlits_;
            f.vc = static_cast<std::int8_t>(vc.outVC);
            out.ch->push(f, now);
            --out.credits[vc.outVC];
            // Return the freed input buffer slot upstream.
            in.ch->pushCredit(ref.vc, now);
            ++flitsSwitched_;
            if (kernel_)
                kernel_->noteActivity();
            if (f.tail) {
                out.owner[vc.outVC] = -1;
                vc.active = false;
                vc.outPort = -1;
                vc.outVC = -1;
                out.reqs.erase(out.reqs.begin() + slot);
                // The freed output VC and this input VC's next head
                // are allocated next cycle.
                ready = now + 1;
            }
            in.usedAt = now;
            out.rr = slot + 1;
            // Requests not yet scanned wait for this output's
            // serializers.
            for (int c = 0; c < numNetClasses; ++c)
                ready = std::min(ready, out.ch->pushReadyAt(
                                            static_cast<NetClass>(c), now));
            break; // this output port is busy now
        }
        probe_->stallLevel(out.ch, out.stalled, stalled, now);
    }
    return ready;
}

} // namespace nifdy
