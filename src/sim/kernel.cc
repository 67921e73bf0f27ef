#include "sim/kernel.hh"

#include <algorithm>
#include <sstream>

#include "sim/audit.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/profile.hh"

namespace nifdy
{

void
Steppable::reserveWakeReach(Cycle delay)
{
    wakeReach_ = std::max(wakeReach_, delay);
    if (stepper_)
        stepper_->layoutWheel(delay, stepper_->objects_.size());
}

void
Steppable::holdActive(Cycle until)
{
    if (stepper_)
        stepper_->holdActive(slot_, until);
}

void
Kernel::add(Steppable *obj, std::string name)
{
    panic_if(obj == nullptr, "Kernel::add(nullptr)");
    panic_if(obj->stepper_ != nullptr, "component '%s' registered twice",
             name.c_str());
    panic_if(passed_ != 0, "Kernel::add during a step");
    obj->stepper_ = this;
    obj->slot_ = static_cast<std::uint32_t>(objects_.size());
    if (objects_.empty()) {
        // One allocation per registry for a typical fabric instead of
        // a doubling chain from one slot.
        objects_.reserve(256);
        names_.reserve(256);
        deadline_.reserve(256);
    }
    objects_.push_back(obj);
    names_.push_back(std::move(name));
    deadline_.push_back(now_);
    layoutWheel(obj->wakeReach_, objects_.size());
}

void
Kernel::layoutWheel(Cycle reach, std::size_t n)
{
    reach = std::max(reach, wheelMask_);
    std::size_t slots = 2;
    while (slots <= reach)
        slots *= 2;
    const std::size_t words = std::max<std::size_t>(1, (n + 63) / 64);
    const std::size_t oldSlots = wheelMask_ + 1;
    if (slots == oldSlots && words == words_)
        return;
    panic_if(passed_ != 0, "timing wheel resized during a step");
    // Cold, setup-time only: re-file every pending wake under its
    // cycle's slot in the new geometry.
    std::vector<std::uint64_t> wheel(slots * words, 0);
    for (std::size_t s = 0; s < oldSlots; ++s) {
        const Cycle at = now_ + ((s - now_) & wheelMask_);
        for (std::size_t w = 0; w < words_; ++w)
            wheel[(at & (slots - 1)) * words + w] = wheel_[s * words_ + w];
    }
    wheel_ = std::move(wheel);
    words_ = words;
    wheelMask_ = slots - 1;
}

void
Kernel::wakeBeyondWheel(Cycle at)
{
    panic_if(passed_ != 0,
             "wake for cycle %llu at cycle %llu is beyond the timing "
             "wheel's %llu-cycle reach",
             static_cast<unsigned long long>(at),
             static_cast<unsigned long long>(now_),
             static_cast<unsigned long long>(wheelMask_));
    stepAll_ = true;
}

void
Kernel::holdActive(std::uint32_t slot, Cycle until)
{
    if (slot >= activeUntil_.size())
        activeUntil_.resize(objects_.size(), 0); // first hold only
    Cycle &held = activeUntil_[slot];
    if (until >= held) {
        held = until;
        activeHorizon_ = std::max(activeHorizon_, until);
        return;
    }
    // Cut short (a busy processor taken offline). Every-cycle
    // stepping would already have counted this cycle as active if
    // the kernel passed the component while it was still busy.
    if (held > now_ && slot < passed_)
        noteActivity();
    held = until;
    activeHorizon_ = *std::max_element(activeUntil_.begin(),
                                       activeUntil_.end());
}

NIFDY_HOT void
Kernel::step()
{
    if (probe_.profiler()) [[unlikely]] {
        stepProfiled();
        return;
    }
    const std::uint64_t before = activityEvents_;
    const Cycle now = now_;
    std::uint64_t *bits = &wheel_[(now & wheelMask_) * words_];
    const std::size_t n = objects_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!due(i, now, bits))
            continue;
        passed_ = i + 1;
        deadline_[i] = now + 1;
        objects_[i]->step(now);
    }
    endCycle(bits, before, nullptr);
}

NIFDY_HOT void
Kernel::endCycle(std::uint64_t *bits, std::uint64_t before, Profiler *timed)
{
    std::fill(bits, bits + words_, 0);
    passed_ = objects_.size();
    if (Audit *audit = probe_.audit()) {
        audit->endCycle(now_);
        if (timed)
            timed->phaseTimed(ProfPhase::audit);
    }
    if (metrics_) {
        metrics_->endCycle(now_);
        if (timed)
            timed->phaseTimed(ProfPhase::metrics);
    }
    if (timed)
        timed->endTimed();
    passed_ = 0;
    if (activityEvents_ != before || now_ < activeHorizon_)
        idleCycles_ = 0;
    else
        ++idleCycles_;
    ++now_;
}

NIFDY_HOT void
Kernel::stepProfiled()
{
    Profiler &p = *probe_.profiler();
    p.sync(objects_);
    const std::uint64_t before = activityEvents_;
    std::uint64_t prev = before;
    const Cycle now = now_;
    std::uint64_t *bits = &wheel_[(now & wheelMask_) * words_];
    const std::size_t n = objects_.size();
    const bool timed = p.timedCycle(now);
    // Chained clock on timed cycles: every read both closes one
    // account's segment and opens the next, so the per-component and
    // per-phase deltas telescope to the loop total exactly. The due
    // test of a skipped component lands in the next step's segment.
    if (timed)
        p.beginTimed();
    for (std::size_t i = 0; i < n; ++i) {
        if (!due(i, now, bits))
            continue;
        passed_ = i + 1;
        deadline_[i] = now + 1;
        objects_[i]->step(now);
        const std::uint64_t after = activityEvents_;
        if (timed)
            p.componentTimed(i, after != prev);
        else
            p.componentStep(i, after != prev);
        prev = after;
    }
    p.countCycle();
    endCycle(bits, before, timed ? &p : nullptr);
}

NIFDY_HOT Cycle
Kernel::run(Cycle maxCycles, const std::function<bool()> &done)
{
    Cycle executed = 0;
    while (executed < maxCycles) {
        if (done && done())
            break;
        step();
        ++executed;
        if (watchdogLimit_ && idleCycles_ >= watchdogLimit_)
            [[unlikely]]
        {
            if (done)
                watchdogPanic();
            // Without a completion predicate, quiescence simply
            // means there is nothing left to simulate.
            break;
        }
    }
    return executed;
}

void
Kernel::watchdogPanic() const
{
    // Cold by construction: building the message allocates, which
    // must stay out of the NIFDY_HOT run loop above. Name the
    // components still due in the next cycle: in a wedged run those
    // are the ones spinning without progress.
    constexpr std::size_t maxNamed = 4;
    const std::uint64_t *bits = &wheel_[(now_ & wheelMask_) * words_];
    std::ostringstream os;
    os << "no activity for " << idleCycles_ << " cycles at cycle "
       << now_ << " with unfinished work (" << objects_.size()
       << " components";
    std::size_t named = 0;
    std::size_t dueCount = 0;
    for (std::size_t i = 0; i < objects_.size(); ++i) {
        if (!due(i, now_, bits))
            continue;
        if (named < maxNamed) {
            os << (named == 0 ? "; due: " : ", ");
            if (names_[i].empty())
                os << '#' << i;
            else
                os << names_[i];
            ++named;
        }
        ++dueCount;
    }
    if (dueCount > named)
        os << " +" << dueCount - named << " more";
    if (dueCount == 0)
        os << "; none due";
    os << ")";
    panic("deadlock watchdog: %s", os.str().c_str());
}

} // namespace nifdy
