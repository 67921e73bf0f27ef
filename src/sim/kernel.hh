/**
 * @file
 * Cycle-synchronous, activity-driven simulation kernel.
 *
 * Each cycle the kernel steps, in registration order, every
 * component that can act in it; a component that provably cannot is
 * skipped. Inter-component communication goes through Channel
 * objects whose contents only become visible at a later cycle, so
 * the order in which components step within one cycle is immaterial
 * -- this mirrors the paper's fully synchronous simulator ("Each
 * cycle is simulated explicitly and synchronously by all objects").
 * Skipping changes nothing observable: a component is skipped only
 * when stepping it would be a no-op, so every report is identical to
 * stepping every component every cycle.
 *
 * A component is due at cycle t when its own deadline has come or
 * someone woke it for t:
 *  - the deadline is reset to t+1 before each step, so a component
 *    that never calls sleepUntil() is stepped every cycle;
 *  - outside wake-ups (a flit or credit pushed onto a channel, a
 *    processor handing a packet to its NIC) set the component's bit
 *    in a small timing wheel of per-cycle bitsets, so a wake is
 *    never lost to a later sleepUntil() and no component has to
 *    rescan its inputs before it sleeps.
 * See DESIGN.md section 2.1.
 */

#ifndef NIFDY_SIM_KERNEL_HH
#define NIFDY_SIM_KERNEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/probe.hh"
#include "sim/types.hh"

namespace nifdy
{

class Kernel;
class Metrics;

/** Anything the Kernel advances cycle by cycle. */
class Steppable
{
  public:
    virtual ~Steppable() = default;

    /** Advance one cycle. @param now the cycle being executed. */
    virtual void step(Cycle now) = 0;

    /**
     * Component-class label for the host-cost profiler's roll-up
     * (sim/profile.hh): "router", "nifdy-nic", "plain-nic", "proc",
     * "fault-driver". Must be a string constant, stable for the
     * component's lifetime.
     */
    virtual const char *profileClass() const { return "other"; }

    //! @name Wake-ups (no-ops until the component is registered)
    //! @{
    /** Step this component as soon as possible: in the current
     * cycle if the kernel has not reached it yet, else the next. */
    inline void wake();

    /** Step this component at cycle @p at (clamped to the earliest
     * cycle wake() would give). */
    inline void wakeAt(Cycle at);

    /**
     * Declare that wakeAt() calls reach up to @p delay cycles ahead,
     * so the kernel's timing wheel spans them. Channels declare
     * their transit delay when they attach a consumer.
     */
    void reserveWakeReach(Cycle delay);
    //! @}

  protected:
    /**
     * Skip every cycle before @p at unless woken: the component
     * declares that stepping it earlier would be a no-op. Honoured
     * only inside this component's own kernel-driven step(); a
     * caller that steps components itself (a replay) is unaffected.
     */
    inline void sleepUntil(Cycle at);

    /**
     * Deadlock-watchdog accounting for a component that sleeps while
     * busy: every cycle before @p until counts as activity, exactly
     * as if the component had been stepped and called
     * noteActivity(). A smaller value than the last one cuts the
     * hold short.
     */
    void holdActive(Cycle until);

    /**
     * One past the last cycle the registering kernel has carried
     * this component through, stepped or skipped: now + 1 once the
     * kernel has passed the component in the current cycle, else
     * now (0 while unregistered). Lets a sleeping component settle
     * per-cycle accounts on demand.
     */
    inline Cycle cyclesPassed() const;

  private:
    friend class Kernel;
    Kernel *stepper_ = nullptr; //!< the kernel that registered us
    std::uint32_t slot_ = 0;    //!< registration index in stepper_
    Cycle wakeReach_ = 1;
};

/**
 * The simulation engine: a registry of Steppable components, the
 * wake-up bookkeeping that skips components which cannot act, and a
 * run loop with a no-progress watchdog.
 */
class Kernel
{
  public:
    Kernel() = default;
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Register a component (non-owning; must outlive the kernel).
     * It is due at the current cycle and then every cycle until it
     * first sleeps.
     */
    void add(Steppable *obj, std::string name = "");

    /** Current simulated cycle (the next one to execute). */
    Cycle now() const { return now_; }

    /** Execute exactly one cycle. */
    void step();

    /**
     * Run until @p done returns true or @p maxCycles have executed.
     * @return the cycle count at exit.
     *
     * If no component reports activity for watchdogLimit() cycles
     * while the predicate is still false, the kernel panics, naming
     * the first few components still due to step -- this catches
     * protocol or routing deadlocks in simulations that should
     * otherwise make progress.
     */
    Cycle run(Cycle maxCycles,
              const std::function<bool()> &done = nullptr);

    /**
     * Components call this whenever they make observable progress
     * (move a flit, deliver a packet, consume a busy cycle). Feeds
     * the deadlock watchdog, and -- via before/after comparisons of
     * the event counter around each step() call -- the profiler's
     * per-component idle-work account.
     */
    void noteActivity() { ++activityEvents_; }

    /**
     * Reference mode: step every component every cycle, ignoring
     * deadlines and wakes. Skipping must reproduce this exactly;
     * tests compare the two.
     */
    void setStepAll(bool on) { stepAll_ = on; }

    /** Cycles of global inactivity tolerated before panicking. */
    void setWatchdogLimit(Cycle limit) { watchdogLimit_ = limit; }
    Cycle watchdogLimit() const { return watchdogLimit_; }

    /**
     * The observers of this kernel's components (sim/probe.hh).
     * Besides fanning out events, the kernel runs the attached
     * audit's polled checks at the end of every cycle, after all
     * components have stepped, and takes the profiled step path
     * while a profiler is attached; detached, the hot loop pays
     * exactly one pointer test, so profile-off runs are
     * byte-identical.
     */
    Probe &probe() { return probe_; }
    const Probe &probe() const { return probe_; }

    /**
     * Attach a metric registry (non-owning, may be nullptr): its
     * snapshot clock ticks at the end of every cycle, after the
     * audit's polled checks.
     */
    void setMetrics(Metrics *metrics) { metrics_ = metrics; }
    Metrics *metrics() const { return metrics_; }

  private:
    friend class Steppable;

    /** Set @p slot's wheel bit for cycle @p at (see
     * Steppable::wakeAt). */
    void wakeAt(std::uint32_t slot, Cycle at)
    {
        if (at <= now_)
            at = slot < passed_ ? now_ + 1 : now_;
        if (at - now_ > wheelMask_) [[unlikely]] {
            wakeBeyondWheel(at);
            return;
        }
        wheel_[(at & wheelMask_) * words_ + (slot >> 6)] |=
            std::uint64_t{1} << (slot & 63);
    }

    void sleepUntil(std::uint32_t slot, Cycle at)
    {
        // Only the component being stepped by this kernel may sleep.
        if (slot + 1 == passed_)
            deadline_[slot] = at > now_ + 1 ? at : now_ + 1;
    }

    void holdActive(std::uint32_t slot, Cycle until);

    Cycle cyclesPassed(std::uint32_t slot) const
    {
        return slot < passed_ ? now_ + 1 : now_;
    }

    /** Size the wheel for wakes @p reach cycles ahead and @p n
     * components, keeping every pending wake. */
    void layoutWheel(Cycle reach, std::size_t n);

    /** A wake the wheel cannot hold: a panic inside a step (the
     * wheel was sized wrong); outside one (a caller stepping the
     * components itself), the kernel falls back to stepAll mode. */
    void wakeBeyondWheel(Cycle at);

    /** Is component @p i due at cycle @p now? */
    bool due(std::size_t i, Cycle now, const std::uint64_t *bits) const
    {
        return deadline_[i] <= now || stepAll_ ||
               ((bits[i >> 6] >> (i & 63)) & 1);
    }

    /** Common tail of step() and stepProfiled(): clear this
     * cycle's wakes, run the audit and metrics hooks (charging them
     * to @p timed on a timed cycle), count idleness, advance. */
    void endCycle(std::uint64_t *bits, std::uint64_t before,
                  Profiler *timed);

    /** Build and raise the deadlock-watchdog panic message (cold:
     * keeps string formatting out of the hot run loop). */
    [[noreturn]] void watchdogPanic() const;

    /** step() with the attached profiler's accounts active. */
    void stepProfiled();

    Cycle now_ = 0;
    /** Monotone count of noteActivity() calls. */
    std::uint64_t activityEvents_ = 0;
    Cycle idleCycles_ = 0;
    Cycle watchdogLimit_ = 200000;
    std::vector<Steppable *> objects_;
    std::vector<std::string> names_;
    /** Per component: the first cycle it is due without a wake. */
    std::vector<Cycle> deadline_;
    /** Per component: holdActive() horizon; activeHorizon_ is the
     * maximum, so cycles before it count as activity. */
    std::vector<Cycle> activeUntil_;
    Cycle activeHorizon_ = 0;
    /** Timing wheel: (wheelMask_ + 1) per-cycle bitsets of words_
     * words each; slot (t & wheelMask_) holds the wakes for t. */
    std::vector<std::uint64_t> wheel_ = {0, 0};
    std::size_t words_ = 1;
    Cycle wheelMask_ = 1;
    /** Components already reached in cycle now_ (0 between
     * cycles): a wake for now_ at or below it goes to now_ + 1. */
    std::size_t passed_ = 0;
    bool stepAll_ = false;
    Probe probe_;
    Metrics *metrics_ = nullptr;
};

inline void
Steppable::wake()
{
    if (stepper_)
        stepper_->wakeAt(slot_, 0);
}

inline void
Steppable::wakeAt(Cycle at)
{
    if (stepper_)
        stepper_->wakeAt(slot_, at);
}

inline void
Steppable::sleepUntil(Cycle at)
{
    if (stepper_)
        stepper_->sleepUntil(slot_, at);
}

inline Cycle
Steppable::cyclesPassed() const
{
    return stepper_ ? stepper_->cyclesPassed(slot_) : 0;
}

} // namespace nifdy

#endif // NIFDY_SIM_KERNEL_HH
