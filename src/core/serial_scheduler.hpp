/**
 * @file
 * The one serial scheduler loop behind live monitoring (Platform),
 * replay (ReplayPlatform) and the timesliced baseline (Timesliced).
 * Producers and lifeguard cores advance on one simulated clock (Figure
 * 2): each iteration jumps to the earliest ready actor, lets the
 * producers act, then steps every ready lifeguard core under the
 * solo-batching horizon. The loop owns the stall guard the engines
 * share (livelock detector, maxCycles and progress watchdogs) and the
 * state dump printed before any of them panics.
 *
 * An engine supplies only its producer side, as private members this
 * class (a friend) calls, inlined into the loop: producersDone(),
 * nextProducerCycle() (~0: none), produce(now, lg_steps),
 * soloHorizon() (earliest time a producer-side actor can act),
 * afterLgStep(n) (n single-pop lifeguard steps just ran),
 * foldState(fold, lg_steps) (progress terms) and
 * dumpStream(t) (one line of stream t's producer state).
 */

#ifndef PARALOG_CORE_SERIAL_SCHEDULER_HPP
#define PARALOG_CORE_SERIAL_SCHEDULER_HPP

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "core/lifeguard_core.hpp"
#include "deliver/progress_table.hpp"
#include "lifeguard/version_store.hpp"

namespace paralog {

/**
 * Detects a wedged simulation: feed a cheap signature of global
 * progress every scheduler iteration; fires once the signature has not
 * changed for `limit` consecutive polls. Pure bookkeeping (no time
 * source), so runs stay deterministic.
 */
class ProgressWatchdog
{
  public:
    explicit ProgressWatchdog(std::uint64_t limit) : limit_(limit) {}

    bool
    poll(std::uint64_t signature)
    {
        if (signature != last_) {
            last_ = signature;
            same_ = 0;
            return false;
        }
        return ++same_ >= limit_;
    }

    std::uint64_t idlePolls() const { return same_; }

  private:
    std::uint64_t limit_;
    std::uint64_t last_ = ~0ULL;
    std::uint64_t same_ = 0;
};

/** FNV-style fold of stall-signature terms. Folded rather than summed:
 *  the producer moving a record from overflow to ring changes two
 *  terms in opposite directions, which a plain sum would cancel. */
struct SignatureFold
{
    std::uint64_t sig = kFnvBasis;
    void operator()(std::uint64_t v) { sig = (sig ^ v) * kFnvPrime; }
};

/**
 * The simulated-time checks of every loop that owns the clock (the
 * serial scheduler and the concurrent live producer): the livelock
 * detector and the maxCycles watchdog. The caller dumps its state and
 * panics with why() when a check fires. @p prefix names the engine in
 * the message ("replay "; empty for live).
 */
class ClockGuard
{
  public:
    ClockGuard(std::string prefix, std::uint64_t max_cycles)
        : prefix_(std::move(prefix)), maxCycles_(max_cycles)
    {
    }

    /** Before the advance: true once simulated time has stood still
     *  for 20M iterations. */
    bool
    livelocked(Cycle now)
    {
        if (now != last_) {
            last_ = now;
            same_ = 0;
            return false;
        }
        return ++same_ > 20'000'000;
    }

    /** After the advance: true once the run passed maxCycles. */
    bool overdue(Cycle now) const { return now > maxCycles_; }

    /** The panic message of the check that fired at @p now. */
    std::string
    why(Cycle now) const
    {
        if (overdue(now)) {
            return strprintf("%ssimulation watchdog: no completion after "
                             "%llu cycles (deadlock or runaway workload)",
                             prefix_.c_str(),
                             static_cast<unsigned long long>(maxCycles_));
        }
        return strprintf("%slivelock: cycle %llu never advances",
                         prefix_.c_str(),
                         static_cast<unsigned long long>(now));
    }

  private:
    std::string prefix_;
    std::uint64_t maxCycles_;
    Cycle last_ = 0;
    std::uint64_t same_ = 0;
};

class SerialScheduler
{
  public:
    /** @p engine names the engine in watchdog output ("" = live). */
    SerialScheduler(const char *engine, std::uint64_t max_cycles,
                    std::uint64_t stall_watchdog_iters,
                    const std::vector<std::unique_ptr<LifeguardCore>> &cores,
                    const ProgressTable &progress, VersionStore &versions)
        : prefix_(*engine ? std::string(engine) + " " : std::string()),
          maxCycles_(max_cycles), stallWatchdogIters_(stall_watchdog_iters),
          progress_(progress), versions_(versions),
          produced_(versions.stats.counter("produced")),
          consumed_(versions.stats.counter("consumed"))
    {
        // Scanned once per simulated event: keep it a flat array.
        for (const auto &c : cores)
            lgs_.push_back(c.get());
    }

    /** Run to completion; returns the final simulated time. */
    template <typename Hooks>
    Cycle
    run(Hooks &hooks)
    {
        Cycle now = 0;
        std::uint64_t lg_steps = 0;
        ClockGuard clock(prefix_, maxCycles_);

        // Progress watchdog: a deadlocked ordering/versioning protocol
        // is a retry loop that keeps simulated time advancing, which
        // neither the livelock detector nor maxCycles catches in useful
        // time. Sampled every 64 iterations to stay off the profile.
        ProgressWatchdog stall(stallWatchdogIters_ / 64 + 1);
        std::uint64_t tick = 0;

        auto finished = [](const LifeguardCore *c) { return c->finished(); };
        while (!(hooks.producersDone() &&
                 std::all_of(lgs_.begin(), lgs_.end(), finished))) {
            if (clock.livelocked(now))
                fail(hooks, now, lg_steps, clock.why(now));
            if ((++tick & 63) == 0 &&
                stall.poll(signature(hooks, lg_steps))) {
                fail(hooks, now, lg_steps,
                     strprintf("%sprogress watchdog: no forward progress "
                               "in %llu scheduler iterations at cycle %llu "
                               "(protocol deadlock)",
                               prefix_.c_str(),
                               static_cast<unsigned long long>(
                                   stallWatchdogIters_),
                               static_cast<unsigned long long>(now)));
            }

            // Event-driven advance: jump to the earliest ready actor.
            Cycle next = hooks.nextProducerCycle();
            for (const LifeguardCore *c : lgs_) {
                if (!c->finished())
                    next = std::min(next, c->busyUntil);
            }
            if (next > now)
                now = next;
            if (clock.overdue(now))
                fail(hooks, now, lg_steps, clock.why(now));

            hooks.produce(now, lg_steps);

            // Lifeguard phase. The producer side of the solo horizon is
            // computed lazily: most iterations step no lifeguard core.
            Cycle actor_horizon = 0;
            bool horizon_valid = false;
            for (std::size_t i = 0; i < lgs_.size(); ++i) {
                LifeguardCore *c = lgs_[i];
                if (c->finished() || c->busyUntil > now)
                    continue;
                if (!horizon_valid) {
                    actor_horizon = hooks.soloHorizon();
                    horizon_valid = true;
                }
                // Other lifeguard cores are actors too: a peer that is
                // ready (or becomes ready inside the window) bounds the
                // batch so same-cycle interleaving stays exact.
                Cycle horizon = actor_horizon;
                for (std::size_t j = 0; j < lgs_.size(); ++j) {
                    if (j != i && !lgs_[j]->finished())
                        horizon = std::min(horizon, lgs_[j]->busyUntil);
                }
                // A batch counts as the single-pop steps it stands for,
                // which is what the journal stamps.
                const std::uint32_t n = c->step(now, horizon);
                hooks.afterLgStep(n);
                lg_steps += n;
            }
        }
        return now;
    }

  private:
    /** Global progress, as the progress watchdog samples it. */
    template <typename Hooks>
    std::uint64_t
    signature(Hooks &hooks, std::uint64_t lg_steps) const
    {
        SignatureFold fold;
        fold(produced_.value());
        fold(consumed_.value());
        for (const LifeguardCore *c : lgs_)
            fold(c->stats.recordsProcessed);
        for (ThreadId t = 0; t < progress_.size(); ++t)
            fold(progress_.done(t));
        hooks.foldState(fold, lg_steps);
        return fold.sig;
    }

    /** Print the state dump, then panic with @p why. The dump holds,
     *  per stream, the engine's line and the lifeguard core's lines;
     *  then the version store. */
    template <typename Hooks>
    [[noreturn]] void
    fail(Hooks &hooks, Cycle now, std::uint64_t lg_steps,
         const std::string &why) const
    {
        std::fprintf(stderr,
                     "=== %swatchdog state dump (now=%llu lg_steps=%llu) "
                     "===\n",
                     prefix_.c_str(), static_cast<unsigned long long>(now),
                     static_cast<unsigned long long>(lg_steps));
        for (ThreadId t = 0; t < progress_.size(); ++t) {
            hooks.dumpStream(t);
            if (t < lgs_.size())
                lgs_[t]->dumpState();
        }
        std::fprintf(stderr, "version store: %zu live entr%s\n",
                     versions_.size(), versions_.size() == 1 ? "y" : "ies");
        versions_.forEach([](const VersionTag &tag,
                             const VersionStore::Versioned &v) {
            std::fprintf(stderr,
                         "  (tid=%u rid=%llu): addr=0x%llx size=%u "
                         "writerDone=%d bits=0x%llx\n",
                         tag.tid, static_cast<unsigned long long>(tag.rid),
                         static_cast<unsigned long long>(v.addr), v.size,
                         v.writerDone ? 1 : 0,
                         static_cast<unsigned long long>(v.bits));
        });
        panic("%s", why.c_str());
    }

    std::string prefix_;
    std::uint64_t maxCycles_;
    std::uint64_t stallWatchdogIters_;
    std::vector<LifeguardCore *> lgs_;
    const ProgressTable &progress_;
    VersionStore &versions_;
    const Counter &produced_;
    const Counter &consumed_;
};

} // namespace paralog

#endif // PARALOG_CORE_SERIAL_SCHEDULER_HPP
