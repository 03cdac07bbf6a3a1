#include "core/consumer_pool.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"

namespace paralog {

ConsumerPool::ConsumerPool(
    Engine engine, const std::vector<std::unique_ptr<CaptureUnit>> &captures,
    const std::vector<std::unique_ptr<LifeguardCore>> &cores,
    const ProgressTable &progress, VersionStore &versions)
    : engine_(std::move(engine)), captures_(captures), cores_(cores),
      progress_(progress),
      produced_(versions.stats.counter("produced")),
      consumed_(versions.stats.counter("consumed")),
      producerWatchdog_(engine_.stallWatchdogIters / 64 + 1)
{
    if (std::optional<std::uint64_t> v = faultValue("lg.fail"))
        failTid_ = static_cast<ThreadId>(*v);
    if (std::optional<std::uint64_t> v = faultValue("seal.stall"))
        stallStream_ = static_cast<ThreadId>(*v);

    const std::uint32_t k = static_cast<std::uint32_t>(captures.size());
    for (ThreadId t = 0; t < k; ++t) {
        rings_.emplace_back(kRingSlots);
        captures_[t]->attachRing(&rings_[t]);
    }

    nConsumers_ = std::min<std::uint32_t>(engine_.lgThreads, k);
    threads_.reserve(nConsumers_);
    running_.store(nConsumers_, std::memory_order_relaxed);
    try {
        for (std::uint32_t slot = 0; slot < nConsumers_; ++slot) {
            threads_.emplace_back([this, slot] {
                try {
                    consume(slot);
                } catch (...) {
                    std::lock_guard<std::mutex> g(errMutex_);
                    if (!firstError_)
                        firstError_ = std::current_exception();
                    abort_.store(true, std::memory_order_release);
                }
                running_.fetch_sub(1, std::memory_order_release);
            });
        }
    } catch (...) {
        // No destructor runs for a throwing constructor: join the
        // threads already started before the members go away.
        abort_.store(true, std::memory_order_release);
        joinAll();
        throw;
    }
}

ConsumerPool::~ConsumerPool()
{
    abort_.store(true, std::memory_order_release);
    joinAll();
}

void
ConsumerPool::consume(std::uint32_t slot)
{
    std::vector<ThreadId> mine;
    std::vector<Cycle> nows;
    for (ThreadId t = slot; t < cores_.size(); t += nConsumers_) {
        mine.push_back(t);
        nows.push_back(0);
    }
    for (;;) {
        if (aborted())
            return;
        bool all_done = true;
        bool progressed = false;
        for (std::size_t i = 0; i < mine.size(); ++i) {
            LifeguardCore *core = cores_[mine[i]].get();
            if (core->finished())
                continue;
            all_done = false;
            if (mine[i] == failTid_)
                panic("lg.fail: injected failure on lifeguard thread %u",
                      mine[i]);
            std::uint64_t before = core->stats.recordsProcessed;
            if (engine_.serializeSteps) {
                std::lock_guard<std::mutex> g(stepMutex_);
                core->step(nows[i], ~Cycle{0});
            } else {
                core->step(nows[i], ~Cycle{0});
            }
            nows[i] = std::max(nows[i], core->busyUntil);
            progressed |= (core->stats.recordsProcessed != before);
        }
        if (all_done)
            return;
        if (!progressed)
            std::this_thread::yield();
    }
}

std::uint64_t
ConsumerPool::signature() const
{
    SignatureFold fold;
    fold(produced_.value());
    fold(consumed_.value());
    for (ThreadId t = 0; t < captures_.size(); ++t) {
        fold(rings_[t].published());
        fold(rings_[t].popped());
        fold(captures_[t]->overflowSize());
        fold(captures_[t]->ceilingBound());
        fold(progress_.done(t));
    }
    engine_.foldState(fold);
    return fold.sig;
}

void
ConsumerPool::poll()
{
    if ((++tick_ & 63) == 0 && producerWatchdog_.poll(signature())) {
        stop(strprintf("%s watchdog: no forward progress in %llu "
                       "producer iterations (seal-protocol or hand-off "
                       "stall)",
                       engine_.name,
                       static_cast<unsigned long long>(
                           engine_.stallWatchdogIters)));
    }
}

void
ConsumerPool::finish()
{
    ProgressWatchdog tail_watchdog(
        std::max<std::uint64_t>(1000, engine_.stallWatchdogIters / 1000));
    while (running_.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (tail_watchdog.poll(signature())) {
            stop(strprintf("%s watchdog: consumers made no forward "
                           "progress after the producer finished "
                           "(delivery deadlock)",
                           engine_.name));
        }
    }
    joinAll();
    if (firstError_)
        std::rethrow_exception(firstError_);
}

void
ConsumerPool::joinAll()
{
    for (std::thread &t : threads_) {
        if (t.joinable())
            t.join();
    }
}

void
ConsumerPool::dump() const
{
    std::fprintf(stderr, "=== %s watchdog state dump ===\n", engine_.name);
    for (ThreadId t = 0; t < captures_.size(); ++t) {
        engine_.dumpStream(t);
        std::fprintf(
            stderr, "  ring: pub=%llu pop=%llu overflow=%zu frontier=%llu\n",
            static_cast<unsigned long long>(rings_[t].published()),
            static_cast<unsigned long long>(rings_[t].popped()),
            captures_[t]->overflowSize(),
            static_cast<unsigned long long>(captures_[t]->ceilingBound()));
        cores_[t]->dumpState();
    }
}

void
ConsumerPool::stop(const std::string &why)
{
    abort_.store(true, std::memory_order_release);
    joinAll();
    dump();
    panic("%s", why.c_str());
}

} // namespace paralog
