#include "core/timesliced.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace paralog {

Timesliced::Timesliced(PlatformConfig cfg)
    : cfg_(std::move(cfg)), env_(workloadEnv(cfg_))
{
    cfg_.sim.mode = MonitorMode::kTimesliced;
    // A sequential lifeguard consumes a totally ordered stream: it needs
    // neither dependence arcs nor ConflictAlert broadcasts.
    cfg_.sim.conflictAlerts = false;
    PARALOG_ASSERT(cfg_.sim.memoryModel == MemoryModel::kSC,
                   "timesliced baseline models a single-core app: SC only");

    const std::uint32_t k = cfg_.sim.appThreads;
    mem_ = std::make_unique<MemorySystem>(cfg_.sim, 2);
    heap_ = std::make_unique<Heap>(AddressLayout::kHeapBase,
                                   AddressLayout::kHeapBytes, k);

    lifeguard_ = configuredLifeguard(cfg_);

    // Arc capture off: the merged stream is already ordered.
    dataPath_ = std::make_unique<ScDataPath>(*mem_, false);
    interp_ = std::make_unique<Interpreter>(cfg_.sim, *dataPath_, *mem_,
                                            *heap_, locks_, barriers_,
                                            *this);

    progress_ = std::make_unique<ProgressTable>(k);
    caMgr_ = std::make_unique<CaManager>(k);

    capture_ = std::make_unique<CaptureUnit>(
        0, cfg_.sim, policyFilter(lifeguard_->policy()));

    std::shared_ptr<Workload> workload = configuredWorkload(cfg_);
    for (ThreadId t = 0; t < k; ++t) {
        tcs_.push_back(std::make_unique<ThreadContext>(
            t, workload->makeThread(t, env_)));
    }
    appStats_.resize(k);
    finished_.assign(k, false);
    quantumLeft_ = cfg_.sim.timesliceQuantum;
    mem_->bindThread(0, 0);

    lgCores_.push_back(std::make_unique<LifeguardCore>(
        1, 0, cfg_.sim, *capture_, *progress_, *caMgr_, *lifeguard_,
        mem_.get(), versions_, k));
}

Timesliced::~Timesliced() = default;

bool
Timesliced::lifeguardDrained(ThreadId tid)
{
    (void)tid;
    return capture_->consumerEmpty();
}

std::uint32_t
Timesliced::pickNext() const
{
    const std::uint32_t k = static_cast<std::uint32_t>(tcs_.size());
    for (std::uint32_t i = 1; i <= k; ++i) {
        std::uint32_t cand = (current_ + i) % k;
        if (!finished_[cand])
            return cand;
    }
    return current_;
}

void
Timesliced::switchTo(std::uint32_t next, Cycle now)
{
    if (next == current_)
        return;
    current_ = next;
    quantumLeft_ = cfg_.sim.timesliceQuantum;
    mem_->bindThread(0, tcs_[current_]->tid());

    // The OS saves/restores the (thread id, counter) tuple on context
    // switches (section 5.1); the lifeguard sees a thread-switch record
    // and flushes IT (the register file changed hands).
    EventRecord rec;
    rec.type = EventType::kThreadSwitch;
    rec.tid = tcs_[current_]->tid();
    rec.rid = tcs_[current_]->retired;
    rec.value = tcs_[current_]->tid();
    capture_->buffer().append(std::move(rec));

    appBusyUntil_ = now + cfg_.sim.contextSwitchCost;
}

void
Timesliced::stepApp(Cycle now)
{
    ThreadContext &tc = *tcs_[current_];
    AppThreadStats &st = appStats_[current_];

    if (finished_[current_]) {
        switchTo(pickNext(), now);
        return;
    }

    if (!capture_->canAppend()) {
        st.logFullStall += cfg_.sim.retryInterval;
        appBusyUntil_ = now + cfg_.sim.retryInterval;
        return;
    }

    interp_->step(tc, 0, now, stepScratch_);
    Interpreter::StepOutcome &out = stepScratch_;

    switch (out.kind) {
      case Interpreter::StepOutcome::Kind::kDone:
        finished_[current_] = true;
        st.doneAt = now;
        switchTo(pickNext(), now);
        return;

      case Interpreter::StepOutcome::Kind::kBlocked: {
        // Spin synchronization: the blocked thread burns cycles on the
        // only core before the scheduler preempts it, so every lock
        // hand-off and barrier costs a scheduling round trip.
        Cycle spin = out.latency;
        switch (tc.blockReason) {
          case BlockReason::kLock:
            spin = cfg_.sim.timesliceSpinOnBlock;
            st.lockStall += spin;
            break;
          case BlockReason::kBarrier:
            spin = cfg_.sim.timesliceSpinOnBlock;
            st.barrierStall += spin;
            break;
          case BlockReason::kDrain:
            st.drainStall += spin;
            break;
          default:
            break;
        }
        appBusyUntil_ = now + spin;
        switchTo(pickNext(), now + spin);
        return;
      }

      case Interpreter::StepOutcome::Kind::kRetired:
        break;
    }

    ++tc.retired;
    ++st.retired;
    st.execCycles += out.latency;
    capture_->setRetired(tc.retired);
    capture_->append(std::move(out.event));
    appBusyUntil_ = now + std::max<Cycle>(1, out.latency);

    if (quantumLeft_ == 0 || --quantumLeft_ == 0)
        switchTo(pickNext(), now);
}

bool
Timesliced::producersDone() const
{
    return std::find(finished_.begin(), finished_.end(), false) ==
           finished_.end();
}

Cycle
Timesliced::nextProducerCycle() const
{
    return producersDone() ? ~Cycle{0} : appBusyUntil_;
}

void
Timesliced::produce(Cycle now, std::uint64_t)
{
    if (!producersDone() && appBusyUntil_ <= now)
        stepApp(now);
}

void
Timesliced::foldState(SignatureFold &fold, std::uint64_t) const
{
    for (const auto &tc : tcs_)
        fold(tc->retired);
}

RunResult
Timesliced::run()
{
    SerialScheduler sched("timesliced", cfg_.maxCycles,
                          cfg_.stallWatchdogIters, lgCores_, *progress_,
                          versions_);
    const Cycle now = sched.run(*this);

    RunResult result;
    result.totalCycles = now;
    result.app = appStats_;
    for (auto &tc : tcs_)
        result.app[tc->tid()].programInsts = tc->programInsts;
    collectLifeguardResult(result, lgCores_, versions_, *lifeguard_);
    return result;
}

} // namespace paralog
