#include "core/platform.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "trace/recorder.hpp"

namespace paralog {

namespace {

std::uint8_t
packFilterBits(const EventFilter &f)
{
    using namespace trace;
    return (f.regOps ? kFilterRegOps : 0) |
           (f.loads ? kFilterLoads : 0) |
           (f.stores ? kFilterStores : 0) |
           (f.jumps ? kFilterJumps : 0) |
           (f.heapOnly ? kFilterHeapOnly : 0);
}

} // namespace

std::uint64_t
heapGlobalsFingerprint(const ShadowMemory &shadow)
{
    return shadow.fingerprint(AddressLayout::kHeapBase, 1 << 20) ^
           shadow.fingerprint(AddressLayout::kGlobalBase, 1 << 16);
}

LifeguardPtr
configuredLifeguard(const PlatformConfig &cfg)
{
    return cfg.customLifeguard
               ? cfg.customLifeguard(cfg.sim.appThreads)
               : makeLifeguard(cfg.lifeguard, cfg.sim.appThreads);
}

std::shared_ptr<Workload>
configuredWorkload(const PlatformConfig &cfg)
{
    return cfg.customWorkload ? cfg.customWorkload
                              : makeWorkload(cfg.workload);
}

WorkloadEnv
workloadEnv(const PlatformConfig &cfg)
{
    WorkloadEnv env;
    env.heapBase = AddressLayout::kHeapBase;
    env.heapBytes = AddressLayout::kHeapBytes;
    env.globalBase = AddressLayout::kGlobalBase;
    env.lockBase = AddressLayout::kLockBase;
    env.barrierBase = AddressLayout::kBarrierBase;
    env.numThreads = cfg.sim.appThreads;
    env.scale = cfg.scale;
    env.seed = cfg.sim.seed;
    return env;
}

EventFilter
policyFilter(const LifeguardPolicy &policy)
{
    EventFilter filter;
    filter.regOps = policy.wantsRegOps;
    filter.jumps = policy.wantsJumps;
    filter.heapOnly = policy.heapOnly;
    filter.heapArena =
        AddrRange{AddressLayout::kHeapBase,
                  AddressLayout::kHeapBase + AddressLayout::kHeapBytes};
    return filter;
}

Platform::Platform(PlatformConfig cfg)
    : cfg_(std::move(cfg)), env_(workloadEnv(cfg_))
{
    PARALOG_ASSERT(cfg_.sim.mode != MonitorMode::kTimesliced,
                   "use Timesliced for the timesliced baseline");
    const bool monitoring = cfg_.sim.mode == MonitorMode::kParallel;
    const std::uint32_t k = cfg_.sim.appThreads;
    const std::uint32_t cores = cfg_.sim.totalCores();

    if (cfg_.recorder) {
        PARALOG_ASSERT(monitoring,
                       "trace recording requires parallel monitoring");
        // The journal stamps producer ops with the global lifeguard-step
        // count, which only the serial scheduler defines.
        PARALOG_ASSERT(!concurrentLive(),
                       "trace recording requires the serial engine "
                       "(lgThreads 0 or 1)");
    }

    mem_ = std::make_unique<MemorySystem>(cfg_.sim, cores);
    heap_ = std::make_unique<Heap>(AddressLayout::kHeapBase,
                                   AddressLayout::kHeapBytes, k);

    EventFilter filter;
    if (monitoring) {
        lifeguard_ = configuredLifeguard(cfg_);
        policy_ = lifeguard_->policy();
        filter = policyFilter(policy_);
        if (concurrentLive()) {
            // The host-parallel live engine relies on the CA barriers
            // to order cross-stream delivery (it cannot fall back to
            // the serial scheduler's interleaving), and on the shadow
            // memory's concurrent mode for cross-thread metadata.
            PARALOG_ASSERT(cfg_.sim.conflictAlerts,
                           "live --lg-threads requires ConflictAlert "
                           "broadcasts enabled");
            lifeguard_->shadow().setConcurrent(true);
        }
    }

    if (cfg_.sim.memoryModel == MemoryModel::kTSO) {
        auto tso = std::make_unique<TsoDataPath>(cfg_.sim, *mem_, *this,
                                                 cores);
        tsoPath_ = tso.get();
        dataPath_ = std::move(tso);
    } else {
        dataPath_ = std::make_unique<ScDataPath>(*mem_);
    }

    interp_ = std::make_unique<Interpreter>(cfg_.sim, *dataPath_, *mem_,
                                            *heap_, locks_, barriers_,
                                            *this);

    progress_ = std::make_unique<ProgressTable>(k);
    caMgr_ = std::make_unique<CaManager>(k);

    std::shared_ptr<Workload> workload = configuredWorkload(cfg_);
    if (cfg_.recorder)
        cfg_.recorder->setFilterBits(packFilterBits(filter));

    for (ThreadId t = 0; t < k; ++t) {
        if (monitoring) {
            captures_.push_back(
                std::make_unique<CaptureUnit>(t, cfg_.sim, filter));
            if (cfg_.traceCapture)
                captures_.back()->setTraceSink(&trace_);
            if (cfg_.recorder)
                captures_.back()->setJournal(cfg_.recorder);
        } else {
            captures_.push_back(nullptr);
        }

        auto tc = std::make_unique<ThreadContext>(
            t, workload->makeThread(t, env_));
        mem_->bindThread(t, t);

        AppCore::CaBroadcastFn ca_fn;
        if (monitoring) {
            ca_fn = [this](ThreadId tid, RecordId rid, HighLevelKind kind,
                           const AddrRange &range) {
                return caBroadcast(tid, rid, kind, range);
            };
        }
        appCores_.push_back(std::make_unique<AppCore>(
            t, std::move(tc), captures_[t].get(), *interp_, *mem_,
            cfg_.sim, monitoring, std::move(ca_fn)));
    }

    if (monitoring) {
        for (ThreadId t = 0; t < k; ++t) {
            // The concurrent live engine relaxes lifeguard timing: the
            // timed memory hierarchy is single-threaded simulation
            // state, so host-parallel lifeguard cores run with untimed
            // metadata accesses (exactly like concurrent replay).
            lgCores_.push_back(std::make_unique<LifeguardCore>(
                k + t, t, cfg_.sim, *captures_[t], *progress_, *caMgr_,
                *lifeguard_, concurrentLive() ? nullptr : mem_.get(),
                versions_, 1));
            if (trace::TraceRecorder *rec = cfg_.recorder) {
                lgCores_.back()->ctx().setMetaLatencyTee(
                    [rec, t](Cycle latency) {
                        rec->onMetaLatency(t, latency);
                    });
            }
        }
    }
}

Platform::~Platform() = default;

Cycle
Platform::caBroadcast(ThreadId tid, RecordId rid, HighLevelKind kind,
                      const AddrRange &range)
{
    if ((kind == HighLevelKind::kSyscallBegin ||
         kind == HighLevelKind::kSyscallEnd) &&
        !policy_.caOnSyscall)
        return 0;

    std::vector<CaptureUnit *> units;
    std::vector<bool> alive;
    units.reserve(captures_.size());
    for (ThreadId t = 0; t < captures_.size(); ++t) {
        units.push_back(captures_[t].get());
        alive.push_back(appCores_[t]->active());
    }
    Cycle lat = caMgr_->broadcast(tid, rid, kind, range, units, alive);
    std::uint64_t seq = caMgr_->issued() - 1;

    // Annotate the issuer's high-level record so its lifeguard enforces
    // the issuer half of the barrier.
    if (EventRecord *rec = captures_[tid]->buffer().findByRid(rid))
        rec->caSeq = seq;
    // Journal the barrier bookkeeping (the arrival records themselves
    // were journalled by the appendCa calls above).
    if (cfg_.recorder) {
        CaBroadcast b;
        // Always live here: the CA records that let the lifeguards
        // retire the entry are still undelivered in the issuing step.
        PARALOG_ASSERT(caMgr_->lookup(seq, b),
                       "CA broadcast %llu retired before journaling",
                       static_cast<unsigned long long>(seq));
        cfg_.recorder->onCaBroadcast(b);
    }
    return lat;
}

bool
Platform::lifeguardDrained(ThreadId tid)
{
    if (cfg_.sim.mode == MonitorMode::kNoMonitoring)
        return true;
    // Producer-side drain test. Identical to consumerEmpty() in serial
    // mode (no ring attached), but safe for the concurrent live engine,
    // where this hook runs on the producer thread and must not touch
    // the ring's consumer face.
    return captures_[tid]->drainedForSyscall();
}

void
Platform::attachArcsToPending(ThreadId tid, RecordId rid,
                              const std::vector<RawArc> &arcs)
{
    if (captures_[tid])
        captures_[tid]->attachArcs(rid, arcs);
}

void
Platform::onScViolation(ThreadId writer_tid, RecordId writer_rid, Addr addr,
                        std::uint8_t size, const VersionRequest &reader)
{
    if (!captures_[writer_tid] || !captures_[reader.readerTid])
        return;
    VersionTag v{reader.readerTid, reader.readerRid};
    // Annotate the reader's pending load first; if it was already
    // consumed the reader's lifeguard read the pre-overwrite metadata,
    // which is exactly the versioned value — nothing to do.
    if (!captures_[reader.readerTid]->annotateConsume(reader.readerRid, v))
        return;
    captures_[writer_tid]->insertProduceBefore(writer_rid, v, addr, size);
}

void
Platform::setVisibilityLimit(ThreadId tid, RecordId limit)
{
    if (tid < captures_.size() && captures_[tid])
        captures_[tid]->setVisibilityLimit(limit);
}

RunResult
Platform::run()
{
    if (concurrentLive())
        return runConcurrentLive();
    SerialScheduler sched("", cfg_.maxCycles, cfg_.stallWatchdogIters,
                          lgCores_, *progress_, versions_);
    return collectResult(sched.run(*this));
}

RunResult
Platform::collectResult(Cycle total_cycles)
{
    RunResult result;
    result.totalCycles = total_cycles;
    for (auto &c : appCores_) {
        c->stats.programInsts = c->tc().programInsts;
        result.app.push_back(c->stats);
    }
    if (lifeguard_) // unmonitored runs have no lifeguard side
        collectLifeguardResult(result, lgCores_, versions_, *lifeguard_);
    return result;
}

bool
Platform::producersDone() const
{
    return std::none_of(appCores_.begin(), appCores_.end(),
                        [](auto &c) { return c->active(); });
}

Cycle
Platform::nextProducerCycle() const
{
    Cycle next = ~Cycle{0};
    for (const auto &c : appCores_) {
        if (c->active())
            next = std::min(next, c->busyUntil);
    }
    return next;
}

void
Platform::produce(Cycle now, std::uint64_t)
{
    // Journal phase stamp: ops recorded from here on carry (now,
    // lifeguard steps so far), which is what the replay scheduler needs
    // to interleave ops and lifeguard steps in the recorded order.
    if (cfg_.recorder)
        cfg_.recorder->setNow(now);
    for (auto &c : appCores_) {
        if (c->active() && c->busyUntil <= now)
            c->step(now);
    }
    for (CoreId core = 0; tsoPath_ && core < appCores_.size(); ++core)
        tsoPath_->pump(core, now);
}

Cycle
Platform::soloHorizon() const
{
    // One drain retires per iteration, so a ready drain pins the
    // horizon to `now` and keeps the iteration cadence exact.
    Cycle horizon = nextProducerCycle();
    for (CoreId core = 0; tsoPath_ && core < appCores_.size(); ++core)
        horizon = std::min(horizon, tsoPath_->nextDrainReady(core));
    return horizon;
}

void
Platform::afterLgStep(std::uint32_t n)
{
    if (cfg_.recorder)
        cfg_.recorder->noteLgStep(n);
}

void
Platform::foldState(SignatureFold &fold, std::uint64_t) const
{
    for (const auto &c : appCores_)
        fold(c->tc().retired);
}

void
Platform::dumpStream(ThreadId tid) const
{
    const AppCore &ac = *appCores_[tid];
    std::fprintf(stderr,
                 "app %u: active=%d retired=%llu reason=%d busyUntil=%llu",
                 tid, ac.active() ? 1 : 0,
                 static_cast<unsigned long long>(ac.tc().retired),
                 static_cast<int>(ac.tc().blockReason),
                 static_cast<unsigned long long>(ac.busyUntil));
    if (tsoPath_) {
        std::fprintf(stderr, " storeBuf=%zu oldestRetire=%llu",
                     tsoPath_->depth(tid),
                     static_cast<unsigned long long>(
                         tsoPath_->oldestStoreRetire(tid)));
    }
    std::fprintf(stderr, "\n");
}

} // namespace paralog
