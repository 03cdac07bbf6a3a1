/**
 * @file
 * Writing your own lifeguard against the ParaLog API: a heap
 * write-set profiler ("HeatCheck") that maintains one metadata bit per
 * application byte recording "has ever been written", and reports how
 * much of each allocation was actually used. The porting effort the
 * paper advertises: the lifeguard contains *no* synchronization or
 * ordering code — it declares its properties in a policy and the
 * platform does the rest.
 */

#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"

using namespace paralog;

namespace {

class HeatCheck : public Lifeguard
{
  public:
    explicit HeatCheck(std::uint32_t num_threads)
        : Lifeguard(num_threads, 1)
    {
    }

    const char *name() const override { return "HeatCheck"; }

    LifeguardPolicy
    policy() const override
    {
        LifeguardPolicy p;
        p.usesIt = false;
        p.usesIf = false; // every write matters: checks aren't idempotent
        p.wantsRegOps = false;
        p.wantsJumps = false;
        p.heapOnly = true; // only heap accesses are profiled
        p.caOnSyscall = false;
        return p;
    }

    void
    handle(const LgEvent &ev, LgContext &ctx) override
    {
        switch (ev.type) {
          case LgEventType::kStore:
            // Mark the written bytes hot. Writes map to metadata
            // writes and reads to metadata reads (condition 2 of
            // section 5.3 holds), so no handler locking is needed.
            ctx.storeMeta(ev.addr, ev.size,
                          (ev.size >= 64) ? ~0ULL
                                          : ((1ULL << ev.size) - 1));
            ctx.charge(2);
            break;

          case LgEventType::kMalloc:
            ctx.fillMeta(ev.range, 0);
            ++allocs_;
            break;

          case LgEventType::kFree: {
            // On free, measure how much of the block was ever written.
            std::uint64_t written = 0;
            for (Addr a = ev.range.begin; a < ev.range.end; ++a)
                written += shadow_.read(a);
            ctx.charge(4);
            totalBytes_ += ev.range.size();
            writtenBytes_ += written;
            break;
          }

          default:
            ctx.charge(1);
            break;
        }
    }

    double
    utilization() const
    {
        return totalBytes_ ? static_cast<double>(writtenBytes_) /
                                 static_cast<double>(totalBytes_)
                           : 0.0;
    }

    std::uint64_t allocs() const { return allocs_; }

  private:
    std::uint64_t allocs_ = 0;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t writtenBytes_ = 0;
};

} // namespace

int
main()
{
    setQuiet(true);
    PlatformConfig cfg;
    cfg.sim = SimConfig::forAppThreads(4);
    cfg.sim.mode = MonitorMode::kParallel;
    cfg.workload = WorkloadKind::kSwaptions;
    cfg.scale = 30000;
    HeatCheck *heat = nullptr;
    cfg.customLifeguard = [&heat](std::uint32_t threads) {
        auto lg = std::make_unique<HeatCheck>(threads);
        heat = lg.get();
        return lg;
    };

    Platform p(cfg);
    RunResult r = p.run();

    std::printf("HeatCheck: custom lifeguard on SWAPTIONS (4 threads)\n");
    std::printf("  cycles:            %llu\n",
                (unsigned long long)r.totalCycles);
    std::printf("  allocations seen:  %llu\n",
                (unsigned long long)heat->allocs());
    std::printf("  buffer utilization at free: %.1f%%\n",
                100.0 * heat->utilization());
    std::printf("\n(a whole-program profiler in ~60 lines of handler "
                "code, parallel for free)\n");
    return heat->allocs() > 0 ? 0 : 1;
}
