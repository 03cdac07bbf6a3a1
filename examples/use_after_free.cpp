/**
 * @file
 * Memory-bug scenario: a producer thread frees a shared buffer while a
 * consumer thread still holds a dangling pointer and later dereferences
 * it. Parallel AddrCheck — ordered by ConflictAlert barriers around the
 * free — flags the use-after-free.
 */

#include <cstdio>
#include <deque>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "lifeguard/addrcheck.hpp"

using namespace paralog;

namespace {

class DanglingPointerApp : public Workload
{
  public:
    const char *name() const override { return "dangling-pointer"; }

    ThreadProgramPtr
    makeThread(ThreadId tid, const WorkloadEnv &env) const override
    {
        return std::make_unique<Thread>(tid, env);
    }

  private:
    class Thread : public ThreadProgram
    {
      public:
        Thread(ThreadId tid, const WorkloadEnv &env)
            : tid_(tid), env_(env)
        {
        }

        std::size_t
        take(std::vector<Inst> &out, ThreadContext &tc) override
        {
            if (!queue_.empty()) {
                out.push_back(queue_.front());
                queue_.pop_front();
                return 1;
            }
            switch (phase_++) {
              case 0:
                if (tid_ == 0) {
                    // Producer: allocate, publish, fill.
                    queue_.push_back(Inst::malloc(1, 128));
                    queue_.push_back(Inst::store(env_.globalBase, 1, 8));
                    queue_.push_back(Inst::movImm(2, 0x1234));
                    queue_.push_back(Inst::storeInd(1, 0, 2, 8));
                }
                queue_.push_back(
                    Inst::barrier(env_.barrierAddr(0), env_.numThreads));
                break;
              case 1:
                if (tid_ == 1) {
                    // Consumer: grab the pointer, read the data (legal).
                    queue_.push_back(Inst::load(3, env_.globalBase, 8));
                    queue_.push_back(Inst::loadInd(4, 3, 0, 8));
                }
                queue_.push_back(
                    Inst::barrier(env_.barrierAddr(0), env_.numThreads));
                break;
              case 2:
                if (tid_ == 0) {
                    // Producer frees the buffer...
                    queue_.push_back(Inst::freeReg(1));
                }
                queue_.push_back(
                    Inst::barrier(env_.barrierAddr(0), env_.numThreads));
                break;
              case 3:
                if (tid_ == 1) {
                    // ...but the consumer still dereferences the stale
                    // pointer in r3: use-after-free.
                    queue_.push_back(Inst::loadInd(5, 3, 64, 8));
                }
                break;
              default:
                return 0;
            }
            return take(out, tc);
        }

      private:
        ThreadId tid_;
        WorkloadEnv env_;
        std::deque<Inst> queue_;
        int phase_ = 0;
    };
};

} // namespace

int
main()
{
    setQuiet(true);
    PlatformConfig cfg;
    cfg.sim = SimConfig::forAppThreads(2);
    cfg.sim.mode = MonitorMode::kParallel;
    cfg.lifeguard = LifeguardKind::kAddrCheck;
    cfg.customWorkload = std::make_shared<DanglingPointerApp>();

    Platform p(cfg);
    RunResult r = p.run();
    auto &ac = static_cast<AddrCheck &>(p.lifeguard());

    std::printf("dangling-pointer app monitored by parallel AddrCheck\n");
    std::printf("  cycles:               %llu\n",
                (unsigned long long)r.totalCycles);
    std::printf("  ConflictAlerts:       %llu\n",
                (unsigned long long)p.caManager().issued());
    std::printf("  violations detected:  %zu\n", ac.violations.count());
    for (const Violation &v : ac.violations.all()) {
        if (v.kind == Violation::Kind::kUnallocatedAccess) {
            std::printf("  -> USE AFTER FREE: thread %u touched %#llx "
                        "(record %llu)\n",
                        v.tid, (unsigned long long)v.addr,
                        (unsigned long long)v.rid);
        }
    }
    bool ok =
        ac.violations.count(Violation::Kind::kUnallocatedAccess) == 1;
    std::printf(ok ? "\nuse-after-free detected, exactly once.\n"
                   : "\nERROR: expected exactly one violation!\n");
    return ok ? 0 : 1;
}
