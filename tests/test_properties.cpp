/**
 * @file
 * Property-based tests: randomized inputs checked against independent
 * oracles.
 *
 *  - Random single-thread programs: the platform's TaintCheck shadow
 *    state must equal a straight-line reference taint interpreter, with
 *    accelerators on AND off (accelerator transparency).
 *  - Heap: random alloc/free sequences never hand out overlapping
 *    blocks and never lose bytes.
 *  - ShadowMemory: random writes match a std::map reference.
 *  - Multi-thread runs are deterministic across repeats for every
 *    workload (parameterized sweep).
 */

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "lifeguard/taintcheck.hpp"

namespace paralog {
namespace {

// ---------- random program vs reference taint oracle ----------

struct RandomProgram : public Workload
{
    explicit RandomProgram(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "random"; }

    /** Generate the instruction list once so the oracle and the
     *  simulated thread see the identical program. */
    static std::vector<Inst>
    generate(std::uint64_t seed, const WorkloadEnv &env)
    {
        Rng rng(seed);
        std::vector<Inst> prog;
        // A small pool of data addresses, 8-byte aligned.
        std::vector<Addr> pool;
        for (int i = 0; i < 24; ++i)
            pool.push_back(env.globalBase + 8 * i);

        // Taint source: read() into the first third of the pool.
        prog.push_back(Inst::syscallRead(env.globalBase, 64));

        for (int i = 0; i < 400; ++i) {
            switch (rng.below(6)) {
              case 0:
                prog.push_back(Inst::load(
                    static_cast<RegId>(rng.below(8)),
                    pool[rng.below(pool.size())], 8));
                break;
              case 1:
                prog.push_back(Inst::store(
                    pool[rng.below(pool.size())],
                    static_cast<RegId>(rng.below(8)), 8));
                break;
              case 2:
                prog.push_back(
                    Inst::movRR(static_cast<RegId>(rng.below(8)),
                                static_cast<RegId>(rng.below(8))));
                break;
              case 3:
                prog.push_back(Inst::movImm(
                    static_cast<RegId>(rng.below(8)), rng.next()));
                break;
              case 4:
                prog.push_back(
                    Inst::alu(static_cast<RegId>(rng.below(8)),
                              static_cast<RegId>(rng.below(8))));
                break;
              case 5:
                prog.push_back(
                    Inst::jumpReg(static_cast<RegId>(rng.below(8))));
                break;
            }
        }
        return prog;
    }

    ThreadProgramPtr
    makeThread(ThreadId, const WorkloadEnv &env) const override
    {
        return std::make_unique<Thread>(generate(seed_, env));
    }

    struct Thread : public ThreadProgram
    {
        explicit Thread(std::vector<Inst> insts)
            : insts_(std::move(insts))
        {
        }

        std::size_t
        take(std::vector<Inst> &out, ThreadContext &) override
        {
            if (pos_ >= insts_.size())
                return 0;
            out.push_back(insts_[pos_++]);
            return 1;
        }

        std::vector<Inst> insts_;
        std::size_t pos_ = 0;
    };

    std::uint64_t seed_;
};

/** Straight-line reference taint semantics. */
struct TaintOracle
{
    std::map<Addr, bool> mem;  // per 8-byte slot (aligned pool)
    std::array<bool, kNumRegs> regs{};
    std::size_t taintedJumps = 0;

    void
    run(const std::vector<Inst> &prog)
    {
        for (const Inst &inst : prog) {
            switch (inst.op) {
              case Op::kSyscallRead:
                for (Addr a = inst.addr; a < inst.addr + inst.size;
                     a += 8)
                    mem[a] = true;
                break;
              case Op::kLoad:
                regs[inst.dst] = mem.count(inst.addr) && mem[inst.addr];
                break;
              case Op::kStore:
                mem[inst.addr] = regs[inst.src];
                break;
              case Op::kMovRR:
                regs[inst.dst] = regs[inst.src];
                break;
              case Op::kMovImm:
                regs[inst.dst] = false;
                break;
              case Op::kAlu:
                regs[inst.dst] = regs[inst.dst] || regs[inst.src];
                break;
              case Op::kJumpReg:
                if (regs[inst.src])
                    ++taintedJumps;
                break;
              default:
                break;
            }
        }
    }
};

class RandomTaintProperty : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }
};

TEST_P(RandomTaintProperty, PlatformMatchesOracle)
{
    const std::uint64_t seed = GetParam();
    for (bool accel : {true, false}) {
        PlatformConfig cfg;
        cfg.sim = SimConfig::forAppThreads(1);
        cfg.sim.mode = MonitorMode::kParallel;
        if (!accel) {
            cfg.sim.accel.inheritanceTracking = false;
            cfg.sim.accel.idempotentFilter = false;
            cfg.sim.accel.metadataTlb = false;
        }
        cfg.lifeguard = LifeguardKind::kTaintCheck;
        cfg.customWorkload = std::make_shared<RandomProgram>(seed);
        Platform p(cfg);
        p.run();
        auto &taint = static_cast<TaintCheck &>(p.lifeguard());

        TaintOracle oracle;
        oracle.run(RandomProgram::generate(seed, p.env()));

        for (const auto &kv : oracle.mem) {
            EXPECT_EQ(taint.isTainted(kv.first, 8), kv.second)
                << "seed " << seed << " accel " << accel << " addr "
                << std::hex << kv.first;
        }
        EXPECT_EQ(
            taint.violations.count(Violation::Kind::kTaintedJump),
            oracle.taintedJumps)
            << "seed " << seed << " accel " << accel;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTaintProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------- heap properties ----------

class HeapProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeapProperty, NoOverlapNoLeak)
{
    Rng rng(GetParam());
    Heap heap(0x1000000, 1 << 18, 2);
    std::map<Addr, std::uint64_t> live; // payload -> size requested

    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            std::uint64_t bytes = rng.range(8, 2048);
            Addr a = heap.allocate(bytes, rng.below(2));
            if (a == 0)
                continue; // exhausted: acceptable
            // In-arena and non-overlapping with every live block.
            ASSERT_TRUE(heap.arena().contains(a));
            ASSERT_GE(heap.blockSize(a), bytes);
            auto next = live.lower_bound(a);
            if (next != live.end()) {
                ASSERT_LE(a + bytes, next->first);
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, a);
            }
            live.emplace(a, bytes);
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            heap.release(it->first);
            live.erase(it);
        }
    }
    EXPECT_EQ(heap.liveBlocks(), live.size());
    // Free everything: a large allocation must then succeed
    // (coalescing conserved the arena).
    for (auto &kv : live)
        heap.release(kv.first);
    EXPECT_NE(heap.allocate((1 << 18) / 4, 0), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- shadow memory vs map reference ----------

class ShadowProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint64_t>>
{
};

TEST_P(ShadowProperty, MatchesMapReference)
{
    auto [bpb, seed] = GetParam();
    Rng rng(seed);
    ShadowMemory shadow(bpb);
    std::map<Addr, std::uint8_t> ref;
    std::uint8_t mask = static_cast<std::uint8_t>((1u << bpb) - 1);

    for (int step = 0; step < 4000; ++step) {
        Addr a = 0x10000 + rng.below(1 << 16);
        if (rng.chance(0.5)) {
            std::uint8_t v = static_cast<std::uint8_t>(rng.next()) & mask;
            shadow.write(a, v);
            ref[a] = v;
        } else {
            std::uint8_t expect = ref.count(a) ? ref[a] : 0;
            ASSERT_EQ(shadow.read(a), expect) << std::hex << a;
        }
    }
    for (const auto &kv : ref)
        ASSERT_EQ(shadow.read(kv.first), kv.second);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ShadowProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(11ull, 22ull, 33ull)));

// ---------- cross-mode determinism sweep ----------

using DetParam = std::tuple<WorkloadKind, MemoryModel>;

class DeterminismSweep : public ::testing::TestWithParam<DetParam>
{
  protected:
    static void SetUpTestSuite() { setQuiet(true); }
};

TEST_P(DeterminismSweep, RepeatRunsIdentical)
{
    auto [w, model] = GetParam();
    ExperimentOptions o;
    o.scale = 5000;
    o.memoryModel = model;
    RunResult a = runExperiment(w, LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 4, o);
    RunResult b = runExperiment(w, LifeguardKind::kTaintCheck,
                                MonitorMode::kParallel, 4, o);
    EXPECT_EQ(resultMismatch(ResultTier::kExact, b, a), "");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterminismSweep,
    ::testing::Combine(::testing::ValuesIn(allWorkloads()),
                       ::testing::Values(MemoryModel::kSC,
                                         MemoryModel::kTSO)),
    [](const ::testing::TestParamInfo<DetParam> &info) {
        std::string name = toString(std::get<0>(info.param));
        for (char &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_" +
               (std::get<1>(info.param) == MemoryModel::kSC ? "SC"
                                                            : "TSO");
    });

} // namespace
} // namespace paralog
