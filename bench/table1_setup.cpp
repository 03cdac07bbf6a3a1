/**
 * @file
 * Table 1 reproduction: prints the modelled simulation parameters for
 * every CMP configuration used in the evaluation (2/4/8/16 cores).
 */

#include <cstdio>

#include "sim/config.hpp"
#include "workloads/workload.hpp"

int
main()
{
    std::printf("=== Table 1: Experimental Setup (modelled) ===\n\n");
    std::printf("Simulator: ParaLog reproduction (cycle-stepped CMP "
                "model; see README.md)\n\n");
    for (std::uint32_t threads : {1u, 2u, 4u, 8u}) {
        paralog::SimConfig cfg = paralog::SimConfig::forAppThreads(threads);
        std::printf("--- %u application thread(s), %u cores ---\n",
                    threads, cfg.totalCores());
        std::printf("%s\n", cfg.describe().c_str());
    }
    std::printf("Benchmarks (synthetic stand-ins, scaled by "
                "PARALOG_SCALE; see README.md):\n");
    for (paralog::WorkloadKind w : paralog::allWorkloads())
        std::printf("  %s\n", paralog::toString(w));
    return 0;
}
