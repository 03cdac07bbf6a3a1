/**
 * @file
 * perfbench: the repository benchmark driver (see perfbench/README.md).
 *
 *   perfbench --workload live|remonitor|lg2|daemon [--seed N]
 *             [--seconds S] [--trace 0|1] [--scale-div K]
 *             [--expect FILE] [--pin]
 *
 * Run from the repository root: the corpus is read from tests/corpus/
 * and scratch files go to kWorkDir. The last line of standard output is
 * one JSON object: correct, attempted, failed and metrics (end-to-end
 * metrics untraced, per-layer metrics traced). With --pin it prints
 * `pin <key> <value>` for every checked observable instead.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "live|remonitor|lg2|daemon [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale-div K] [--expect FILE] [--pin]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    Options &o = ctx.opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--pin") {
            o.pin = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--scale-div")
            o.scaleDiv = std::max<std::uint64_t>(
                1, std::strtoull(v, nullptr, 10));
        else if (a == "--expect")
            o.expectFile = v;
        else
            return usage(("unknown flag " + a).c_str());
    }
    void (*run)(Context &) = nullptr;
    if (o.workload == "live")
        run = runLive;
    else if (o.workload == "remonitor")
        run = runRemonitor;
    else if (o.workload == "lg2")
        run = runLg2;
    else if (o.workload == "daemon")
        run = runDaemon;
    else
        return usage("unknown workload");
    if (o.pin) {
        o.seconds = 0; // one pass: every observable once
        o.trace = false;
    }

    std::filesystem::create_directories(kWorkDir);
    if (!o.expectFile.empty())
        ctx.oracle.loadExpectations(o.expectFile);
    paralog::setQuiet(true);
    paralog::setPanicThrows(true);

    try {
        run(ctx);
    } catch (const std::exception &e) {
        // Set-up failures (a missing corpus, an unwritable work dir)
        // leave no result to report.
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    if (o.pin) {
        for (const auto &[key, value] : ctx.oracle.seen())
            std::printf("pin %s %s\n", key.c_str(), value.c_str());
        return 0;
    }
    if (o.trace) {
        for (const auto &[layer, s] : ctx.spans.selfSeconds())
            ctx.metrics.set(layer + ".self_s", s, "s");
        ctx.spans.write(std::string(kWorkDir) + "/spans-" + o.workload +
                        ".json");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ctx.oracle.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ctx.oracle.attempted()),
                static_cast<unsigned long long>(ctx.oracle.failed()),
                ctx.metrics.json().c_str());
    return 0;
}
