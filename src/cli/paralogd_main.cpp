/**
 * @file
 * `paralogd` entry point: parse the service flags, start the daemon
 * (daemon/daemon.hpp), serve until SIGTERM/SIGINT, drain, exit 0.
 * A second signal hard-exits — same two-stage convention as the
 * matrix driver's Ctrl-C handling.
 */

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "daemon/daemon.hpp"

namespace {

paralog::daemon::Daemon *g_daemon = nullptr;
std::atomic<int> g_signals{0};

extern "C" void
onShutdownSignal(int)
{
    if (g_signals.fetch_add(1, std::memory_order_relaxed) >= 1)
        ::_exit(130);
    if (g_daemon)
        g_daemon->requestStop(); // async-signal-safe
}

const char kUsage[] =
    "Usage: paralogd --socket=PATH [flags]\n"
    "\n"
    "Serve paralog-trace-v1 re-monitoring jobs over a Unix-domain\n"
    "socket until SIGTERM/SIGINT, then drain and exit 0. Submit with\n"
    "`paralog --submit=FILE --socket=PATH`; inspect with\n"
    "`paralog --daemon-stats --socket=PATH`.\n"
    "\n"
    "  --socket=PATH          listening socket (required)\n"
    "  --workers=N            re-monitoring worker threads, one job each\n"
    "                         on the serial replay engine (default 2)\n"
    "  --max-sessions=N       concurrent client cap; excess connections\n"
    "                         are answered 'rejected' (default 64)\n"
    "  --max-queued=N         job-queue cap; completed uploads beyond it\n"
    "                         are shed with 'queue-full' (default 8)\n"
    "  --max-ingest-mb=N      per-upload size budget (default 256)\n"
    "  --idle-timeout-ms=N    close sessions idle this long (default\n"
    "                         5000; the slow-loris defense)\n"
    "  --heartbeat-ms=N       PLHB cadence to waiting clients (500)\n"
    "  --spool-dir=PATH       upload spool directory\n"
    "                         (default: <socket>.spool)\n"
    "  --verbose              log connections and drain progress\n"
    "  --help                 this text\n";

bool
parseU64Flag(const std::string &arg, const char *name,
             std::uint64_t &out)
{
    std::string prefix = std::string(name) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    char *end = nullptr;
    unsigned long long v =
        std::strtoull(arg.c_str() + prefix.size(), &end, 10);
    if (!end || *end != '\0') {
        std::fprintf(stderr, "paralogd: bad value in '%s'\n",
                     arg.c_str());
        std::exit(2);
    }
    out = v;
    return true;
}

bool
parseStringFlag(const std::string &arg, const char *name,
                std::string &out)
{
    std::string prefix = std::string(name) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = arg.substr(prefix.size());
    if (out.empty()) {
        std::fprintf(stderr, "paralogd: '%s' needs a value\n", name);
        std::exit(2);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    paralog::daemon::DaemonConfig cfg;
    cfg.quiet = true;

    std::uint64_t u = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            return 0;
        }
        if (arg == "--verbose") {
            cfg.quiet = false;
            continue;
        }
        if (parseStringFlag(arg, "--socket", cfg.socketPath) ||
            parseStringFlag(arg, "--spool-dir", cfg.spoolDir))
            continue;
        if (parseU64Flag(arg, "--workers", u)) {
            cfg.workers = static_cast<unsigned>(u);
            continue;
        }
        if (parseU64Flag(arg, "--max-sessions", u)) {
            cfg.maxSessions = static_cast<std::size_t>(u);
            continue;
        }
        if (parseU64Flag(arg, "--max-queued", u)) {
            cfg.maxQueuedJobs = static_cast<std::size_t>(u);
            continue;
        }
        if (parseU64Flag(arg, "--max-ingest-mb", u)) {
            cfg.maxIngestBytes = u << 20;
            continue;
        }
        if (parseU64Flag(arg, "--idle-timeout-ms", u)) {
            cfg.idleTimeoutMs = static_cast<int>(u);
            continue;
        }
        if (parseU64Flag(arg, "--heartbeat-ms", u)) {
            cfg.heartbeatMs = static_cast<int>(u);
            continue;
        }
        std::fprintf(stderr, "paralogd: unknown flag '%s'\n\n%s",
                     arg.c_str(), kUsage);
        return 2;
    }
    if (cfg.socketPath.empty()) {
        std::fprintf(stderr, "paralogd: --socket=PATH is required\n\n%s",
                     kUsage);
        return 2;
    }

    paralog::setQuiet(cfg.quiet);
    paralog::daemon::Daemon daemon(cfg);
    if (!daemon.start()) {
        std::fprintf(stderr, "paralogd: %s\n", daemon.error().c_str());
        return 1;
    }

    g_daemon = &daemon;
    struct sigaction sa = {};
    sa.sa_handler = onShutdownSignal;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    int rc = daemon.run();
    g_daemon = nullptr;
    return rc;
}
