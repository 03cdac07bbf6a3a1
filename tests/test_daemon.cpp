/**
 * @file
 * End-to-end tests for paralogd (daemon/daemon.hpp): a daemon instance
 * runs on a background thread in-process, real clients talk to it over
 * its Unix-domain socket, and the acceptance bar of the service is
 * asserted directly —
 *
 *   - a submitted recording re-monitors to the SAME shadow fingerprint
 *     as an offline `--replay` of the same file;
 *   - one misbehaving client (corrupt CRC, mid-upload disconnect,
 *     slow-loris, garbage magic, trailing bytes) poisons only its own
 *     session and is accounted in the metrics taxonomy;
 *   - admission control rejects/sheds with a reason instead of
 *     blocking; worker panics are contained to their job;
 *   - a chaos mix of concurrent well- and ill-behaved clients leaves
 *     the books balanced and the daemon drains to exit code 0.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "harness/paralog_test.hpp"
#include "harness/tampered_journals.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"

namespace paralog::daemon {
namespace {

using test::QuietTest;

std::string
hexU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/**
 * One recorded trace shared by the whole suite (recording is the slow
 * part), plus the offline-replay fingerprints every daemon answer must
 * reproduce.
 */
struct SharedTrace
{
    std::string path;
    std::uint64_t shadowFp = 0;
    std::uint64_t violationFp = 0;
};

const SharedTrace &
sharedTrace()
{
    static const SharedTrace t = [] {
        SharedTrace s;
        s.path = ::testing::TempDir() + "paralogd_shared_" +
                 std::to_string(::getpid()) + ".trace";
        RunSpec spec;
        spec.workload = WorkloadKind::kLu;
        spec.lifeguard = LifeguardKind::kTaintCheck;
        spec.mode = MonitorMode::kParallel;
        spec.cores = 2;
        spec.opt = test::makeOptions(600);
        spec.recordPath = s.path;
        recordExperiment(spec);

        RunSpec replay = spec;
        replay.recordPath.clear();
        replay.replayPath = s.path;
        RunResult r = replayExperiment(replay);
        s.shadowFp = r.shadowFingerprint;
        s.violationFp = r.violationFingerprint;
        return s;
    }();
    return t;
}

/** In-process daemon on a background thread, torn down by dtor. */
class DaemonHarness
{
  public:
    explicit DaemonHarness(const std::string &tag, DaemonConfig cfg = {},
                           bool quiet = true)
    {
        cfg.socketPath = ::testing::TempDir() + "pld_" + tag + "_" +
                         std::to_string(::getpid()) + ".sock";
        cfg.quiet = quiet;
        if (cfg.heartbeatMs == 500)
            cfg.heartbeatMs = 100; // fast heartbeats for short tests
        cfg_ = cfg;
        daemon_ = std::make_unique<Daemon>(cfg_);
        started_ = daemon_->start();
        if (started_)
            thread_ = std::thread([this] { rc_ = daemon_->run(); });
    }

    ~DaemonHarness()
    {
        stop();
        std::remove(cfg_.socketPath.c_str());
        ::rmdir((cfg_.socketPath + ".spool").c_str());
    }

    /** Request drain, join, return the daemon's exit code. */
    int
    stop()
    {
        if (thread_.joinable()) {
            daemon_->requestStop();
            thread_.join();
        }
        return rc_;
    }

    bool started() const { return started_; }
    const std::string &socket() const { return cfg_.socketPath; }
    const StatSet &stats() const { return daemon_->stats(); }

    SubmitOptions
    submitOpts() const
    {
        SubmitOptions opt;
        opt.socketPath = cfg_.socketPath;
        return opt;
    }

  private:
    DaemonConfig cfg_;
    std::unique_ptr<Daemon> daemon_;
    std::thread thread_;
    bool started_ = false;
    int rc_ = -1;
};

/** Spin until @p pred holds (the event loop runs on its own clock). */
bool
waitFor(const std::function<bool()> &pred, int timeout_ms = 10000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

/** Raw protocol client: send @p bytes, half-close, read the answer. */
std::string
rawExchange(const std::string &socket_path, const std::string &bytes)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return out;
}

class DaemonTest : public QuietTest
{
  protected:
    void TearDown() override { clearAllFaults(); }

    static std::string
    fingerprintField(std::uint64_t fp)
    {
        return "\"shadowFingerprint\":\"" + hexU64(fp) + "\"";
    }
};

// ------------------------------------------------------------ happy path

TEST_F(DaemonTest, SubmitMatchesOfflineReplay)
{
    DaemonHarness h("e2e");
    ASSERT_TRUE(h.started());

    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;
    // The acceptance bar: the daemon's re-monitoring run reproduces the
    // offline `--replay` fingerprints bit-identically.
    EXPECT_NE(r.responseJson.find(fingerprintField(sharedTrace().shadowFp)),
              std::string::npos)
        << r.responseJson;
    EXPECT_NE(r.responseJson.find("\"violationFingerprint\":\"" +
                                  hexU64(sharedTrace().violationFp) +
                                  "\""),
              std::string::npos)
        << r.responseJson;
    EXPECT_NE(r.responseJson.find("\"selfCheck\":true"),
              std::string::npos);
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, SubmitUnderMultipleLifeguards)
{
    DaemonHarness h("multi");
    ASSERT_TRUE(h.started());

    SubmitOptions opt = h.submitOpts();
    opt.lifeguards = {LifeguardKind::kTaintCheck,
                      LifeguardKind::kAddrCheck};
    SubmitResult r = submitTrace(sharedTrace().path, opt);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;
    EXPECT_NE(r.responseJson.find("\"lifeguard\":\"TaintCheck\""),
              std::string::npos);
    EXPECT_NE(r.responseJson.find("\"lifeguard\":\"AddrCheck\""),
              std::string::npos);
    // The same-kind run self-checks; the cross-kind run is the
    // approximate re-monitoring mode.
    EXPECT_NE(r.responseJson.find("\"selfCheck\":true"),
              std::string::npos);
    EXPECT_NE(r.responseJson.find("\"selfCheck\":false"),
              std::string::npos);
}

TEST_F(DaemonTest, StatsEndpointRendersMetrics)
{
    DaemonHarness h("stats");
    ASSERT_TRUE(h.started());

    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;

    std::string text, err;
    ASSERT_TRUE(fetchStats(h.socket(), text, err)) << err;
    EXPECT_NE(text.find("counter daemon.conns.accepted"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("counter daemon.jobs.completed 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("gauge daemon.uptime-ms"), std::string::npos);
    // The job has run, so nothing is queued; the stats session itself
    // is open while the daemon renders.
    EXPECT_NE(text.find("\ngauge daemon.queue.depth 0\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\ngauge daemon.sessions.open "), std::string::npos)
        << text;
    EXPECT_NE(text.find("meter daemon.lg.TaintCheck.ms"),
              std::string::npos);
}

TEST_F(DaemonTest, FinalDumpCarriesUptimeWithoutAStatsRequest)
{
    // Gauges are computed when rendering, so the shutdown dump has a
    // current uptime even if no client ever asked for stats.
    ::testing::internal::CaptureStderr();
    int rc;
    {
        DaemonHarness h("final", {}, /*quiet=*/false);
        rc = h.stop();
    }
    std::string dump = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 0) << dump;
    EXPECT_NE(dump.find("paralogd: final metrics\n"), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("\ngauge daemon.uptime-ms "), std::string::npos)
        << dump;
}

// -------------------------------------------- ill-behaved clients

TEST_F(DaemonTest, CorruptCrcClientPoisonsOnlyItsSession)
{
    DaemonHarness h("crc");
    ASSERT_TRUE(h.started());

    SubmitOptions bad = h.submitOpts();
    bad.corruptByteOffset =
        static_cast<long>(trace::kHeaderBytes) + 16 + 2; // payload byte
    SubmitResult r = submitTrace(sharedTrace().path, bad);
    ASSERT_TRUE(r.ok) << r.error; // transport fine; verdict is not
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("crc-mismatch"), std::string::npos)
        << r.responseJson;
    EXPECT_GE(h.stats().get("ingest.failed.crc-mismatch"), 1u);

    // The daemon is unharmed: a clean submit still round-trips.
    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, DaemonSideCrcFaultHitsOneSession)
{
    DaemonHarness h("crcfault");
    ASSERT_TRUE(h.started());

    armFault("daemon.corrupt-crc", 0); // first session's upload
    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("crc-mismatch"), std::string::npos);
    clearFault("daemon.corrupt-crc");

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

TEST_F(DaemonTest, MidUploadDisconnectIsAccountedTruncated)
{
    DaemonHarness h("dc");
    ASSERT_TRUE(h.started());

    SubmitOptions bad = h.submitOpts();
    bad.disconnectAfterFraction = 0.5;
    bad.chunkBytes = 4096;
    SubmitResult r = submitTrace(sharedTrace().path, bad);
    EXPECT_FALSE(r.ok); // we hung up on purpose

    EXPECT_TRUE(waitFor([&] {
        return h.stats().get("ingest.failed.truncated") >= 1;
    }));
    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

TEST_F(DaemonTest, HeaderOnlyUploadIsTruncated)
{
    DaemonHarness h("hdronly");
    ASSERT_TRUE(h.started());

    std::vector<std::uint8_t> bytes = slurp(sharedTrace().path);
    ASSERT_GT(bytes.size(), trace::kHeaderBytes);
    bytes.resize(trace::kHeaderBytes);
    std::string stub = ::testing::TempDir() + "pld_hdronly_" +
                       std::to_string(::getpid()) + ".trace";
    spit(stub, bytes);

    SubmitResult r = submitTrace(stub, h.submitOpts());
    std::remove(stub.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("truncated"), std::string::npos)
        << r.responseJson;
}

TEST_F(DaemonTest, TrailingBytesAfterFooterAreRejected)
{
    DaemonHarness h("trail");
    ASSERT_TRUE(h.started());

    std::vector<std::uint8_t> bytes = slurp(sharedTrace().path);
    bytes.push_back(0x42);
    std::string stub = ::testing::TempDir() + "pld_trail_" +
                       std::to_string(::getpid()) + ".trace";
    spit(stub, bytes);

    SubmitResult r = submitTrace(stub, h.submitOpts());
    std::remove(stub.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("trailing-data"), std::string::npos)
        << r.responseJson;
}

TEST_F(DaemonTest, GarbageMagicIsRejected)
{
    DaemonHarness h("magic");
    ASSERT_TRUE(h.started());

    std::string answer = rawExchange(h.socket(), "NOTAPROT");
    EXPECT_NE(answer.find("\"status\":\"rejected\""), std::string::npos)
        << answer;
    EXPECT_NE(answer.find("bad-request-magic"), std::string::npos);
    EXPECT_GE(h.stats().get("sessions.rejected"), 1u);
}

TEST_F(DaemonTest, SlowLorisHitsIdleTimeout)
{
    DaemonConfig cfg;
    cfg.idleTimeoutMs = 200;
    DaemonHarness h("loris", cfg);
    ASSERT_TRUE(h.started());

    SubmitOptions slow = h.submitOpts();
    slow.chunkBytes = 512;
    slow.interChunkDelayMs = 800; // way past the idle clock
    slow.timeoutMs = 20000;
    SubmitResult r = submitTrace(sharedTrace().path, slow);
    // The daemon answers "failed"/idle-timeout and closes; depending on
    // timing the client sees that response or a send failure.
    if (r.ok) {
        EXPECT_EQ(r.status(), "failed") << r.responseJson;
    }
    EXPECT_TRUE(waitFor([&] {
        return h.stats().get("idle-timeouts") >= 1;
    }));

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

TEST_F(DaemonTest, DroppedConnectionFaultLeavesDaemonServing)
{
    DaemonHarness h("drop");
    ASSERT_TRUE(h.started());

    armFault("daemon.drop-conn", 0); // first accepted connection
    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    EXPECT_FALSE(r.ok); // peer vanished before answering
    clearFault("daemon.drop-conn");
    EXPECT_EQ(h.stats().get("conns.dropped"), 1u);

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

// ------------------------------------------- admission and containment

TEST_F(DaemonTest, OverSessionCapIsRejectedNotBlocked)
{
    DaemonConfig cfg;
    cfg.maxSessions = 1;
    DaemonHarness h("cap", cfg);
    ASSERT_TRUE(h.started());

    // Occupy the one session slot with an idle connection.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, h.socket().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(waitFor([&] {
        return h.stats().get("conns.accepted") >= 1;
    }));

    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error; // answered immediately, not queued
    EXPECT_EQ(r.status(), "rejected") << r.responseJson;
    EXPECT_NE(r.responseJson.find("too-many-sessions"),
              std::string::npos);
    ::close(fd);
}

TEST_F(DaemonTest, FullQueueShedsInsteadOfBlocking)
{
    DaemonConfig cfg;
    cfg.workers = 1;
    cfg.maxQueuedJobs = 1;
    DaemonHarness h("shed", cfg);
    ASSERT_TRUE(h.started());

    armFault("daemon.stall-worker", 600); // hold the one worker busy

    constexpr int kClients = 4;
    std::vector<SubmitResult> results(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            results[i] = submitTrace(sharedTrace().path, h.submitOpts());
        });
    for (std::thread &t : clients)
        t.join();
    clearFault("daemon.stall-worker");

    int ok = 0, shed = 0;
    for (const SubmitResult &r : results) {
        ASSERT_TRUE(r.ok) << r.error; // every client got an answer
        if (r.status() == "ok")
            ++ok;
        else if (r.status() == "shed") {
            ++shed;
            EXPECT_NE(r.responseJson.find("queue-full"),
                      std::string::npos)
                << r.responseJson;
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(shed, 1);
    EXPECT_EQ(ok + shed, kClients);
    EXPECT_EQ(h.stats().get("jobs.shed"),
              static_cast<std::uint64_t>(shed));
}

TEST_F(DaemonTest, WorkerPanicIsContainedToItsJob)
{
    DaemonHarness h("panic");
    ASSERT_TRUE(h.started());

    armFault("job.fail", 0); // first job panics in its worker
    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("injected failure"),
              std::string::npos)
        << r.responseJson;
    clearFault("job.fail");

    // Same worker pool, next job: unharmed.
    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
    EXPECT_GE(h.stats().get("jobs.failed"), 1u);
    EXPECT_GE(h.stats().get("jobs.completed"), 1u);
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, FutureStampedOpFailsItsJobAndFreesTheWorker)
{
    // An upload whose journal stamps one op far past the recorded run
    // used to idle its replay toward maxCycles, pinning the worker. The
    // reader refuses the op, so the job fails fast with that diagnosis
    // and the only worker is free for the next upload.
    DaemonConfig cfg;
    cfg.workers = 1;
    DaemonHarness h("future", cfg);
    ASSERT_TRUE(h.started());

    std::string bad = ::testing::TempDir() + "pld_future_" +
                      std::to_string(::getpid()) + ".trace";
    test::recordLuJournal<test::FutureStampRecorder>(bad, MemoryModel::kSC);
    SubmitResult r = submitTrace(bad, h.submitOpts());
    std::remove(bad.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("op cycle beyond the recorded run"),
              std::string::npos)
        << r.responseJson;

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
    EXPECT_NE(good.responseJson.find(fingerprintField(sharedTrace().shadowFp)),
              std::string::npos)
        << good.responseJson;
    EXPECT_EQ(h.stats().get("jobs.failed"), 1u);
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, ReservedHeaderWordGetsAnOkVerdict)
{
    // An upload whose header holds a nonzero reserved word (offset 36,
    // a since-removed host-tuning value) is a valid recording: the job
    // runs to an ok verdict with the untouched recording's results.
    const std::string src = test::corpusTrace("addrcheck_sc_v2");
    if (src.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    DaemonHarness h("reserved");
    ASSERT_TRUE(h.started());

    std::string path = ::testing::TempDir() + "pld_reserved_" +
                       std::to_string(::getpid()) + ".trace";
    test::copyWithHeader(src, path,
                         [](std::uint8_t *h) { trace::put32le(h + 36, 3); });
    SubmitResult r = submitTrace(path, h.submitOpts());
    std::remove(path.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;

    trace::TraceReader original(src);
    ASSERT_TRUE(original.ok()) << original.error();
    EXPECT_NE(r.responseJson.find(fingerprintField(
                  original.footer().result.shadowFingerprint)),
              std::string::npos)
        << r.responseJson;
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, RetiredLiveParallelBitFailsAtIngest)
{
    // An upload whose header sets config flag bit 4 (journals of the
    // retired live host-parallel engine, which no engine can replay) is
    // refused while the header streams in: a `failed` verdict naming
    // the bad header, and no job is queued.
    const std::string src = test::corpusTrace("taintcheck_tso_v2");
    if (src.empty())
        GTEST_SKIP() << "PARALOG_CORPUS not set (run under CTest)";
    DaemonHarness h("liveparallel");
    ASSERT_TRUE(h.started());

    std::string path = ::testing::TempDir() + "pld_liveparallel_" +
                       std::to_string(::getpid()) + ".trace";
    test::copyWithHeader(src, path, [](std::uint8_t *h) {
        h[29] |= trace::kCfgLiveParallel;
    });
    SubmitResult r = submitTrace(path, h.submitOpts());
    std::remove(path.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find(
                  "bad-header: recorded by the retired live host-parallel "
                  "engine"),
              std::string::npos)
        << r.responseJson;
    EXPECT_EQ(h.stats().get("ingest.failed.bad-header"), 1u);
    EXPECT_EQ(h.stats().get("jobs.accepted"), 0u);
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, DrainFinishesRunningJobAndExitsZero)
{
    DaemonHarness h("drain");
    ASSERT_TRUE(h.started());

    armFault("daemon.stall-worker", 500);
    SubmitResult r;
    std::thread client([&] {
        r = submitTrace(sharedTrace().path, h.submitOpts());
    });
    // Wait until the job is accepted (and promptly picked up by an
    // idle worker), then start the drain under it.
    ASSERT_TRUE(waitFor([&] {
        return h.stats().get("jobs.accepted") >= 1;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int rc = h.stop();
    client.join();
    clearFault("daemon.stall-worker");

    EXPECT_EQ(rc, 0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;
    EXPECT_GE(r.heartbeats, 1) << "no PLHB while the worker stalled";
}

// ------------------------------------------------------------ chaos mix

TEST_F(DaemonTest, ChaosMixDrainsCleanWithBalancedBooks)
{
    DaemonConfig cfg;
    cfg.workers = 2;
    cfg.maxQueuedJobs = 16; // well-behaved clients must not be shed
    DaemonHarness h("chaos", cfg);
    ASSERT_TRUE(h.started());

    const std::string &trace_path = sharedTrace().path;
    std::string expect_fp = fingerprintField(sharedTrace().shadowFp);

    // Stub files for the structurally-broken clients.
    std::vector<std::uint8_t> bytes = slurp(trace_path);
    std::vector<std::uint8_t> header_only(
        bytes.begin(), bytes.begin() + trace::kHeaderBytes);
    std::string stub = ::testing::TempDir() + "pld_chaos_stub_" +
                       std::to_string(::getpid()) + ".trace";
    spit(stub, header_only);

    constexpr int kGood = 6;
    std::vector<SubmitResult> good(kGood);
    SubmitResult corrupt, vanisher, slow, headerOnly;
    std::vector<std::thread> clients;

    for (int i = 0; i < kGood; ++i)
        clients.emplace_back([&, i] {
            SubmitOptions opt = h.submitOpts();
            if (i == 0)
                opt.lifeguards = {LifeguardKind::kTaintCheck,
                                  LifeguardKind::kAddrCheck};
            if (i % 2)
                opt.chunkBytes = 1536; // ragged send sizes
            good[i] = submitTrace(trace_path, opt);
        });
    clients.emplace_back([&] {
        SubmitOptions opt = h.submitOpts();
        opt.corruptByteOffset =
            static_cast<long>(trace::kHeaderBytes) + 16 + 5;
        corrupt = submitTrace(trace_path, opt);
    });
    clients.emplace_back([&] {
        SubmitOptions opt = h.submitOpts();
        opt.disconnectAfterFraction = 0.4;
        opt.chunkBytes = 4096;
        vanisher = submitTrace(trace_path, opt);
    });
    clients.emplace_back([&] {
        SubmitOptions opt = h.submitOpts();
        opt.chunkBytes = 16 * 1024;
        opt.interChunkDelayMs = 5; // slow but inside the idle budget
        slow = submitTrace(trace_path, opt);
    });
    clients.emplace_back(
        [&] { headerOnly = submitTrace(stub, h.submitOpts()); });
    clients.emplace_back([&] { // stats poller riding along
        for (int i = 0; i < 10; ++i) {
            std::string text, err;
            fetchStats(h.socket(), text, err);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    for (std::thread &t : clients)
        t.join();
    std::remove(stub.c_str());

    // Every well-behaved client got the offline-replay fingerprint.
    for (int i = 0; i < kGood; ++i) {
        ASSERT_TRUE(good[i].ok) << i << ": " << good[i].error;
        EXPECT_EQ(good[i].status(), "ok") << good[i].responseJson;
        EXPECT_NE(good[i].responseJson.find(expect_fp),
                  std::string::npos)
            << good[i].responseJson;
    }
    ASSERT_TRUE(slow.ok) << slow.error;
    EXPECT_EQ(slow.status(), "ok");
    EXPECT_NE(slow.responseJson.find(expect_fp), std::string::npos);

    // Every ill-behaved client was answered (or cut off) and accounted.
    ASSERT_TRUE(corrupt.ok) << corrupt.error;
    EXPECT_EQ(corrupt.status(), "failed");
    EXPECT_FALSE(vanisher.ok);
    ASSERT_TRUE(headerOnly.ok) << headerOnly.error;
    EXPECT_EQ(headerOnly.status(), "failed");

    const StatSet &m = h.stats();
    EXPECT_GE(m.get("ingest.failed.crc-mismatch"), 1u);
    EXPECT_TRUE(waitFor([&] {
        return m.get("ingest.failed.truncated") >= 2;
    })) << "disconnect + header-only not accounted";

    // Books balance: all accepted jobs ran to a verdict, nothing stuck.
    EXPECT_TRUE(waitFor([&] {
        return m.get("jobs.accepted") == m.get("jobs.completed");
    }));
    EXPECT_EQ(m.get("jobs.accepted"),
              static_cast<std::uint64_t>(kGood) + 1); // good + slow

    EXPECT_EQ(h.stop(), 0) << "chaos left the daemon unable to drain";
}

} // namespace
} // namespace paralog::daemon
