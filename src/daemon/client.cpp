#include "daemon/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "daemon/protocol.hpp"
#include "trace/format.hpp"

namespace paralog::daemon {

namespace {

int
connectTo(const std::string &socket_path, std::string &error)
{
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        error = "bad socket path";
        return -1;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = "socket() failed";
        return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = "connect('" + socket_path +
                "') failed: " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::uint8_t *p, std::size_t n,
        std::string &error, int *errno_out = nullptr)
{
    while (n > 0) {
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno_out)
                *errno_out = errno;
            error = std::string("send() failed: ") +
                    std::strerror(errno);
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * Read the full response: heartbeat lines, the PLRESP1 marker, then
 * the body until EOF. Lines before the marker that are not heartbeats
 * fail the parse (protocol violation).
 */
bool
readResponse(int fd, int timeout_ms, std::string &body,
             int &heartbeats, std::string &error)
{
    std::string raw;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(
                        timeout_ms > 0 ? timeout_ms : 1 << 30);
    while (true) {
        int wait_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count());
        if (wait_ms <= 0) {
            error = "timed out waiting for response";
            return false;
        }
        pollfd pfd{fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, std::min(wait_ms, 1000));
        if (rc < 0 && errno != EINTR) {
            error = "poll() failed";
            return false;
        }
        if (rc <= 0)
            continue;
        char buf[64 * 1024];
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            // A daemon that answers early (reject, shed) closes with
            // part of the upload unread; a Unix socket then reports
            // ECONNRESET once the answer has been read instead of EOF.
            // What arrived before it is parsed like any response.
            if (errno == ECONNRESET)
                break;
            error = std::string("recv() failed: ") +
                    std::strerror(errno);
            return false;
        }
        if (n == 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }

    // Strip leading heartbeat lines, then expect the response marker.
    std::size_t off = 0;
    const std::string hb = kHeartbeatLine;
    const std::string marker = kResponseLine;
    while (raw.compare(off, hb.size(), hb) == 0) {
        ++heartbeats;
        off += hb.size();
    }
    if (raw.compare(off, marker.size(), marker) != 0) {
        error = raw.empty() ? "connection closed without a response"
                            : "malformed response";
        return false;
    }
    body = raw.substr(off + marker.size());
    while (!body.empty() && body.back() == '\n')
        body.pop_back();
    return true;
}

} // namespace

std::string
SubmitResult::status() const
{
    const std::string key = "\"status\":\"";
    std::size_t at = responseJson.find(key);
    if (at == std::string::npos)
        return "";
    at += key.size();
    std::size_t end = responseJson.find('"', at);
    return end == std::string::npos ? ""
                                    : responseJson.substr(at, end - at);
}

SubmitResult
submitTrace(const std::string &tracePath, const SubmitOptions &opt)
{
    SubmitResult res;

    std::FILE *f = std::fopen(tracePath.c_str(), "rb");
    if (!f) {
        res.error = "cannot open '" + tracePath + "'";
        return res;
    }
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> data(sz > 0 ? sz : 0);
    if (!data.empty() &&
        std::fread(data.data(), 1, data.size(), f) != data.size()) {
        std::fclose(f);
        res.error = "cannot read '" + tracePath + "'";
        return res;
    }
    std::fclose(f);

    if (opt.corruptByteOffset >= 0 &&
        static_cast<std::size_t>(opt.corruptByteOffset) < data.size())
        data[static_cast<std::size_t>(opt.corruptByteOffset)] ^= 0x01;

    int fd = connectTo(opt.socketPath, res.error);
    if (fd < 0)
        return res;

    std::vector<std::uint8_t> req(kSubmitMagic.begin(),
                                  kSubmitMagic.end());
    std::uint8_t hdr[kSubmitHeaderBytes];
    trace::put32le(hdr, 0); // flags
    trace::put32le(hdr + 4,
                   static_cast<std::uint32_t>(opt.lifeguards.size()));
    req.insert(req.end(), hdr, hdr + sizeof(hdr));
    for (LifeguardKind kind : opt.lifeguards)
        req.push_back(static_cast<std::uint8_t>(kind));

    // The daemon may answer (reject, shed, fail the ingest) and close
    // long before the upload is done; on a Unix socket that surfaces
    // here as EPIPE/ECONNRESET while the verdict sits readable in our
    // receive buffer. Stop sending and go read it — any other send
    // error is a real transport failure.
    bool early_close = false;
    int send_errno = 0;
    if (!sendAll(fd, req.data(), req.size(), res.error, &send_errno)) {
        if (send_errno != EPIPE && send_errno != ECONNRESET) {
            ::close(fd);
            return res;
        }
        early_close = true;
    }

    std::size_t cutoff = data.size();
    if (opt.disconnectAfterFraction >= 0.0)
        cutoff = static_cast<std::size_t>(
            static_cast<double>(data.size()) *
            std::min(opt.disconnectAfterFraction, 1.0));
    std::size_t chunk = std::max<std::size_t>(1, opt.chunkBytes);

    for (std::size_t off = 0; off < cutoff && !early_close;
         off += chunk) {
        std::size_t n = std::min(chunk, cutoff - off);
        if (!sendAll(fd, data.data() + off, n, res.error,
                     &send_errno)) {
            if (send_errno != EPIPE && send_errno != ECONNRESET) {
                ::close(fd);
                return res;
            }
            early_close = true;
            break;
        }
        if (opt.interChunkDelayMs > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opt.interChunkDelayMs));
    }

    if (!early_close && cutoff < data.size()) {
        // Chaos: vanish mid-upload.
        ::close(fd);
        res.error = "disconnected on purpose";
        return res;
    }

    res.error.clear();
    ::shutdown(fd, SHUT_WR); // done sending; await the verdict
    res.ok = readResponse(fd, opt.timeoutMs, res.responseJson,
                          res.heartbeats, res.error);
    ::close(fd);
    return res;
}

bool
fetchStats(const std::string &socketPath, std::string &out,
           std::string &error)
{
    int fd = connectTo(socketPath, error);
    if (fd < 0)
        return false;
    if (!sendAll(fd,
                 reinterpret_cast<const std::uint8_t *>(
                     kStatsMagic.data()),
                 kStatsMagic.size(), error)) {
        ::close(fd);
        return false;
    }
    ::shutdown(fd, SHUT_WR);
    int heartbeats = 0;
    bool ok = readResponse(fd, 30000, out, heartbeats, error);
    ::close(fd);
    return ok;
}

} // namespace paralog::daemon
