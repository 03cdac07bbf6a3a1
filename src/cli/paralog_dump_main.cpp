/**
 * @file
 * `paralog-dump`: offline trace inspector for paralog-trace-v1/v2
 * files. Prints the decoded header, the chunk inventory, the footer,
 * and (with --ops=N) the first N decoded journal ops per thread.
 *
 * The output is fully deterministic for a given file — recordings are
 * themselves deterministic, so test goldens can pin it byte-for-byte.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "trace/format.hpp"
#include "trace/trace_reader.hpp"

namespace {

using namespace paralog;
using namespace paralog::trace;

const char *
chunkKindName(std::uint32_t kind)
{
    switch (kind) {
      case kChunkOps:         return "ops";
      case kChunkMetaLatency: return "latency";
      case kChunkFooter:      return "footer";
    }
    return "unknown";
}

const char *
opName(OpCode op)
{
    switch (op) {
      case OpCode::kRetire:          return "retire";
      case OpCode::kAppend:          return "append";
      case OpCode::kAppendCa:        return "append-ca";
      case OpCode::kAttachArcs:      return "attach-arcs";
      case OpCode::kAnnotateConsume: return "annotate-consume";
      case OpCode::kInsertProduce:   return "insert-produce";
      case OpCode::kVisLimit:        return "vis-limit";
      case OpCode::kCaBroadcast:     return "ca-broadcast";
    }
    return "?";
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

void
printHeader(const std::string &path, const TraceReader &reader)
{
    const TraceConfig &c = reader.config();
    // Basename only: dump output is pinned by golden tests, which must
    // not depend on where the corpus happens to be checked out.
    std::size_t slash = path.find_last_of('/');
    const char *base =
        path.c_str() + (slash == std::string::npos ? 0 : slash + 1);
    std::printf("%s: paralog-trace-v%u\n", base, reader.formatVersion());
    std::printf("header:\n");
    std::printf("  config fingerprint: 0x%016llx\n",
                ull(reader.configFingerprint()));
    std::printf("  workload:           %s\n", cli::flagName(c.workload));
    std::printf("  lifeguard:          %s\n", cli::flagName(c.lifeguard));
    std::printf("  mode:               %s\n", cli::flagName(c.mode));
    std::printf("  memory model:       %s\n",
                cli::flagName(c.memoryModel));
    std::printf("  dep tracking:       %s\n",
                cli::flagName(c.depTracking));
    std::printf("  conflict alerts:    %s\n",
                c.conflictAlerts ? "on" : "off");
    std::printf("  accelerators:       IT %s, IF %s, M-TLB %s\n",
                c.accelIT ? "on" : "off", c.accelIF ? "on" : "off",
                c.accelMTLB ? "on" : "off");
    std::printf("  filter bits:        0x%02x\n", c.filterBits);
    std::printf("  app threads:        %u\n", c.appThreads);
    std::printf("  scale:              %llu\n", ull(c.scale));
    std::printf("  seed:               %llu\n", ull(c.seed));
    std::printf("  log buffer:         %llu\n", ull(c.logBufferBytes));
    std::printf("  total ops:          %llu\n", ull(reader.totalOps()));
    std::printf("  total records:      %llu\n",
                ull(reader.totalRecords()));
}

void
printChunks(TraceReader &reader)
{
    std::printf("chunks:\n");
    std::printf("  %-5s %-8s %-6s %s\n", "idx", "kind", "tid", "bytes");
    std::uint64_t payload_bytes = 0;
    std::size_t per_kind[3] = {0, 0, 0}, unknown = 0;
    for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
        std::uint32_t kind = reader.chunkKind(i);
        std::uint32_t tid = reader.chunkTid(i);
        char tid_buf[16];
        if (tid == kNoThread)
            std::snprintf(tid_buf, sizeof tid_buf, "-");
        else
            std::snprintf(tid_buf, sizeof tid_buf, "%u", tid);
        std::printf("  %-5zu %-8s %-6s %u\n", i, chunkKindName(kind),
                    tid_buf, reader.chunkBytes(i));
        payload_bytes += reader.chunkBytes(i);
        if (kind < 3)
            ++per_kind[kind];
        else
            ++unknown;
    }
    std::printf("  total: %zu chunks (%zu ops, %zu latency, %zu footer",
                reader.chunkCount(), per_kind[0], per_kind[1],
                per_kind[2]);
    if (unknown > 0)
        std::printf(", %zu unknown", unknown);
    std::printf("), %llu payload bytes\n", ull(payload_bytes));
}

void
printFooter(const TraceReader &reader)
{
    const TraceFooter &f = reader.footer();
    const RunResult &r = f.result;
    std::printf("footer:\n");
    std::printf("  total cycles:       %llu\n", ull(r.totalCycles));
    std::printf("  violations:         %llu\n", ull(r.violationCount));
    std::printf("  versions:           produced %llu, consumed %llu, "
                "stall retries %llu\n",
                ull(r.versionsProduced), ull(r.versionsConsumed),
                ull(r.versionStallRetries));
    std::printf("  shadow fingerprint: 0x%016llx\n",
                ull(r.shadowFingerprint));
    if (f.hasViolationFingerprint)
        std::printf("  violation fingerprint: 0x%016llx\n",
                    ull(r.violationFingerprint));
    else
        std::printf("  violation fingerprint: absent (pre-v2 tooling)\n");
    std::printf("  ops per thread:     [");
    for (std::size_t i = 0; i < f.opCount.size(); ++i)
        std::printf("%s%llu", i ? ", " : "", ull(f.opCount[i]));
    std::printf("]\n");
    std::printf("  records per thread: [");
    for (std::size_t i = 0; i < f.recordCount.size(); ++i)
        std::printf("%s%llu", i ? ", " : "", ull(f.recordCount[i]));
    std::printf("]\n");
}

/** Print the first @p max_ops decoded ops of thread @p tid. Returns
 *  false if the reader failed mid-stream. */
bool
printOps(TraceReader &reader, ThreadId tid, std::uint64_t max_ops)
{
    std::printf("ops[t%u]:\n", tid);
    TraceReader::OpStream stream = reader.opStream(tid);
    TraceOp op;
    std::uint64_t n = 0;
    while (n < max_ops && stream.next(op)) {
        std::printf("  %-16s gseq=%llu cycle=%llu lg=%llu", opName(op.op),
                    ull(op.gseq), ull(op.cycle), ull(op.lgStep));
        switch (op.op) {
          case OpCode::kRetire:
            std::printf(" retired=%llu", ull(op.retired));
            break;
          case OpCode::kAppend:
          case OpCode::kAppendCa:
            std::printf(" rid=%llu charged=%u", ull(op.rec.rid),
                        op.chargedBytes);
            break;
          case OpCode::kAttachArcs:
            std::printf(" rid=%llu arcs=%zu", ull(op.rid),
                        op.arcs.size());
            break;
          case OpCode::kAnnotateConsume:
            std::printf(" rid=%llu", ull(op.rid));
            break;
          case OpCode::kInsertProduce:
            std::printf(" addr=0x%llx size=%u", ull(op.addr), op.size);
            break;
          case OpCode::kVisLimit:
            std::printf(" limit=%llu", ull(op.visLimit));
            break;
          case OpCode::kCaBroadcast:
            std::printf(" seq=%llu waiters=%zu", ull(op.ca.seq),
                        op.ca.arrivalRid.size());
            break;
        }
        std::printf("\n");
        ++n;
    }
    return reader.ok();
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "Usage: %s [--ops=N] [--no-mmap] TRACE-FILE\n"
                 "\n"
                 "Print a paralog-trace-v1/v2 recording's header, chunk\n"
                 "inventory and footer; --ops=N also decodes the first\n"
                 "N journal ops of every thread. --no-mmap reads the\n"
                 "file onto the heap instead of mapping it.\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::uint64_t max_ops = 0;
    TraceReader::Options ropts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (arg == "--no-mmap") {
            ropts.preferMmap = false;
        } else if (arg.rfind("--ops=", 0) == 0) {
            char *end = nullptr;
            max_ops = std::strtoull(arg.c_str() + 6, &end, 10);
            if (end == nullptr || *end != '\0')
                return usage(argv[0]);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "paralog-dump: unknown flag '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty())
        return usage(argv[0]);

    TraceReader reader(path, ropts);
    if (!reader.ok()) {
        std::fprintf(stderr, "paralog-dump: %s\n",
                     reader.error().c_str());
        return 1;
    }

    printHeader(path, reader);
    printChunks(reader);
    printFooter(reader);
    if (max_ops > 0) {
        for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
            if (!printOps(reader, t, max_ops)) {
                std::fprintf(stderr, "paralog-dump: %s\n",
                             reader.error().c_str());
                return 1;
            }
        }
    }
    return 0;
}
