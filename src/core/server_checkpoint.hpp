/**
 * @file
 * Crash-consistent parameter-server checkpointing.
 *
 * The server's volatile state — the RSP version matrix, every
 * worker's pending gradients (exact Q32.32 sums since format v3),
 * ATP's MTA-time estimates, and every worker's pull-codec error
 * residual (since v4) — is periodically serialized as a
 * write-ahead checkpoint ("ROGS" format: magic, version, payload size,
 * CRC32C, payload). Files are
 * written to `<path>.tmp` and atomically renamed into place so a
 * crash mid-write can never leave a half-written checkpoint where a
 * good one stood; the CRC trailer catches torn or bit-rotten files at
 * restore time. A server that crashes recovers by loading the newest
 * checkpoint and resuming: pushes that arrived after the checkpoint
 * are re-sent by the workers' reliable links, and the monotone
 * version matrix plus the transport's exactly-once dedup guarantee no
 * gradient is applied twice.
 */
#ifndef ROG_CORE_SERVER_CHECKPOINT_HPP
#define ROG_CORE_SERVER_CHECKPOINT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/server_shard.hpp"
#include "net/session/session.hpp"

namespace rog {
namespace core {

/** Everything the server must persist to survive a crash. */
struct ServerCheckpoint
{
    /** Training iteration the checkpoint was cut at. */
    std::int64_t iteration = 0;

    /**
     * High-water transport message sequence number: restored with
     * max() so a recovered server never reuses a sequence number an
     * old in-flight frame may still carry.
     */
    std::uint64_t msg_seq = 0;

    VersionSnapshot versions;
    ServerStateSnapshot server;
    MtaTrackerSnapshot tracker;

    /**
     * Run epoch the checkpoint was cut under. A recovering server
     * restarts at `epoch + 1` so every pre-crash scope is fenced off.
     */
    std::uint64_t epoch = 0;

    /**
     * Session-recovery state: resume tokens, incarnations, and
     * progress watermarks per worker. May be empty (the in-process
     * DES engine has no session layer).
     */
    net::session::SessionSnapshot sessions;

    /**
     * Serialized model parameters at the checkpointed iteration, so a
     * restarted server can hand Rejoin workers a consistent model.
     * May be empty for engines that persist the model elsewhere.
     */
    std::vector<std::uint8_t> model;

    /**
     * Per-worker "said Bye" flags (1 = finished). Distinguishes a
     * finished worker from an evicted one — both retire their version
     * rows, but only the finished one will never Hello again, and a
     * restarted server must not wait on it. Empty or workers-sized.
     */
    std::vector<std::uint8_t> worker_done;

    /**
     * Per-worker pull-codec error residuals (v4): the gradient mass
     * the server->worker codec has quantized away but not yet
     * delivered. Empty (no pull codecs) or workers-sized; each list
     * ascends by block with no repeats, and every value is finite.
     */
    std::vector<std::vector<compress::BlockResidual>> pull_residual;
};

/** Serialize @p ckpt (with CRC32C trailer) to @p os. @throws on I/O
 *  error. */
void writeServerCheckpoint(std::ostream &os,
                           const ServerCheckpoint &ckpt);

/**
 * Parse a checkpoint, verifying magic, version, payload size, and
 * CRC32C before trusting a single payload byte.
 *
 * @throws std::runtime_error on any malformed input.
 */
ServerCheckpoint readServerCheckpoint(std::istream &is);

/**
 * Write to `path + ".tmp"`, then atomically rename onto @p path —
 * readers see either the old complete file or the new complete file,
 * never a prefix.
 */
void writeServerCheckpointFile(const std::string &path,
                               const ServerCheckpoint &ckpt);

/** @throws std::runtime_error if missing, torn, or corrupt. */
ServerCheckpoint readServerCheckpointFile(const std::string &path);

} // namespace core
} // namespace rog

#endif // ROG_CORE_SERVER_CHECKPOINT_HPP
