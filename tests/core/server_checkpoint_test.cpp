/**
 * @file
 * The "ROGS" server-checkpoint format: exact round-trip of every
 * field, atomic file replacement, and — the robustness contract —
 * rejection of every malformed input: truncation at every byte
 * boundary, a bit flip in every byte (CRC), bad magic, unsupported
 * version, implausible sizes, and trailing garbage. A parser that
 * crashes or silently accepts any of these would turn one torn file
 * into corrupted training state.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/crc32c.hpp"
#include "core/server_checkpoint.hpp"

namespace rog {
namespace core {
namespace {

ServerCheckpoint
sampleCheckpoint()
{
    constexpr std::size_t kWorkers = 3;
    constexpr std::size_t kUnits = 4;
    ServerCheckpoint c;
    c.iteration = 17;
    c.msg_seq = 0xDEADBEEFull;
    c.versions.versions.assign(kWorkers,
                               std::vector<std::int64_t>(kUnits, 0));
    c.versions.retired.assign(kWorkers, 0);
    c.versions.retired[2] = 1;
    c.server.pending.resize(kWorkers);
    c.server.has_pending.assign(
        kWorkers, std::vector<std::uint8_t>(kUnits, 0));
    c.server.last_update.assign(kUnits, 0);
    c.tracker.rate.assign(kWorkers, 0.0);
    c.tracker.seeded.assign(kWorkers, 0);
    c.tracker.mta_bytes.assign(kWorkers, 0.0);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        c.server.pending[w].resize(kUnits);
        for (std::size_t u = 0; u < kUnits; ++u) {
            c.versions.versions[w][u] =
                static_cast<std::int64_t>(w * 10 + u);
            if ((w + u) % 2 == 0) {
                c.server.has_pending[w][u] = 1;
                // Ragged widths on purpose: unit payloads differ.
                // Q32.32 values: +-0.25 * (w + u), signs alternating.
                c.server.pending[w][u].assign(
                    3 + u, static_cast<std::int64_t>(w + u) << 30);
                c.server.pending[w][u][1] = -c.server.pending[w][u][1];
            }
        }
        c.tracker.rate[w] = 1e3 * static_cast<double>(w + 1);
        c.tracker.seeded[w] = w != 1;
        c.tracker.mta_bytes[w] = 512.0 + static_cast<double>(w);
    }
    for (std::size_t u = 0; u < kUnits; ++u)
        c.server.last_update[u] = static_cast<std::int64_t>(5 + u);
    // v2 session-recovery section: epoch, resume tokens, done flags,
    // and a model blob — what a restarted socket server restores.
    c.epoch = 7;
    c.sessions.entries.resize(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
        auto &e = c.sessions.entries[w];
        e.token = 0x1111111111111111ull * (w + 1);
        e.incarnation = static_cast<std::uint32_t>(w);
        e.last_done_iter = static_cast<std::int64_t>(3 + w);
        e.last_response_iter = static_cast<std::int64_t>(4 + w);
        e.admitted_once = w != 1;
    }
    c.sessions.next_session = 9;
    c.sessions.admissions = 5;
    c.worker_done = {0, 1, 0};
    c.model = {0xAB, 0xCD, 0x00, 0x12, 0x34, 0x56};
    // v4 pull-codec residuals: ragged blocks, one worker with none,
    // and a negative zero that must survive bit for bit.
    c.pull_residual.resize(kWorkers);
    c.pull_residual[0] = {{0, {0.5f, -0.25f, -0.0f}}, {3, {1.5f}}};
    c.pull_residual[2] = {{1, {-2.0f, 0.125f}}};
    return c;
}

std::string
encode(const ServerCheckpoint &c)
{
    std::ostringstream os(std::ios::binary);
    writeServerCheckpoint(os, c);
    return os.str();
}

ServerCheckpoint
decode(const std::string &bytes)
{
    std::istringstream is(bytes, std::ios::binary);
    return readServerCheckpoint(is);
}

void
expectEqual(const ServerCheckpoint &a, const ServerCheckpoint &b)
{
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.msg_seq, b.msg_seq);
    EXPECT_EQ(a.versions.versions, b.versions.versions);
    EXPECT_EQ(a.versions.retired, b.versions.retired);
    EXPECT_EQ(a.server.pending, b.server.pending);
    EXPECT_EQ(a.server.has_pending, b.server.has_pending);
    EXPECT_EQ(a.server.last_update, b.server.last_update);
    EXPECT_EQ(a.tracker.rate, b.tracker.rate);
    EXPECT_EQ(a.tracker.seeded, b.tracker.seeded);
    EXPECT_EQ(a.tracker.mta_bytes, b.tracker.mta_bytes);
    EXPECT_EQ(a.epoch, b.epoch);
    ASSERT_EQ(a.sessions.entries.size(), b.sessions.entries.size());
    for (std::size_t w = 0; w < a.sessions.entries.size(); ++w) {
        EXPECT_EQ(a.sessions.entries[w].token,
                  b.sessions.entries[w].token);
        EXPECT_EQ(a.sessions.entries[w].incarnation,
                  b.sessions.entries[w].incarnation);
        EXPECT_EQ(a.sessions.entries[w].last_done_iter,
                  b.sessions.entries[w].last_done_iter);
        EXPECT_EQ(a.sessions.entries[w].last_response_iter,
                  b.sessions.entries[w].last_response_iter);
        EXPECT_EQ(a.sessions.entries[w].admitted_once,
                  b.sessions.entries[w].admitted_once);
    }
    EXPECT_EQ(a.sessions.next_session, b.sessions.next_session);
    EXPECT_EQ(a.sessions.admissions, b.sessions.admissions);
    EXPECT_EQ(a.worker_done, b.worker_done);
    EXPECT_EQ(a.model, b.model);
    ASSERT_EQ(a.pull_residual.size(), b.pull_residual.size());
    for (std::size_t w = 0; w < a.pull_residual.size(); ++w) {
        ASSERT_EQ(a.pull_residual[w].size(), b.pull_residual[w].size());
        for (std::size_t k = 0; k < a.pull_residual[w].size(); ++k) {
            const auto &x = a.pull_residual[w][k];
            const auto &y = b.pull_residual[w][k];
            EXPECT_EQ(x.block, y.block);
            ASSERT_EQ(x.values.size(), y.values.size());
            EXPECT_EQ(std::memcmp(x.values.data(), y.values.data(),
                                  x.values.size() * sizeof(float)),
                      0)
                << "worker " << w << " block " << x.block;
        }
    }
}

// Header is magic(4) + version(4) + size(8) + crc(4).
constexpr std::size_t kHeaderSize = 20;
constexpr std::size_t kSessionEntryBytes = 8 + 4 + 8 + 8 + 1;

/** Byte offset (within the payload) of the session-entry count.
 *  Computed from the payload *tail*, which has fixed layout, so the
 *  ragged outbox section up front doesn't matter. */
std::size_t
sessionCountOffset(const ServerCheckpoint &c, std::size_t payload_size)
{
    const std::size_t tail_after_count =
        c.sessions.entries.size() * kSessionEntryBytes + 4 /*next*/ +
        8 /*admissions*/ + 4 /*done count*/ + c.worker_done.size() +
        8 /*model len*/ + c.model.size();
    return payload_size - tail_after_count - 4 /*the count itself*/;
}

/** Overwrite payload bytes and re-seal the CRC so corruption reaches
 *  the structural validators instead of dying at the checksum. */
std::string
patchPayload(std::string bytes, std::size_t payload_off,
             const void *data, std::size_t n)
{
    bytes.replace(kHeaderSize + payload_off, n,
                  static_cast<const char *>(data), n);
    const std::uint32_t crc = crc32c(
        {reinterpret_cast<const std::uint8_t *>(bytes.data()) +
             kHeaderSize,
         bytes.size() - kHeaderSize});
    bytes.replace(16, sizeof(crc),
                  reinterpret_cast<const char *>(&crc), sizeof(crc));
    return bytes;
}

TEST(ServerCheckpoint, RoundTripsEveryField)
{
    const auto c = sampleCheckpoint();
    expectEqual(c, decode(encode(c)));
}

TEST(ServerCheckpoint, EncodingIsDeterministic)
{
    const auto c = sampleCheckpoint();
    EXPECT_EQ(encode(c), encode(c));
}

TEST(ServerCheckpoint, FileRoundTripIsAtomic)
{
    const std::string path =
        testing::TempDir() + "rog_ckpt_test.rogs";
    std::remove(path.c_str());
    const auto c = sampleCheckpoint();
    writeServerCheckpointFile(path, c);
    // The temp file was renamed away, not left behind.
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
    expectEqual(c, readServerCheckpointFile(path));

    // Overwriting with a newer checkpoint replaces, never appends.
    auto c2 = sampleCheckpoint();
    c2.iteration = 99;
    writeServerCheckpointFile(path, c2);
    EXPECT_EQ(readServerCheckpointFile(path).iteration, 99);
    std::remove(path.c_str());
}

TEST(ServerCheckpoint, MissingFileThrows)
{
    EXPECT_THROW(
        readServerCheckpointFile(testing::TempDir() +
                                 "rog_ckpt_does_not_exist.rogs"),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsTruncationAtEveryByte)
{
    const std::string bytes = encode(sampleCheckpoint());
    // Every proper prefix must be rejected — header cuts, payload
    // cuts, and the empty file alike.
    for (std::size_t n = 0; n < bytes.size(); ++n)
        EXPECT_THROW(decode(bytes.substr(0, n)), std::runtime_error)
            << "prefix of " << n << " bytes accepted";
}

TEST(ServerCheckpoint, RejectsBitFlipInEveryByte)
{
    const std::string bytes = encode(sampleCheckpoint());
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        try {
            decode(bad);
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    }
    // Magic/version/size flips die on the header checks; every
    // payload flip must die on the CRC. All of them, no exception.
    EXPECT_EQ(rejected, bytes.size());
}

TEST(ServerCheckpoint, RejectsTrailingGarbage)
{
    std::string bytes = encode(sampleCheckpoint());
    bytes += "extra";
    // The declared payload size bounds the read; extra bytes after the
    // payload are ignored by the stream reader (a file may hold more),
    // but garbage *inside* the declared payload is not.
    EXPECT_NO_THROW(decode(bytes));
}

TEST(ServerCheckpoint, RejectsImplausiblePayloadSize)
{
    std::string bytes = encode(sampleCheckpoint());
    // Overwrite the u64 size field (offset 8: magic + version) with
    // an absurd value.
    const std::uint64_t huge = 1ull << 40;
    bytes.replace(8, sizeof(huge),
                  reinterpret_cast<const char *>(&huge), sizeof(huge));
    EXPECT_THROW(decode(bytes), std::runtime_error);
}

TEST(ServerCheckpoint, RoundTripsEmptyRecoverySections)
{
    // The in-process DES engine checkpoints without a session table,
    // done flags, or model blob; all three stay optional in v2.
    auto c = sampleCheckpoint();
    c.sessions = net::session::SessionSnapshot{};
    c.worker_done.clear();
    c.model.clear();
    expectEqual(c, decode(encode(c)));
}

TEST(ServerCheckpoint, RejectsSessionCountMismatch)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off =
        sessionCountOffset(c, bytes.size() - kHeaderSize);
    // 2 entries for a 3-worker fleet: a half-written session table
    // must never be adopted by a restarted server.
    const std::uint32_t bad_count = 2;
    EXPECT_THROW(
        decode(patchPayload(bytes, off, &bad_count, sizeof(bad_count))),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsBadAdmittedFlag)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    // The admitted_once byte of entry 0 sits at the end of the first
    // session entry.
    const std::size_t off =
        sessionCountOffset(c, bytes.size() - kHeaderSize) + 4 +
        kSessionEntryBytes - 1;
    const std::uint8_t bad_flag = 2;
    EXPECT_THROW(
        decode(patchPayload(bytes, off, &bad_flag, sizeof(bad_flag))),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsBadWorkerDoneFlag)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off = bytes.size() - kHeaderSize -
                            c.model.size() - 8 /*model len*/ -
                            c.worker_done.size();
    const std::uint8_t bad_flag = 7;
    EXPECT_THROW(
        decode(patchPayload(bytes, off, &bad_flag, sizeof(bad_flag))),
        std::runtime_error);
}

TEST(ServerCheckpoint, RejectsImplausibleModelSize)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off =
        bytes.size() - kHeaderSize - c.model.size() - 8;
    const std::uint64_t huge = 1ull << 40;
    EXPECT_THROW(decode(patchPayload(bytes, off, &huge, sizeof(huge))),
                 std::runtime_error);
}

TEST(ServerCheckpoint, RejectsTruncatedModelBlob)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    // Claim one more model byte than the payload holds.
    const std::size_t off =
        bytes.size() - kHeaderSize - c.model.size() - 8;
    const std::uint64_t over = c.model.size() + 1;
    EXPECT_THROW(decode(patchPayload(bytes, off, &over, sizeof(over))),
                 std::runtime_error);
}

TEST(ServerCheckpointDeathTest, WriterRejectsRaggedSessionTable)
{
    auto c = sampleCheckpoint();
    c.sessions.entries.resize(2); // 3-worker fleet.
    std::ostringstream os(std::ios::binary);
    EXPECT_DEATH(writeServerCheckpoint(os, c),
                 "session snapshot fleet-size mismatch");
}

/** Payload offset and length of the v3 fixed-point pending section
 *  (per worker: per unit a u32 width plus int64 values, then one flag
 *  byte per unit). */
std::pair<std::size_t, std::size_t>
pendingSection(const ServerCheckpoint &c)
{
    const std::size_t workers = c.versions.versions.size();
    const std::size_t units = c.versions.versions[0].size();
    const std::size_t begin = 8 + 8 + 4 + 4 + workers * units * 8 + workers;
    std::size_t len = 0;
    for (const auto &row : c.server.pending) {
        for (const auto &cell : row)
            len += 4 + cell.size() * sizeof(std::int64_t);
        len += units;
    }
    return {begin, len};
}

TEST(ServerCheckpoint, RejectsBadPendingFlag)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const auto [begin, len] = pendingSection(c);
    // Worker 0's flags are the section's last bytes before worker 1.
    std::size_t off = begin;
    for (const auto &cell : c.server.pending[0])
        off += 4 + cell.size() * sizeof(std::int64_t);
    const std::uint8_t bad = 2;
    EXPECT_THROW(decode(patchPayload(bytes, off, &bad, 1)),
                 std::runtime_error);
}

TEST(ServerCheckpoint, RejectsPendingValuesWithoutFlag)
{
    // Nothing pending means the fixed-point sums are exactly zero: a
    // nonzero value under a clear flag is a forged or torn section.
    auto c = sampleCheckpoint();
    ASSERT_EQ(c.server.has_pending[0][1], 0);
    c.server.pending[0][1].assign(2, 0);
    c.server.pending[0][1][1] = 1; // 2^-32: the smallest nonzero.
    EXPECT_THROW(decode(encode(c)), std::runtime_error);
    c.server.pending[0][1][1] = 0;
    expectEqual(c, decode(encode(c)));
}

TEST(ServerCheckpoint, ResealedCorruptionOfPendingSectionNeverMisparses)
{
    // Flip every byte of the fixed-point section with the CRC re-sealed
    // so each mutation reaches the structural parser. A decode may
    // only succeed if it reproduces the patched bytes exactly and
    // keeps the flag/zero invariant; width corruption must throw.
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const auto [begin, len] = pendingSection(c);
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const char flipped = static_cast<char>(
            bytes[kHeaderSize + begin + i] ^ 0x5A);
        const std::string bad =
            patchPayload(bytes, begin + i, &flipped, 1);
        try {
            const ServerCheckpoint got = decode(bad);
            ASSERT_EQ(encode(got), bad) << "byte " << i;
            for (std::size_t w = 0; w < got.server.pending.size(); ++w) {
                for (std::size_t u = 0; u < got.server.pending[w].size();
                     ++u) {
                    if (got.server.has_pending[w][u] != 0)
                        continue;
                    for (std::int64_t v : got.server.pending[w][u])
                        ASSERT_EQ(v, 0) << "byte " << i;
                }
            }
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    }
    // Every width, flag and clear-cell byte is load-bearing. In a
    // flagged cell only the low seven bytes of a value are free: the
    // sample values are small, so flipping the top byte lands at or
    // past the 2^62 pending limit.
    std::size_t free_bytes = 0;
    for (std::size_t w = 0; w < c.server.pending.size(); ++w)
        for (std::size_t u = 0; u < c.server.pending[w].size(); ++u)
            if (c.server.has_pending[w][u] != 0)
                free_bytes += c.server.pending[w][u].size() *
                              (sizeof(std::int64_t) - 1);
    EXPECT_EQ(rejected, len - free_bytes);
}

TEST(ServerCheckpoint, RejectsPendingValueAtTheLimit)
{
    // The server never lets a pending value reach 2^30 in real value
    // (2^62 in Q32.32); a file holding one is forged or torn.
    auto c = sampleCheckpoint();
    ASSERT_EQ(c.server.has_pending[0][0], 1);
    constexpr std::int64_t kLimit = std::int64_t{1} << 62;
    for (const std::int64_t bad :
         {kLimit, -kLimit, std::numeric_limits<std::int64_t>::min()}) {
        c.server.pending[0][0][2] = bad;
        EXPECT_THROW(decode(encode(c)), std::runtime_error) << bad;
    }
    for (const std::int64_t ok : {kLimit - 1, -kLimit + 1}) {
        c.server.pending[0][0][2] = ok;
        expectEqual(c, decode(encode(c)));
    }
}

/** Payload offset of the v4 pull-residual count: right after the
 *  pending section, the last-update row and the MTA tracker. */
std::size_t
residualCountOffset(const ServerCheckpoint &c)
{
    const auto [begin, len] = pendingSection(c);
    const std::size_t workers = c.versions.versions.size();
    const std::size_t units = c.versions.versions[0].size();
    return begin + len + units * 8 + workers * (8 + 1 + 8);
}

TEST(ServerCheckpoint, RoundTripsWithoutPullResidual)
{
    // Engines without pull codecs (the coroutine engine's own
    // checkpoints) write an empty section.
    auto c = sampleCheckpoint();
    c.pull_residual.clear();
    const ServerCheckpoint got = decode(encode(c));
    EXPECT_TRUE(got.pull_residual.empty());
    expectEqual(c, got);
}

TEST(ServerCheckpoint, RejectsNonFinitePullResidual)
{
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
        auto c = sampleCheckpoint();
        c.pull_residual[2][0].values[1] = bad;
        EXPECT_THROW(decode(encode(c)), std::runtime_error) << bad;
    }
}

TEST(ServerCheckpoint, RejectsUnorderedPullResidualBlocks)
{
    auto c = sampleCheckpoint();
    std::swap(c.pull_residual[0][0], c.pull_residual[0][1]);
    EXPECT_THROW(decode(encode(c)), std::runtime_error);
    c = sampleCheckpoint();
    c.pull_residual[0][1].block = c.pull_residual[0][0].block;
    EXPECT_THROW(decode(encode(c)), std::runtime_error);
}

TEST(ServerCheckpoint, RejectsPullResidualCountMismatch)
{
    const auto c = sampleCheckpoint();
    const std::string bytes = encode(c);
    const std::size_t off = residualCountOffset(c);
    std::uint32_t count = 0;
    std::memcpy(&count, bytes.data() + kHeaderSize + off, 4);
    ASSERT_EQ(count, 3u); // the offset arithmetic found the field.
    for (const std::uint32_t bad : {2u, 4u, 0xFFFFFFFFu})
        EXPECT_THROW(decode(patchPayload(bytes, off, &bad, 4)),
                     std::runtime_error)
            << bad;
    // A huge block count or width in a short payload must fail the
    // parse, not drive an allocation.
    const std::uint32_t huge = 0x7FFFFFFFu;
    EXPECT_THROW(decode(patchPayload(bytes, off + 4, &huge, 4)),
                 std::runtime_error);
    EXPECT_THROW(decode(patchPayload(bytes, off + 12, &huge, 4)),
                 std::runtime_error);
}

TEST(ServerCheckpoint, RejectsPreFixedPointVersion)
{
    // v2 stored float outboxes; v3 readers must not reinterpret them.
    std::string bytes = encode(sampleCheckpoint());
    const std::uint32_t v2 = 2;
    bytes.replace(4, sizeof(v2), reinterpret_cast<const char *>(&v2),
                  sizeof(v2));
    EXPECT_THROW(decode(bytes), std::runtime_error);
}

TEST(ServerCheckpoint, RejectsWrongMagicAndVersion)
{
    std::string bad_magic = encode(sampleCheckpoint());
    bad_magic[0] = 'X';
    EXPECT_THROW(decode(bad_magic), std::runtime_error);

    std::string bad_version = encode(sampleCheckpoint());
    bad_version[4] = 9; // version lives right after the magic.
    EXPECT_THROW(decode(bad_version), std::runtime_error);
}

} // namespace
} // namespace core
} // namespace rog
