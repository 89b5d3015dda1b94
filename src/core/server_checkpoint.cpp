#include "core/server_checkpoint.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "core/fixed_point.hpp"

namespace rog {
namespace core {

namespace {

constexpr char kMagic[4] = {'R', 'O', 'G', 'S'};
// v2 appended server-recovery state: run epoch, the session table
// (resume tokens + watermarks), and the model blob. v3 stores each
// pending gradient as its exact Q32.32 int64 sum instead of a float,
// so a restore reproduces the fixed-point server bit for bit; a value
// at or past the server's pending limit (2^30 in real value) is
// rejected. v4 adds each worker's pull-codec residual after the MTA
// estimates, so a Resume admission after a restart keeps the
// error-feedback mass. Older files are rejected rather than guessed
// at.
constexpr std::uint32_t kVersion = 4;

// Residual blocks are parameter-matrix rows: a width past this is a
// corrupted field (checked before the width drives an allocation).
constexpr std::uint32_t kMaxResidualWidth = 1u << 24;

// A server checkpoint holds one int64 per (worker, unit, element):
// anything past this is a corrupted size field, not a real file.
constexpr std::uint64_t kMaxPayload = 1ull << 30;

void
putU32(std::string &out, std::uint32_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putU64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putI64(std::string &out, std::int64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putF64(std::string &out, double v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putF32(std::string &out, float v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/** Bounds-checked cursor over the verified payload. */
class Cursor
{
  public:
    Cursor(const char *data, std::size_t size)
        : data_(data), size_(size)
    {}

    template <typename T>
    T
    take()
    {
        if (size_ - pos_ < sizeof(T))
            ROG_FATAL("server checkpoint: truncated payload");
        T v;
        std::memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    void
    takeI64s(std::vector<std::int64_t> &dst, std::size_t n)
    {
        if ((size_ - pos_) / sizeof(std::int64_t) < n)
            ROG_FATAL("server checkpoint: truncated payload");
        dst.resize(n);
        if (n > 0) // empty vector data() may be null.
            std::memcpy(dst.data(), data_ + pos_,
                        n * sizeof(std::int64_t));
        pos_ += n * sizeof(std::int64_t);
    }

    void
    takeF32s(std::vector<float> &dst, std::size_t n)
    {
        if ((size_ - pos_) / sizeof(float) < n)
            ROG_FATAL("server checkpoint: truncated payload");
        dst.resize(n);
        if (n > 0)
            std::memcpy(dst.data(), data_ + pos_, n * sizeof(float));
        pos_ += n * sizeof(float);
    }

    void
    takeBytes(std::vector<std::uint8_t> &dst, std::size_t n)
    {
        if (size_ - pos_ < n)
            ROG_FATAL("server checkpoint: truncated payload");
        dst.resize(n);
        if (n > 0)
            std::memcpy(dst.data(), data_ + pos_, n);
        pos_ += n;
    }

    bool exhausted() const { return pos_ == size_; }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

std::string
encodePayload(const ServerCheckpoint &c)
{
    const std::size_t workers = c.versions.versions.size();
    const std::size_t units =
        workers > 0 ? c.versions.versions[0].size() : 0;
    ROG_ASSERT(workers > 0 && units > 0, "empty checkpoint");
    ROG_ASSERT(c.versions.retired.size() == workers &&
                   c.server.pending.size() == workers &&
                   c.server.has_pending.size() == workers &&
                   c.server.last_update.size() == units &&
                   c.tracker.rate.size() == workers &&
                   c.tracker.seeded.size() == workers &&
                   c.tracker.mta_bytes.size() == workers,
               "inconsistent checkpoint shape");

    std::string out;
    putI64(out, c.iteration);
    putU64(out, c.msg_seq);
    putU32(out, static_cast<std::uint32_t>(workers));
    putU32(out, static_cast<std::uint32_t>(units));
    for (const auto &row : c.versions.versions) {
        ROG_ASSERT(row.size() == units, "ragged version matrix");
        for (std::int64_t v : row)
            putI64(out, v);
    }
    out.append(reinterpret_cast<const char *>(c.versions.retired.data()),
               workers);
    for (std::size_t w = 0; w < workers; ++w) {
        ROG_ASSERT(c.server.pending[w].size() == units &&
                       c.server.has_pending[w].size() == units,
                   "ragged pending table");
        for (std::size_t u = 0; u < units; ++u) {
            const auto &buf = c.server.pending[w][u];
            putU32(out, static_cast<std::uint32_t>(buf.size()));
            out.append(reinterpret_cast<const char *>(buf.data()),
                       buf.size() * sizeof(std::int64_t));
        }
        out.append(reinterpret_cast<const char *>(
                       c.server.has_pending[w].data()),
                   units);
    }
    for (std::int64_t v : c.server.last_update)
        putI64(out, v);
    for (std::size_t w = 0; w < workers; ++w) {
        putF64(out, c.tracker.rate[w]);
        out.push_back(static_cast<char>(c.tracker.seeded[w]));
        putF64(out, c.tracker.mta_bytes[w]);
    }
    ROG_ASSERT(c.pull_residual.empty() ||
                   c.pull_residual.size() == workers,
               "pull residual fleet-size mismatch");
    putU32(out, static_cast<std::uint32_t>(c.pull_residual.size()));
    for (const auto &blocks : c.pull_residual) {
        putU32(out, static_cast<std::uint32_t>(blocks.size()));
        for (const compress::BlockResidual &b : blocks) {
            putU32(out, static_cast<std::uint32_t>(b.block));
            putU32(out, static_cast<std::uint32_t>(b.values.size()));
            for (float v : b.values)
                putF32(out, v);
        }
    }
    putU64(out, c.epoch);
    ROG_ASSERT(c.sessions.entries.empty() ||
                   c.sessions.entries.size() == workers,
               "session snapshot fleet-size mismatch");
    putU32(out, static_cast<std::uint32_t>(c.sessions.entries.size()));
    for (const auto &e : c.sessions.entries) {
        putU64(out, e.token);
        putU32(out, e.incarnation);
        putI64(out, e.last_done_iter);
        putI64(out, e.last_response_iter);
        out.push_back(static_cast<char>(e.admitted_once ? 1 : 0));
    }
    putU32(out, c.sessions.next_session);
    putU64(out, c.sessions.admissions);
    ROG_ASSERT(c.worker_done.empty() || c.worker_done.size() == workers,
               "worker_done fleet-size mismatch");
    putU32(out, static_cast<std::uint32_t>(c.worker_done.size()));
    for (std::uint8_t d : c.worker_done)
        out.push_back(static_cast<char>(d ? 1 : 0));
    putU64(out, static_cast<std::uint64_t>(c.model.size()));
    if (!c.model.empty())
        out.append(reinterpret_cast<const char *>(c.model.data()),
                   c.model.size());
    return out;
}

ServerCheckpoint
decodePayload(const std::string &payload)
{
    Cursor cur(payload.data(), payload.size());
    ServerCheckpoint c;
    c.iteration = cur.take<std::int64_t>();
    c.msg_seq = cur.take<std::uint64_t>();
    const auto workers = cur.take<std::uint32_t>();
    const auto units = cur.take<std::uint32_t>();
    if (workers == 0 || units == 0 || workers > 4096 || units > 1u << 20)
        ROG_FATAL("server checkpoint: implausible shape ", workers, "x",
                  units);
    c.versions.versions.resize(workers);
    for (auto &row : c.versions.versions) {
        row.resize(units);
        for (auto &v : row)
            v = cur.take<std::int64_t>();
    }
    c.versions.retired.resize(workers);
    for (auto &r : c.versions.retired)
        r = cur.take<std::uint8_t>();
    c.server.pending.resize(workers);
    c.server.has_pending.resize(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
        c.server.pending[w].resize(units);
        for (std::uint32_t u = 0; u < units; ++u) {
            const auto width = cur.take<std::uint32_t>();
            cur.takeI64s(c.server.pending[w][u], width);
            if (!(fixed::widestPending(c.server.pending[w][u]) <
                  fixed::kPendingLimit))
                ROG_FATAL("server checkpoint: worker ", w, " unit ", u,
                          " pending value out of range");
        }
        c.server.has_pending[w].resize(units);
        for (std::uint32_t u = 0; u < units; ++u) {
            const auto p = cur.take<std::uint8_t>();
            if (p > 1)
                ROG_FATAL("server checkpoint: bad pending flag ",
                          static_cast<unsigned>(p));
            // A cell with nothing pending holds exact zeros: anything
            // else is a torn or forged fixed-point section.
            if (p == 0)
                for (std::int64_t v : c.server.pending[w][u])
                    if (v != 0)
                        ROG_FATAL("server checkpoint: worker ", w,
                                  " unit ", u,
                                  " has pending values but no flag");
            c.server.has_pending[w][u] = p;
        }
    }
    c.server.last_update.resize(units);
    for (auto &v : c.server.last_update)
        v = cur.take<std::int64_t>();
    c.tracker.rate.resize(workers);
    c.tracker.seeded.resize(workers);
    c.tracker.mta_bytes.resize(workers);
    for (std::uint32_t w = 0; w < workers; ++w) {
        c.tracker.rate[w] = cur.take<double>();
        c.tracker.seeded[w] = cur.take<std::uint8_t>();
        c.tracker.mta_bytes[w] = cur.take<double>();
    }
    const auto residual_count = cur.take<std::uint32_t>();
    if (residual_count != 0 && residual_count != workers)
        ROG_FATAL("server checkpoint: pull residual count ",
                  residual_count, " != fleet size ", workers);
    c.pull_residual.resize(residual_count);
    for (std::uint32_t w = 0; w < residual_count; ++w) {
        // Each block costs at least its 8 header bytes: a count past
        // that is a corrupted field, not a reason to allocate.
        const auto blocks = cur.take<std::uint32_t>();
        if (blocks > payload.size() / 8)
            ROG_FATAL("server checkpoint: implausible residual block "
                      "count ", blocks);
        c.pull_residual[w].resize(blocks);
        for (std::uint32_t k = 0; k < blocks; ++k) {
            compress::BlockResidual &b = c.pull_residual[w][k];
            b.block = cur.take<std::uint32_t>();
            if (k > 0 && b.block <= c.pull_residual[w][k - 1].block)
                ROG_FATAL("server checkpoint: worker ", w,
                          " pull residual blocks out of order");
            const auto width = cur.take<std::uint32_t>();
            if (width > kMaxResidualWidth)
                ROG_FATAL("server checkpoint: implausible residual "
                          "width ", width);
            cur.takeF32s(b.values, width);
            for (float v : b.values)
                if (!std::isfinite(v))
                    ROG_FATAL("server checkpoint: worker ", w,
                              " block ", b.block,
                              " pull residual is non-finite");
        }
    }
    c.epoch = cur.take<std::uint64_t>();
    const auto session_count = cur.take<std::uint32_t>();
    if (session_count != 0 && session_count != workers)
        ROG_FATAL("server checkpoint: session table size ",
                  session_count, " != fleet size ", workers);
    c.sessions.entries.resize(session_count);
    for (auto &e : c.sessions.entries) {
        e.token = cur.take<std::uint64_t>();
        e.incarnation = cur.take<std::uint32_t>();
        e.last_done_iter = cur.take<std::int64_t>();
        e.last_response_iter = cur.take<std::int64_t>();
        const auto admitted = cur.take<std::uint8_t>();
        if (admitted > 1)
            ROG_FATAL("server checkpoint: bad admitted flag ",
                      admitted);
        e.admitted_once = admitted != 0;
    }
    c.sessions.next_session = cur.take<std::uint32_t>();
    c.sessions.admissions = cur.take<std::uint64_t>();
    const auto done_count = cur.take<std::uint32_t>();
    if (done_count != 0 && done_count != workers)
        ROG_FATAL("server checkpoint: worker_done size ", done_count,
                  " != fleet size ", workers);
    c.worker_done.resize(done_count);
    for (auto &d : c.worker_done) {
        d = cur.take<std::uint8_t>();
        if (d > 1)
            ROG_FATAL("server checkpoint: bad worker_done flag ",
                      static_cast<unsigned>(d));
    }
    const auto model_len = cur.take<std::uint64_t>();
    if (model_len > kMaxPayload)
        ROG_FATAL("server checkpoint: implausible model size ",
                  model_len);
    cur.takeBytes(c.model, static_cast<std::size_t>(model_len));
    if (!cur.exhausted())
        ROG_FATAL("server checkpoint: trailing garbage in payload");
    return c;
}

} // namespace

void
writeServerCheckpoint(std::ostream &os, const ServerCheckpoint &ckpt)
{
    const std::string payload = encodePayload(ckpt);
    const std::uint32_t crc = crc32c(
        {reinterpret_cast<const std::uint8_t *>(payload.data()),
         payload.size()});
    os.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char *>(&version), sizeof(version));
    const std::uint64_t size = payload.size();
    os.write(reinterpret_cast<const char *>(&size), sizeof(size));
    os.write(reinterpret_cast<const char *>(&crc), sizeof(crc));
    os.write(payload.data(),
             static_cast<std::streamsize>(payload.size()));
    if (!os)
        ROG_FATAL("server checkpoint: write failed");
}

ServerCheckpoint
readServerCheckpoint(std::istream &is)
{
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    if (!is || std::string(magic, 4) != std::string(kMagic, 4))
        ROG_FATAL("server checkpoint: bad magic");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is)
        ROG_FATAL("server checkpoint: truncated header");
    if (version != kVersion)
        ROG_FATAL("server checkpoint: unsupported version ", version);
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    is.read(reinterpret_cast<char *>(&size), sizeof(size));
    is.read(reinterpret_cast<char *>(&crc), sizeof(crc));
    if (!is)
        ROG_FATAL("server checkpoint: truncated header");
    if (size > kMaxPayload)
        ROG_FATAL("server checkpoint: implausible payload size ", size);
    std::string payload(size, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(size));
    if (!is || static_cast<std::uint64_t>(is.gcount()) != size)
        ROG_FATAL("server checkpoint: truncated payload");
    const std::uint32_t actual = crc32c(
        {reinterpret_cast<const std::uint8_t *>(payload.data()),
         payload.size()});
    if (actual != crc)
        ROG_FATAL("server checkpoint: CRC mismatch (stored ", crc,
                  ", computed ", actual, ")");
    return decodePayload(payload);
}

void
writeServerCheckpointFile(const std::string &path,
                          const ServerCheckpoint &ckpt)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            ROG_FATAL("cannot open '", tmp, "' for writing");
        writeServerCheckpoint(os, ckpt);
        os.flush();
        if (!os)
            ROG_FATAL("server checkpoint: flush of '", tmp, "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        ROG_FATAL("server checkpoint: rename '", tmp, "' -> '", path,
                  "' failed");
}

ServerCheckpoint
readServerCheckpointFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        ROG_FATAL("cannot open '", path, "' for reading");
    return readServerCheckpoint(is);
}

} // namespace core
} // namespace rog
