#include "net/transport/reliable_link.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

constexpr double kEps = 1e-9;

/** Integer byte length of a (possibly fractional) simulated length. */
std::size_t
byteLen(double len)
{
    if (len <= 0.0)
        return 0; // a zero-length message frames a header-only chunk.
    return static_cast<std::size_t>(
        std::max(1.0, std::ceil(len - kEps)));
}

} // namespace

/** State of one in-flight message send. */
struct ReliableLink::SendOp
{
    std::uint64_t id = 0;     //!< protocol-core op id.
    std::uint64_t stream = 0; //!< backend send-stream handle.
    LinkId link = 0;
    MessageKey key;
    double payload_bytes = 0.0;
    double deadline = kNoDeadline;
    bool payload_mode = false; //!< carrying caller bytes (else synthesized).
    std::span<const std::uint8_t> payload; //!< views payload_copy.
    Callback done;
    std::function<void()> drop;
    Rng jitter;
    double start_time = 0.0;

    std::uint32_t chunk_count = 1;
    std::uint32_t seq = 0;        //!< chunk currently being sent.
    double chunk_len = 0.0;       //!< payload bytes of that chunk.
    std::uint32_t chunk_crc = 0;  //!< CRC of that chunk (cached).
    double resume_off = 0.0;      //!< intact delivered prefix.
    double high_water = 0.0;      //!< most ever delivered (retransmit acct).
    std::size_t chunk_attempts = 0;
    std::size_t backoff_exp = 0;

    // Pool-leased working memory: recycled when the op retires, so a
    // steady stream of sends allocates nothing after warm-up.
    BufferPool::Lease<std::uint8_t> payload_copy; //!< retransmit copy.
    BufferPool::Lease<std::uint8_t> chunk_scratch; //!< chunk regen.
#ifdef ROG_SANITIZE_BUILD
    std::uint32_t payload_guard_crc = 0; //!< lifetime canary.
#endif

    TimerId backoff_timer = 0;
    SendResult res;
};

ReliableLink::ReliableLink(Backend &backend, const TransportConfig &config,
                           TransportObserver *observer)
    : backend_(backend), config_(config), observer_(observer)
{
    ROG_ASSERT(config_.chunk_bytes > 0.0,
               "transport chunk size must be positive");
    ROG_ASSERT(config_.backoff_base_s > 0.0,
               "transport backoff base must be positive");
    ROG_ASSERT(config_.jitter_frac >= 0.0 && config_.jitter_frac < 1.0,
               "transport jitter fraction must be in [0, 1)");
    backend_.setReceiverEventSink(
        [this](const TransportEvent &ev) { log_.push_back(ev); });
}

ReliableLink::ReliableLink(sim::Simulation &sim, Channel &channel,
                           const TransportConfig &config,
                           TransportObserver *observer)
    : owned_backend_(
          std::make_unique<DesBackend>(sim, channel, config, observer)),
      backend_(*owned_backend_), config_(config), observer_(observer)
{
    ROG_ASSERT(config_.chunk_bytes > 0.0,
               "transport chunk size must be positive");
    ROG_ASSERT(config_.backoff_base_s > 0.0,
               "transport backoff base must be positive");
    ROG_ASSERT(config_.jitter_frac >= 0.0 && config_.jitter_frac < 1.0,
               "transport jitter fraction must be in [0, 1)");
    backend_.setReceiverEventSink(
        [this](const TransportEvent &ev) { log_.push_back(ev); });
}

ReliableLink::~ReliableLink()
{
    *alive_ = false;
    for (auto &[id, op] : ops_) {
        backend_.cancelTimer(op->backoff_timer);
        backend_.abortSend(op->stream);
        if (op->drop)
            op->drop();
    }
}

void
ReliableLink::reset()
{
    // Move the map out first: a done callback may start a new send
    // on this link, which must not land in the set being torn down.
    auto ops = std::move(ops_);
    ops_.clear();
    for (auto &[id, op] : ops) {
        backend_.cancelTimer(op->backoff_timer);
        backend_.abortSend(op->stream);
        op->res.delivered = false;
        op->res.elapsed_s = backend_.now() - op->start_time;
        Callback done = std::move(op->done);
        std::function<void()> drop = std::move(op->drop);
        if (done)
            done(op->res);
        else if (drop)
            drop();
    }
    delivered_payloads_.clear();
}

double
ReliableLink::chunkLen(const SendOp &op, std::uint32_t seq) const
{
    if (seq + 1 < op.chunk_count)
        return config_.chunk_bytes;
    return op.payload_bytes -
           config_.chunk_bytes * static_cast<double>(op.chunk_count - 1);
}

std::span<const std::uint8_t>
ReliableLink::chunkPayloadInto(SendOp &op, std::uint32_t seq) const
{
    if (op.payload_mode) {
        // Payload mode: a zero-copy view into the leased copy.
        const auto ci = byteLen(config_.chunk_bytes);
        const std::size_t off = static_cast<std::size_t>(seq) * ci;
        const std::size_t len = std::min(ci, op.payload.size() - off);
        return op.payload.subspan(off, len);
    }
    // Synthesized mode: regenerate into the op's pooled scratch.
    const std::size_t len = byteLen(chunkLen(op, seq));
    ROG_ASSERT(len <= op.chunk_scratch.size(),
               "chunk scratch undersized for synthesized chunk");
    std::uint8_t *out = op.chunk_scratch.data();
    synthesizeChunk(op.key, seq, {out, len});
    return {out, len};
}

void
ReliableLink::refreshChunkCrc(SendOp &op)
{
    op.chunk_crc = crc32c(chunkPayloadInto(op, op.seq));
}

void
ReliableLink::startSend(LinkId link, const MessageKey &key,
                        double payload_bytes, double deadline_s,
                        Callback done, std::function<void()> drop)
{
    ROG_ASSERT(payload_bytes >= 0.0,
               "send needs non-negative payload bytes");
    startSendImpl(link, key, payload_bytes, {}, false, deadline_s,
                  std::move(done), std::move(drop));
}

void
ReliableLink::startSendPayload(LinkId link, const MessageKey &key,
                               std::span<const std::uint8_t> payload,
                               double deadline_s, Callback done,
                               std::function<void()> drop)
{
    startSendImpl(link, key, static_cast<double>(payload.size()),
                  payload, true, deadline_s, std::move(done),
                  std::move(drop));
}

void
ReliableLink::startSendImpl(LinkId link, const MessageKey &key,
                            double payload_bytes,
                            std::span<const std::uint8_t> payload,
                            bool payload_mode, double deadline_s,
                            Callback done, std::function<void()> drop)
{
    auto op = std::make_unique<SendOp>();
    op->id = next_op_id_++;
    op->link = link;
    op->key = key;
    op->payload_bytes = payload_bytes;
    op->deadline = deadline_s;
    op->payload_mode = payload_mode;
    op->payload = payload;
    op->done = std::move(done);
    op->drop = std::move(drop);
    op->jitter = Rng(messageSeed(config_.jitter_seed, key, 0));
    op->start_time = backend_.now();
    op->chunk_count = static_cast<std::uint32_t>(std::max(
        1.0, std::ceil(payload_bytes / config_.chunk_bytes - kEps)));
    op->chunk_len = chunkLen(*op, 0);
    if (payload_mode && !payload.empty()) {
        // Lease the retransmission copy before returning: the caller's
        // span only has to survive this call (see startSendPayload).
        op->payload_copy = BufferPool::global().leaseBytes(payload.size());
        std::copy(payload.begin(), payload.end(),
                  op->payload_copy.data());
        op->payload = {op->payload_copy.data(), op->payload_copy.size()};
#ifdef ROG_SANITIZE_BUILD
        op->payload_guard_crc = crc32c(op->payload);
#endif
    }
    op->res.payload_bytes = payload_bytes;
    op->res.chunks = op->chunk_count;
    op->chunk_scratch = BufferPool::global().leaseBytes(
        std::max<std::size_t>(1, byteLen(op->chunk_count > 1
                                             ? config_.chunk_bytes
                                             : op->chunk_len)));
    refreshChunkCrc(*op);
    ++totals_.sends;
    op->stream = backend_.openSend(link, key, payload_mode);

    SendOp &ref = *op;
    ops_.emplace(ref.id, std::move(op));
    attempt(ref);
}

void
ReliableLink::attempt(SendOp &op)
{
    const double now = backend_.now();
    if (now >= op.deadline) {
        finish(op, false, true);
        return;
    }

    const double frag_len = op.chunk_len - op.resume_off;

#ifdef ROG_SANITIZE_BUILD
    // Payload-lifetime canary: the leased copy taken at
    // startSendPayload must still checksum to the value captured
    // there; a mismatch means someone clobbered the pooled buffer
    // mid-send (e.g. a premature release re-leased it elsewhere).
    if (op.payload_mode && !op.payload.empty())
        ROG_ASSERT(crc32c(op.payload) == op.payload_guard_crc,
                   "leased payload copy mutated mid-send");
#endif

    FrameHeader hdr;
    hdr.flags = op.key.pull ? kFlagPull : 0;
    hdr.worker = op.key.worker;
    hdr.version = op.key.version;
    hdr.row = op.key.row;
    hdr.chunk_seq = op.seq;
    hdr.chunk_count = op.chunk_count;
    hdr.payload_off =
        static_cast<std::uint64_t>(std::llround(op.resume_off));
    hdr.payload_len = static_cast<std::uint32_t>(byteLen(frag_len));
    // Per chunk, not per attempt: refreshChunkCrc cached this when the
    // chunk became current, so retries skip the checksum (and, in
    // synthesized mode, the payload regeneration) entirely.
    hdr.payload_crc = op.chunk_crc;

    const double timeout = std::isfinite(op.deadline)
                               ? std::max(kEps, op.deadline - now)
                               : kNoDeadline;

    ++op.res.attempts;
    ++op.chunk_attempts;
    logEvent(TransportEvent::Kind::Attempt, op, op.seq,
             FrameHeader::kWireSize + frag_len, op.resume_off);

    const auto chunk = chunkPayloadInto(op, op.seq);
    const auto frag = chunk.subspan(
        std::min<std::size_t>(chunk.size(),
                              static_cast<std::size_t>(hdr.payload_off)));
    const std::uint64_t id = op.id;
    backend_.sendFrame(
        op.stream, hdr, frag, chunk, frag_len, op.chunk_len, timeout,
        [this, alive = alive_, id](const FrameVerdict &v) {
            if (*alive)
                onFrameVerdict(id, v);
        },
        [this, alive = alive_, id] {
            if (*alive)
                dropOp(id);
        });
}

void
ReliableLink::dropOp(std::uint64_t op_id)
{
    auto it = ops_.find(op_id);
    if (it == ops_.end())
        return;
    backend_.cancelTimer(it->second->backoff_timer);
    backend_.abortSend(it->second->stream);
    std::function<void()> drop = std::move(it->second->drop);
    ops_.erase(it);
    if (drop)
        drop();
}

void
ReliableLink::onFrameVerdict(std::uint64_t op_id, const FrameVerdict &v)
{
    auto it = ops_.find(op_id);
    if (it == ops_.end())
        return;
    SendOp &op = *it->second;

    const double delivered = v.bytes_sent;
    const double hdr_delivered =
        std::min(delivered, double(FrameHeader::kWireSize));
    const double payload_delivered =
        std::max(0.0, delivered - FrameHeader::kWireSize);
    op.res.bytes_sent += delivered;

    // Anything delivered on a retry that had already been delivered
    // before is retransmission: the header every time, plus the
    // overlap of this fragment with the chunk's high-water mark.
    if (op.chunk_attempts > 1) {
        const double overlap =
            std::max(0.0, std::min(op.resume_off + payload_delivered,
                                   op.high_water) -
                              op.resume_off);
        op.res.retransmitted_bytes += hdr_delivered + overlap;
    }
    op.high_water =
        std::max(op.high_water, op.resume_off + payload_delivered);

    if (v.completed) {
        resolveChunk(op, v);
        return;
    }

    // Cut mid-flow (truncation, forced timeout, or deadline): keep the
    // intact prefix and resume, or restart from scratch in baseline
    // mode. New bytes arriving counts as progress and resets the
    // backoff exponent.
    const bool progress = payload_delivered > kEps;
    if (config_.resume_from_offset) {
        op.resume_off =
            std::min(op.chunk_len, op.resume_off + payload_delivered);
        if (observer_)
            observer_->onTransportResume(op.key.worker, op.key.version,
                                         op.key.row, op.resume_off,
                                         op.chunk_len, op.key.pull);
        logEvent(TransportEvent::Kind::Resume, op, op.seq,
                 op.resume_off, op.chunk_len);
    } else {
        op.resume_off = 0.0;
    }
    if (progress)
        op.backoff_exp = 0;

    if (config_.max_attempts_per_chunk > 0 &&
        op.chunk_attempts >= config_.max_attempts_per_chunk) {
        finish(op, false, false);
        return;
    }
    scheduleRetry(op);
}

void
ReliableLink::resolveChunk(SendOp &op, const FrameVerdict &v)
{
    // Receiver-side events (Accept / Duplicate / CorruptDrop /
    // ReorderHold / Deliver) are emitted by the ChunkReceiver through
    // the backend's event sink when the receiver runs in-process; the
    // sender only accounts and advances here.
    if (!v.crc_ok) {
        ++op.res.corrupt_chunks;
        // Discard: the prefix is untrustworthy, restart the chunk.
        op.resume_off = 0.0;
        if (config_.max_attempts_per_chunk > 0 &&
            op.chunk_attempts >= config_.max_attempts_per_chunk) {
            finish(op, false, false);
            return;
        }
        scheduleRetry(op);
        return;
    }

    if (v.held)
        ++op.res.reordered_chunks;
    op.res.duplicate_chunks += v.duplicates;

    // Chunk resolved (accepted, dedup'd, or held for its successor):
    // advance to the next chunk with fresh retry state.
    ++op.seq;
    op.resume_off = 0.0;
    op.high_water = 0.0;
    op.chunk_attempts = 0;
    op.backoff_exp = 0;
    if (op.seq < op.chunk_count) {
        op.chunk_len = chunkLen(op, op.seq);
        refreshChunkCrc(op);
        attempt(op);
        return;
    }
    ROG_ASSERT(v.message_complete,
               "message finished sending with chunks unaccepted");
    if (op.payload_mode && v.assembled)
        delivered_payloads_[op.key] = *v.assembled;
    finish(op, true, false);
}

void
ReliableLink::scheduleRetry(SendOp &op)
{
    double delay = std::min(
        config_.backoff_max_s,
        config_.backoff_base_s *
            std::pow(2.0, static_cast<double>(op.backoff_exp)));
    // Seeded deterministic jitter in [1 - f, 1 + f).
    const double u = op.jitter.uniform();
    delay *= 1.0 - config_.jitter_frac +
             2.0 * config_.jitter_frac * u;
    const double now = backend_.now();
    if (std::isfinite(op.deadline) && now + delay >= op.deadline) {
        // Deadline-aware: backing off past the deadline is pointless.
        finish(op, false, true);
        return;
    }
    ++op.res.retries;
    logEvent(TransportEvent::Kind::Backoff, op, op.seq, delay,
             static_cast<double>(op.backoff_exp));
    // Saturate rather than double forever: a partition that outlives
    // ~32 retries keeps the delay pinned at the cap instead of pushing
    // the exponent into meaningless territory.
    if (op.backoff_exp < kMaxBackoffExponent)
        ++op.backoff_exp;
    op.res.backoff_s += delay;
    const std::uint64_t id = op.id;
    op.backoff_timer =
        backend_.after(delay, [this, alive = alive_, id] {
            if (!*alive)
                return;
            auto it = ops_.find(id);
            if (it == ops_.end())
                return;
            it->second->backoff_timer = 0;
            attempt(*it->second);
        });
}

void
ReliableLink::finish(SendOp &op, bool delivered, bool expired)
{
    backend_.cancelTimer(op.backoff_timer);
    op.backoff_timer = 0;
    // Closing an undelivered stream flushes a reorder-held chunk
    // receiver-side (whatever arrived, arrived) — its Accept events
    // land in the log ahead of the Fail below, as they always did.
    backend_.finishSend(op.stream, delivered);
    op.res.delivered = delivered;
    op.res.deadline_expired = expired;
    op.res.elapsed_s = backend_.now() - op.start_time;
    if (!delivered)
        logEvent(TransportEvent::Kind::Fail, op, op.seq,
                 expired ? 1.0 : 0.0);

    totals_.delivered += delivered ? 1 : 0;
    totals_.failed += delivered ? 0 : 1;
    totals_.attempts += op.res.attempts;
    totals_.retries += op.res.retries;
    totals_.backoff_s += op.res.backoff_s;
    totals_.bytes_sent += op.res.bytes_sent;
    totals_.retransmitted_bytes += op.res.retransmitted_bytes;
    totals_.corrupt_chunks += op.res.corrupt_chunks;
    totals_.duplicate_chunks += op.res.duplicate_chunks;
    totals_.reordered_chunks += op.res.reordered_chunks;

    const SendResult res = op.res;
    Callback done = std::move(op.done);
    ops_.erase(op.id);
    if (done)
        done(res);
}

void
ReliableLink::logEvent(TransportEvent::Kind kind, const SendOp &op,
                       std::uint32_t seq, double a, double b)
{
    TransportEvent ev;
    ev.t = backend_.now();
    ev.kind = kind;
    ev.link = op.link;
    ev.key = op.key;
    ev.chunk_seq = seq;
    ev.a = a;
    ev.b = b;
    log_.push_back(ev);
}

const std::vector<std::uint8_t> &
ReliableLink::deliveredPayload(const MessageKey &key) const
{
    static const std::vector<std::uint8_t> kEmpty;
    auto it = delivered_payloads_.find(key);
    return it == delivered_payloads_.end() ? kEmpty : it->second;
}

std::string
ReliableLink::logDump() const
{
    std::ostringstream os;
    for (const auto &ev : log_)
        os << toString(ev) << '\n';
    return os.str();
}

} // namespace transport
} // namespace net
} // namespace rog
