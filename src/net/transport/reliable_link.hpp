/**
 * @file
 * Reliable, resumable message transport — the protocol core.
 *
 * ReliableLink frames each message (FrameHeader with worker, version,
 * row, chunk bookkeeping, and a CRC32C over the chunk payload), sends
 * it as a sequence of chunked stop-and-wait frames, and retries cut or
 * corrupted chunks with deadline-aware exponential backoff and seeded
 * deterministic jitter — resuming from the delivered byte offset
 * rather than from scratch, so a 90%-delivered chunk only resends its
 * tail. The receiver side (ChunkReceiver) dedups chunks on (worker,
 * version, row, chunk_seq), so a duplicated delivery is applied
 * exactly once, and a chunk flagged reordered is held and applied
 * after its successor.
 *
 * The protocol core is backend-agnostic: every I/O and clocking
 * decision goes through the transport::Backend seam (backend.hpp).
 * Over the DES twin everything is deterministic — backoff jitter comes
 * from an Rng seeded by (config seed, message key), and every decision
 * is a pure function of the channel's behaviour, so the same seed and
 * fault plan replay the same timeline byte for byte. Over real sockets
 * the identical state machine runs in wall-clock time, and the
 * recorded event log cross-validates against a DES replay of the same
 * wire trace (see des_backend.hpp / crossval.hpp).
 */
#ifndef ROG_NET_TRANSPORT_RELIABLE_LINK_HPP
#define ROG_NET_TRANSPORT_RELIABLE_LINK_HPP

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer_pool.hpp"
#include "net/channel.hpp"
#include "net/transport/backend.hpp"
#include "net/transport/event_log.hpp"
#include "net/transport/frame.hpp"
#include "net/transport/observer.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {

/** Outcome of one message send. */
struct SendResult
{
    bool delivered = false;        //!< all chunks accepted intact.
    bool deadline_expired = false; //!< gave up at the deadline.
    std::size_t chunks = 0;        //!< chunk count of the message.
    std::size_t attempts = 0;      //!< channel transfers started.
    std::size_t retries = 0;       //!< attempts beyond the first per chunk.
    double backoff_s = 0.0;        //!< total time spent backing off.
    double payload_bytes = 0.0;    //!< application bytes requested.
    double bytes_sent = 0.0;       //!< payload + header bytes delivered.
    double retransmitted_bytes = 0.0; //!< delivered more than once.
    std::size_t corrupt_chunks = 0;   //!< CRC rejections at the receiver.
    std::size_t duplicate_chunks = 0; //!< dedup'd duplicate deliveries.
    std::size_t reordered_chunks = 0; //!< held-and-flushed chunks.
    double elapsed_s = 0.0;
};

/** Aggregate counters across every send on a ReliableLink. */
struct TransportTotals
{
    std::size_t sends = 0;
    std::size_t delivered = 0;
    std::size_t failed = 0;
    std::size_t attempts = 0;
    std::size_t retries = 0;
    double backoff_s = 0.0;
    double bytes_sent = 0.0;
    double retransmitted_bytes = 0.0;
    std::size_t corrupt_chunks = 0;
    std::size_t duplicate_chunks = 0;
    std::size_t reordered_chunks = 0;
};

/** The reliability sublayer: one sender endpoint over one backend. */
class ReliableLink
{
  public:
    using Callback = std::function<void(SendResult)>;

    /**
     * Run the protocol core over @p backend (which must outlive the
     * link). The link binds the backend's receiver event sink to its
     * own log, so exactly one ReliableLink may drive a backend.
     */
    ReliableLink(Backend &backend, const TransportConfig &config,
                 TransportObserver *observer = nullptr);

    /**
     * Convenience (and the historical signature): run over the
     * simulated channel via an owned DesBackend. @p sim and
     * @p channel must outlive the link. The optional @p observer
     * (e.g. a fault::InvariantChecker) receives an onTransport*()
     * hook for every receiver decision.
     */
    ReliableLink(sim::Simulation &sim, Channel &channel,
                 const TransportConfig &config,
                 TransportObserver *observer = nullptr);
    ~ReliableLink();

    ReliableLink(const ReliableLink &) = delete;
    ReliableLink &operator=(const ReliableLink &) = delete;

    /**
     * Start sending a message of @p payload_bytes simulated bytes
     * (callback form). The payload content is synthesized
     * deterministically from @p key so checksums are real. A
     * zero-byte payload is valid and travels as one header-only
     * chunk (delivery still means the frame round-tripped intact).
     *
     * @param deadline_s absolute deadline on the backend's clock
     *        (kNoDeadline for none); the send gives up,
     *        deadline-aware, instead of backing off past it.
     * @param done invoked exactly once with the result (unless the
     *        link or channel is destroyed first).
     * @param drop invoked instead of @p done on destruction mid-send.
     */
    void startSend(LinkId link, const MessageKey &key,
                   double payload_bytes, double deadline_s,
                   Callback done, std::function<void()> drop = {});

    /**
     * As startSend, but carrying @p payload real bytes; the receiver
     * reassembles them (see deliveredPayload) and every checksum is
     * computed over the actual data. An empty span is a valid
     * zero-length message.
     *
     * Lifetime: the link leases a retransmission copy from the
     * BufferPool before returning, so @p payload only has to stay
     * alive *for the duration of this call* — retries and resumed
     * fragments read the leased copy, never the caller's memory.
     * (Historically the span had to outlive the whole send; that
     * contract is gone.) Under ROG_SANITIZE builds every attempt
     * re-checksums the leased copy against the CRC taken here and
     * panics on a mismatch, so a clobbered pool buffer is caught at
     * the attempt that would have shipped it.
     */
    void startSendPayload(LinkId link, const MessageKey &key,
                          std::span<const std::uint8_t> payload,
                          double deadline_s, Callback done,
                          std::function<void()> drop = {});

    /** Awaitable send for simulation processes. */
    class SendAwaiter
    {
      public:
        SendAwaiter(ReliableLink &rl, LinkId link, const MessageKey &key,
                    double bytes, double deadline)
            : rl_(rl), link_(link), key_(key), bytes_(bytes),
              deadline_(deadline)
        {
        }

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            rl_.startSend(
                link_, key_, bytes_, deadline_,
                [this, h](SendResult r) {
                    result_ = r;
                    h.resume();
                },
                [h] { h.destroy(); });
        }

        SendResult await_resume() const noexcept { return result_; }

      private:
        ReliableLink &rl_;
        LinkId link_;
        MessageKey key_;
        double bytes_;
        double deadline_;
        SendResult result_;
    };

    /** co_await a reliable send; resumes with the SendResult. */
    SendAwaiter
    send(LinkId link, const MessageKey &key, double payload_bytes,
         double deadline_s = kNoDeadline)
    {
        return SendAwaiter(*this, link, key, payload_bytes, deadline_s);
    }

    /** Reassembled bytes of a delivered payload send (empty if none). */
    const std::vector<std::uint8_t> &
    deliveredPayload(const MessageKey &key) const;

    /**
     * Abandon every in-flight send (each fires its @p done with
     * delivered=false, or its @p drop when no done was given) and
     * forget all per-key delivery bookkeeping. For peer restarts:
     * the remote came back with fresh receiver state, so this
     * sender's memory of delivered keys is stale — keeping it would
     * suppress re-sends the new remote has never seen.
     */
    void reset();

    const TransportTotals &totals() const { return totals_; }

    /**
     * Structured event log since construction: every sender decision,
     * plus every receiver decision when the backend's receiver lives
     * in-process (DES / loopback). See event_log.hpp.
     */
    const std::vector<TransportEvent> &log() const { return log_; }

    /** The whole log as text, one event per line. */
    std::string logDump() const;

    const TransportConfig &config() const { return config_; }

    /** The backend this link drives. */
    Backend &backend() { return backend_; }

  private:
    struct SendOp;

    void startSendImpl(LinkId link, const MessageKey &key,
                       double payload_bytes,
                       std::span<const std::uint8_t> payload,
                       bool payload_mode, double deadline_s,
                       Callback done, std::function<void()> drop);
    void attempt(SendOp &op);
    void onFrameVerdict(std::uint64_t op_id, const FrameVerdict &v);
    void dropOp(std::uint64_t op_id);
    void resolveChunk(SendOp &op, const FrameVerdict &v);
    void scheduleRetry(SendOp &op);
    void finish(SendOp &op, bool delivered, bool expired);
    void logEvent(TransportEvent::Kind kind, const SendOp &op,
                  std::uint32_t seq, double a = 0.0, double b = 0.0);

    /**
     * Payload bytes of chunk @p seq for @p op: a view into the leased
     * payload copy, or the synthesized bytes regenerated into the
     * op's pooled chunk scratch. Valid until the next call for the
     * same op; no allocation either way.
     */
    std::span<const std::uint8_t> chunkPayloadInto(SendOp &op,
                                                   std::uint32_t seq) const;
    /** Cache the current chunk's payload CRC (per chunk, not per
     *  attempt: retries reuse it). */
    void refreshChunkCrc(SendOp &op);
    double chunkLen(const SendOp &op, std::uint32_t seq) const;

    std::unique_ptr<Backend> owned_backend_; //!< legacy-ctor DES twin.
    Backend &backend_;
    TransportConfig config_;
    TransportObserver *observer_ = nullptr;

    std::map<std::uint64_t, std::unique_ptr<SendOp>> ops_;
    std::uint64_t next_op_id_ = 1;

    std::map<MessageKey, std::vector<std::uint8_t>> delivered_payloads_;
    TransportTotals totals_;
    std::vector<TransportEvent> log_;

    /** Cleared by the destructor so stale backend callbacks no-op. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_RELIABLE_LINK_HPP
