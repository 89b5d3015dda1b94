/**
 * @file
 * Simulator-side transport backends.
 *
 * DesBackend is the deterministic twin: frames travel the
 * fluid-simulated Channel under virtual time, and receiver decisions
 * come from a local ChunkReceiver fed exactly what the channel (and
 * its fault layer) says arrived — corrupted deliveries garble a real
 * byte so the CRC verdict is computed, never assumed. Byte-for-byte,
 * this reproduces the pre-split ReliableLink timeline.
 *
 * ReplayBackend is the cross-validation twin: each attempt resolves
 * from the next record of a wire trace captured on a real-socket run,
 * so the protocol core re-makes every decision the deployment made —
 * under virtual time, in-process, with no sockets. A divergence
 * (the core attempting something the trace never saw) is recorded,
 * not fatal, so the harness can print both logs.
 */
#ifndef ROG_NET_TRANSPORT_DES_BACKEND_HPP
#define ROG_NET_TRANSPORT_DES_BACKEND_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/buffer_pool.hpp"
#include "net/channel.hpp"
#include "net/transport/backend.hpp"
#include "net/transport/receiver.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {

/** One-shot TimerId facade over the simulator's event queue. */
class SimTimers
{
  public:
    explicit SimTimers(sim::Simulation &sim) : sim_(sim) {}
    ~SimTimers();

    TimerId after(double delay_s, std::function<void()> fire);
    void cancel(TimerId id);

  private:
    sim::Simulation &sim_;
    std::map<TimerId, sim::EventId> pending_;
    TimerId next_ = 1;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/** The deterministic twin: frames over the simulated Channel. */
class DesBackend : public Backend
{
  public:
    /** @p sim and @p channel must outlive the backend. */
    DesBackend(sim::Simulation &sim, Channel &channel,
               const TransportConfig &config,
               TransportObserver *observer = nullptr);
    ~DesBackend() override;

    double now() const override;
    TimerId after(double delay_s, std::function<void()> fire) override;
    void cancelTimer(TimerId id) override;
    std::uint64_t openSend(LinkId link, const MessageKey &key,
                           bool payload_mode) override;
    void sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                   std::span<const std::uint8_t> frag,
                   std::span<const std::uint8_t> chunk, double frag_len,
                   double chunk_len, double timeout_s,
                   VerdictCallback done,
                   std::function<void()> drop) override;
    void finishSend(std::uint64_t send_id, bool delivered) override;
    void abortSend(std::uint64_t send_id) override;
    void setReceiverEventSink(EventSink sink) override;

    /** The local receiver half (e.g. for delivered-message counts). */
    ChunkReceiver &receiver() { return receiver_; }

  private:
    /** Per-send wire state; receiver state is scoped to the same id. */
    struct Stream
    {
        LinkId link = 0;
        MessageKey key;
        bool payload_mode = false;

        /** A corrupted fragment contributed to the current chunk. */
        bool garbled = false;

        bool pending = false; //!< a frame is in flight.
        std::span<const std::uint8_t> chunk;
        double chunk_len = 0.0;
        VerdictCallback done;
        std::function<void()> drop;

        BufferPool::Lease<std::uint8_t> wire; //!< serialized header.
        BufferPool::Lease<std::uint8_t> garble_scratch;
    };

    void onTransferDone(std::uint64_t send_id, const TransferResult &r);
    void onTransferDrop(std::uint64_t send_id);

    sim::Simulation &sim_;
    Channel &channel_;
    TransportConfig config_;
    SimTimers timers_;
    ChunkReceiver receiver_;
    std::map<std::uint64_t, Stream> streams_;
    std::uint64_t next_send_ = 1;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/** Resolves each attempt from a recorded wire trace, in virtual time. */
class ReplayBackend : public Backend
{
  public:
    /** @p trace must outlive the backend. */
    ReplayBackend(sim::Simulation &sim, const TransportTrace &trace);

    double now() const override;
    TimerId after(double delay_s, std::function<void()> fire) override;
    void cancelTimer(TimerId id) override;
    std::uint64_t openSend(LinkId link, const MessageKey &key,
                           bool payload_mode) override;
    void sendFrame(std::uint64_t send_id, const FrameHeader &hdr,
                   std::span<const std::uint8_t> frag,
                   std::span<const std::uint8_t> chunk, double frag_len,
                   double chunk_len, double timeout_s,
                   VerdictCallback done,
                   std::function<void()> drop) override;
    void finishSend(std::uint64_t send_id, bool delivered) override;
    void abortSend(std::uint64_t send_id) override;
    void setReceiverEventSink(EventSink sink) override;

    /** Trace records consumed so far. */
    std::size_t attemptsConsumed() const { return next_attempt_; }

    /**
     * First divergence between what the protocol core attempted and
     * what the trace recorded (empty = replay matched the wire).
     */
    const std::string &divergence() const { return divergence_; }

  private:
    struct Stream
    {
        LinkId link = 0;
        MessageKey key;
    };

    sim::Simulation &sim_;
    const TransportTrace &trace_;
    SimTimers timers_;
    std::map<std::uint64_t, Stream> streams_;
    std::uint64_t next_send_ = 1;
    std::size_t next_attempt_ = 0;
    std::string divergence_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

} // namespace transport
} // namespace net
} // namespace rog

#endif // ROG_NET_TRANSPORT_DES_BACKEND_HPP
