#include "net/transport/receiver.hpp"

#include <algorithm>

#include "common/crc32c.hpp"
#include "common/logging.hpp"

namespace rog {
namespace net {
namespace transport {

ChunkReceiver::ChunkReceiver(std::function<double()> clock,
                             TransportObserver *observer, EventSink sink)
    : clock_(std::move(clock)), observer_(observer), sink_(std::move(sink))
{
    ROG_ASSERT(clock_, "chunk receiver needs a clock");
}

void
ChunkReceiver::open(std::uint64_t instance, bool store_payload)
{
    MessageState &m = messages_[instance];
    m.store_payload = store_payload;
}

ChunkReceiver::MessageState &
ChunkReceiver::state(std::uint64_t instance)
{
    return messages_[instance];
}

void
ChunkReceiver::emit(TransportEvent::Kind kind, const MessageState &m,
                    std::uint32_t seq, double a, double b)
{
    if (!sink_)
        return;
    TransportEvent ev;
    ev.t = clock_();
    ev.kind = kind;
    ev.link = m.link;
    ev.key = m.key;
    ev.chunk_seq = seq;
    ev.a = a;
    ev.b = b;
    sink_(ev);
}

void
ChunkReceiver::acceptOnce(MessageState &m, const FrameHeader &hdr,
                          std::span<const std::uint8_t> chunk,
                          double chunk_len, Decision &d)
{
    const bool fresh = m.accepted.insert(hdr.chunk_seq).second;
    if (observer_)
        observer_->onTransportChunk(m.key.worker, m.key.version,
                                    m.key.row, hdr.chunk_seq, true,
                                    fresh, m.key.pull);
    if (!fresh) {
        ++d.duplicates;
        emit(TransportEvent::Kind::Duplicate, m, hdr.chunk_seq);
        return;
    }
    ++d.fresh_accepts;
    emit(TransportEvent::Kind::Accept, m, hdr.chunk_seq, chunk_len);
    if (m.store_payload)
        m.chunks[hdr.chunk_seq].assign(chunk.begin(), chunk.end());
}

void
ChunkReceiver::flushHold(MessageState &m, Decision &d)
{
    m.hold_pending = false;
    acceptOnce(m, m.hold_hdr,
               {m.hold_bytes.data(), m.hold_bytes.size()},
               m.hold_chunk_len, d);
    if (m.hold_duplicated)
        acceptOnce(m, m.hold_hdr,
                   {m.hold_bytes.data(), m.hold_bytes.size()},
                   m.hold_chunk_len, d);
    m.hold_bytes.clear();
}

ChunkReceiver::Decision
ChunkReceiver::onChunk(std::uint64_t instance, LinkId link,
                       const MessageKey &key, const FrameHeader &hdr,
                       std::span<const std::uint8_t> chunk,
                       double chunk_len, bool duplicated_hint,
                       bool reordered_hint)
{
    MessageState &m = state(instance);
    m.link = link;
    m.key = key;
    m.chunk_count = hdr.chunk_count;

    Decision d;
    d.crc_ok = crc32c(chunk) == hdr.payload_crc;
    if (!d.crc_ok) {
        if (observer_)
            observer_->onTransportChunk(key.worker, key.version, key.row,
                                        hdr.chunk_seq, false, false,
                                        key.pull);
        emit(TransportEvent::Kind::CorruptDrop, m, hdr.chunk_seq,
             chunk_len);
        return d;
    }

    if (reordered_hint && !m.hold_pending &&
        hdr.chunk_seq + 1 < hdr.chunk_count) {
        // Delivery overtaken by the next send: hold the (intact)
        // chunk and apply it after its successor.
        m.hold_pending = true;
        m.hold_hdr = hdr;
        m.hold_duplicated = duplicated_hint;
        m.hold_chunk_len = chunk_len;
        m.hold_bytes.assign(chunk.begin(), chunk.end());
        d.held = true;
        emit(TransportEvent::Kind::ReorderHold, m, hdr.chunk_seq);
        return d;
    }

    acceptOnce(m, hdr, chunk, chunk_len, d);
    if (duplicated_hint)
        acceptOnce(m, hdr, chunk, chunk_len, d); // delivered twice.
    if (m.hold_pending)
        flushHold(m, d);

    if (!m.complete && m.accepted.size() == m.chunk_count) {
        m.complete = true;
        ++delivered_;
        if (m.store_payload) {
            m.assembled.clear();
            for (const auto &[seq, bytes] : m.chunks)
                m.assembled.insert(m.assembled.end(), bytes.begin(),
                                   bytes.end());
            m.chunks.clear();
        }
        if (observer_)
            observer_->onTransportDeliver(key.worker, key.version,
                                          key.row, key.pull);
        emit(TransportEvent::Kind::Deliver, m, m.chunk_count);
    }
    d.message_complete = m.complete;
    if (m.complete && m.store_payload)
        d.assembled = &m.assembled;
    return d;
}

void
ChunkReceiver::abandon(std::uint64_t instance)
{
    auto it = messages_.find(instance);
    if (it == messages_.end() || !it->second.hold_pending)
        return;
    Decision d;
    flushHold(it->second, d); // whatever arrived, arrived.
}

void
ChunkReceiver::release(std::uint64_t instance)
{
    messages_.erase(instance);
}

const std::vector<std::uint8_t> &
ChunkReceiver::payload(std::uint64_t instance) const
{
    static const std::vector<std::uint8_t> kEmpty;
    auto it = messages_.find(instance);
    return it == messages_.end() ? kEmpty : it->second.assembled;
}

FrameAssembler::FrameAssembler(ChunkReceiver &rx, bool store_payload)
    : rx_(rx), store_payload_(store_payload)
{
}

FrameAssembler::Result
FrameAssembler::onFrame(LinkId link, const FrameHeader &hdr,
                        std::span<const std::uint8_t> present)
{
    MessageKey key;
    key.worker = hdr.worker;
    key.version = hdr.version;
    key.row = hdr.row;
    key.pull = hdr.pull();

    auto [ins_it, fresh] = instances_.try_emplace(key, next_instance_);
    if (fresh) {
        ++next_instance_;
        rx_.open(ins_it->second, store_payload_);
    }
    const std::uint64_t instance = ins_it->second;

    ChunkBuf &buf = bufs_[{instance, hdr.chunk_seq}];
    const std::uint64_t off = hdr.payload_off;
    const std::uint64_t end = off + present.size();
    if (buf.bytes.size() < end)
        buf.bytes.resize(static_cast<std::size_t>(end), 0);
    std::copy(present.begin(), present.end(),
              buf.bytes.begin() + static_cast<std::size_t>(off));
    // Only a gap-free prefix is trustworthy; the stop-and-wait sender
    // never leaves one, but a stray datagram cannot corrupt state.
    if (off <= buf.prefix)
        buf.prefix = std::max(buf.prefix, end);

    Result r;
    r.prefix = buf.prefix;

    // The sender always frames to the end of the chunk, so this frame
    // completes the chunk exactly when it arrived whole and the bytes
    // before it are contiguous.
    const std::uint64_t chunk_total = off + hdr.payload_len;
    const bool whole = present.size() == hdr.payload_len;
    if (!whole || buf.prefix < chunk_total) {
        r.chunk_complete = false;
        return r;
    }

    r.chunk_complete = true;
    r.decision = rx_.onChunk(
        instance, link, key, hdr,
        {buf.bytes.data(), static_cast<std::size_t>(chunk_total)},
        static_cast<double>(chunk_total), false, false);
    // Accepted or discarded, this chunk's buffer is spent: a CRC
    // failure restarts the chunk from offset zero (the prefix was
    // untrustworthy), and an accept has no more use for it.
    bufs_.erase({instance, hdr.chunk_seq});
    return r;
}

} // namespace transport
} // namespace net
} // namespace rog
