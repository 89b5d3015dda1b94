#include "net/transport/crossval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "common/crc32c.hpp"
#include "common/logging.hpp"
#include "net/transport/des_backend.hpp"
#include "net/transport/payload.hpp"
#include "net/transport/receiver.hpp"
#include "net/transport/reliable_link.hpp"
#include "sim/simulation.hpp"

namespace rog {
namespace net {
namespace transport {

namespace {

constexpr double kEps = 1e-9;

std::size_t
byteLen(double len)
{
    if (len <= 0.0)
        return 0;
    return static_cast<std::size_t>(
        std::max(1.0, std::ceil(len - kEps)));
}

TransportConfig
configOf(const TraceConfig &tc)
{
    TransportConfig c;
    c.chunk_bytes = tc.chunk_bytes;
    c.max_attempts_per_chunk = tc.max_attempts;
    c.backoff_base_s = tc.backoff_base_s;
    c.backoff_max_s = tc.backoff_max_s;
    c.jitter_frac = tc.jitter_frac;
    c.jitter_seed = tc.jitter_seed;
    c.resume_from_offset = tc.resume_from_offset;
    return c;
}

/** First line where two normalized renderings differ, with context. */
std::string
firstDiff(const std::string &recorded, const std::string &replayed,
          const char *side)
{
    std::istringstream a(recorded), b(replayed);
    std::string la, lb;
    std::size_t line = 0;
    for (;;) {
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        ++line;
        if (!ga && !gb)
            return "";
        if (ga != gb || la != lb) {
            std::ostringstream os;
            os << side << " log diverges at line " << line
               << "\n  recorded: " << (ga ? la : "<end of log>")
               << "\n  replayed: " << (gb ? lb : "<end of log>");
            return os.str();
        }
    }
}

} // namespace

ReplayResult
replaySenderTrace(const TransportTrace &trace)
{
    ReplayResult res;
    sim::Simulation sim;
    ReplayBackend backend(sim, trace);
    ReliableLink link(backend, configOf(trace.config));

    // The recording harness issues sends strictly one after another
    // (stop-and-wait end to end), so the replay chains them the same
    // way; each deadline is relative to its own send's start.
    std::size_t completed = 0;
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
        if (i >= trace.sends.size())
            return;
        const SendRecord &rec = trace.sends[i];
        const double deadline =
            std::isfinite(rec.deadline_s)
                ? backend.now() + rec.deadline_s
                : kNoDeadline;
        link.startSend(rec.link, rec.key, rec.payload_bytes, deadline,
                       [&, i](const SendResult &) {
                           ++completed;
                           issue(i + 1);
                       });
    };
    issue(0);
    sim.run();

    res.log = link.log();
    res.divergence = backend.divergence();
    res.sends_completed = completed;
    if (res.divergence.empty() &&
        backend.attemptsConsumed() != trace.attempts.size()) {
        std::ostringstream os;
        os << "replay consumed " << backend.attemptsConsumed() << " of "
           << trace.attempts.size() << " recorded attempts";
        res.divergence = os.str();
    }
    return res;
}

ReplayResult
replayReceiverTrace(const TransportTrace &trace)
{
    ReplayResult res;

    struct MsgInfo
    {
        std::uint32_t chunk_count = 1;
        double payload_bytes = 0.0;
    };
    std::map<MessageKey, MsgInfo> msgs;
    for (const SendRecord &s : trace.sends) {
        MsgInfo info;
        info.payload_bytes = s.payload_bytes;
        info.chunk_count = static_cast<std::uint32_t>(std::max(
            1.0,
            std::ceil(s.payload_bytes / trace.config.chunk_bytes -
                      kEps)));
        msgs[s.key] = info;
    }

    ChunkReceiver rx([] { return 0.0; }, nullptr,
                     [&res](const TransportEvent &ev) {
                         res.log.push_back(ev);
                     });
    FrameAssembler assembler(rx);

    std::vector<std::uint8_t> chunk, present;
    for (const RxRecord &rec : trace.rx) {
        auto mit = msgs.find(rec.key);
        if (mit == msgs.end()) {
            if (res.divergence.empty())
                res.divergence = "rx record for a message never sent";
            continue;
        }
        const MsgInfo &info = mit->second;
        if (rec.chunk_seq >= info.chunk_count) {
            if (res.divergence.empty())
                res.divergence = "rx record beyond the message's chunks";
            continue;
        }

        // Regenerate exactly the bytes the sender framed: the chunk's
        // synthesized payload, cut to this frame's recorded window.
        const double chunk_len =
            rec.chunk_seq + 1 < info.chunk_count
                ? trace.config.chunk_bytes
                : info.payload_bytes -
                      trace.config.chunk_bytes *
                          static_cast<double>(info.chunk_count - 1);
        const std::size_t chunk_bytes = byteLen(chunk_len);
        chunk.resize(chunk_bytes);
        synthesizeChunk(rec.key, rec.chunk_seq,
                        {chunk.data(), chunk.size()});

        FrameHeader hdr;
        hdr.flags = rec.key.pull ? kFlagPull : 0;
        hdr.worker = rec.key.worker;
        hdr.version = rec.key.version;
        hdr.row = rec.key.row;
        hdr.chunk_seq = rec.chunk_seq;
        hdr.chunk_count = info.chunk_count;
        hdr.payload_off = rec.payload_off;
        hdr.payload_len = rec.frag_len;
        hdr.payload_crc = crc32c({chunk.data(), chunk.size()});

        const std::size_t off =
            static_cast<std::size_t>(rec.payload_off);
        const std::size_t got =
            std::min<std::size_t>(rec.got,
                                  chunk_bytes > off ? chunk_bytes - off
                                                    : 0);
        present.assign(chunk.begin() + off, chunk.begin() + off + got);
        if (!rec.crc_ok && !present.empty()) {
            // The wire corrupted this delivery; garble one byte so the
            // replayed verdict is computed over bad bytes, not assumed.
            present[0] ^= 0x40;
        }
        assembler.onFrame(rec.link, hdr,
                          {present.data(), present.size()});
    }

    res.sends_completed = rx.deliveredMessages();
    return res;
}

CrossvalReport
crossValidate(const TransportTrace &trace,
              const std::vector<TransportEvent> &recorded)
{
    CrossvalReport report;

    const ReplayResult sender = replaySenderTrace(trace);
    const ReplayResult receiver = replayReceiverTrace(trace);
    report.sender_events = sender.log.size();
    report.receiver_events = receiver.log.size();

    if (!sender.divergence.empty()) {
        report.detail = "sender replay: " + sender.divergence;
        return report;
    }
    if (!receiver.divergence.empty()) {
        report.detail = "receiver replay: " + receiver.divergence;
        return report;
    }

    // The replayed sender log can contain no receiver-side events (the
    // replay has no in-process receiver) but filter anyway: the
    // comparison must be side-by-side whatever the backend logged.
    const std::string diff_s = firstDiff(
        renderNormalized(filterSide(recorded, EventSide::Sender)),
        renderNormalized(filterSide(sender.log, EventSide::Sender)),
        "sender");
    if (!diff_s.empty()) {
        report.detail = diff_s;
        return report;
    }
    const std::string diff_r = firstDiff(
        renderNormalized(filterSide(recorded, EventSide::Receiver)),
        renderNormalized(filterSide(receiver.log, EventSide::Receiver)),
        "receiver");
    if (!diff_r.empty()) {
        report.detail = diff_r;
        return report;
    }

    report.ok = true;
    return report;
}

} // namespace transport
} // namespace net
} // namespace rog
