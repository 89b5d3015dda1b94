/**
 * @file
 * Session-layer wire messages.
 *
 * The session layer multiplexes everything a training node says onto
 * the transport's MessageKey space: gradient pushes and pull data use
 * real unit indices in the row field, while control traffic (handshake,
 * heartbeats, pull requests, goodbyes) lives in a reserved row band at
 * the top of the 32-bit row space that no model partition can reach.
 * The 64-bit version field carries a (scope, sequence) pair — scope is
 * the server-assigned session id after admission (the worker's
 * incarnation during the handshake), sequence is the training
 * iteration or a per-kind counter — so a message key can never repeat
 * across a crash/restart boundary and the transport's per-key
 * exactly-once state composes with process-level faults.
 *
 * Payload encoding is explicit little-endian with no padding; every
 * parse is total (returns false on truncation) because the bytes come
 * off a network.
 *
 * Gradient bytes are the codec's (compress/codec.hpp, per row chunk
 * as core/unit_wire.hpp lays them out): a push's whole payload is one
 * unit's codec bytes, and PullData is
 *   u8 tag | i64 iter | i64 min_done | u32 n_units |
 *   n_units x (u32 unit | u32 n_bytes | n_bytes codec bytes).
 * The wire layer checks only that the counts fit the message; the
 * receiver checks each unit and byte length against its partition.
 */
#ifndef ROG_NET_SESSION_WIRE_HPP
#define ROG_NET_SESSION_WIRE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/transport/event_log.hpp"

namespace rog {
namespace net {
namespace session {

using transport::MessageKey;

/** Fabric node id of the parameter server. */
inline constexpr int kServerNode = 0;

/** Fabric node id of ROG worker @p w. */
inline int
workerNode(std::size_t w)
{
    return static_cast<int>(w) + 1;
}

/** Control-plane rows: the top band of the row space. A model would
 *  need ~4.29 billion synchronization units to collide. */
inline constexpr std::uint32_t kRowControlBase = 0xFFFF0000u;
inline constexpr std::uint32_t kRowHello = kRowControlBase + 1;
inline constexpr std::uint32_t kRowWelcome = kRowControlBase + 2;
inline constexpr std::uint32_t kRowReject = kRowControlBase + 3;
inline constexpr std::uint32_t kRowHeartbeat = kRowControlBase + 4;
inline constexpr std::uint32_t kRowPullReq = kRowControlBase + 5;
inline constexpr std::uint32_t kRowPullData = kRowControlBase + 6;
inline constexpr std::uint32_t kRowBye = kRowControlBase + 7;

/** True when @p row is in the control band. */
inline bool
isControlRow(std::uint32_t row)
{
    return row >= kRowControlBase;
}

/** (scope << 24) | seq — scope disambiguates sessions/incarnations. */
std::int64_t packVersion(std::uint32_t scope, std::int64_t seq);
std::uint32_t versionScope(std::int64_t version);
std::int64_t versionSeq(std::int64_t version);

/** Why a Hello was turned away. */
enum class RejectReason : std::uint8_t {
    BadEpoch = 1,   //!< wrong run epoch; the reject carries the right one.
    StaleToken = 2, //!< resume token from a superseded session.
};

/** How an admitted worker (re)enters the run. */
enum class AdmitMode : std::uint8_t {
    Fresh = 0,  //!< first admission; model included.
    Rejoin = 1, //!< re-admission with full model resync.
    Resume = 2, //!< re-admission from a valid local checkpoint; no model.
};

const char *rejectReasonName(RejectReason r);
const char *admitModeName(AdmitMode m);

/** Worker -> server: open (or reopen) a session. */
struct Hello
{
    std::uint16_t worker = 0;
    std::uint32_t incarnation = 0; //!< restarts of this worker process.
    std::uint64_t epoch = 0;       //!< run epoch the worker believes in.
    std::uint64_t resume_token = 0; //!< 0 = none (fresh or lost state).
    std::uint64_t nonce = 0;        //!< echoes back in the response.
    std::uint16_t rx_port = 0;      //!< worker's receiver endpoint.
    std::int64_t last_done_iter = 0; //!< durable local progress claim.
};

/** Server -> worker: admission. */
struct Welcome
{
    std::uint64_t nonce = 0; //!< Hello echo.
    std::uint32_t session = 0;
    std::uint64_t resume_token = 0; //!< present in the *next* Hello.
    AdmitMode mode = AdmitMode::Fresh;
    std::int64_t start_iter = 0; //!< first training iteration is +1.
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> model; //!< empty on Resume.
};

/** Server -> worker: admission refused. */
struct Reject
{
    std::uint64_t nonce = 0;
    RejectReason reason = RejectReason::BadEpoch;
    std::uint64_t server_epoch = 0;
};

/** Worker -> server: liveness + progress. */
struct Heartbeat
{
    std::uint16_t worker = 0;
    std::int64_t iter = 0;
};

/** Worker -> server: all pushes of @p iter are in; gate me. */
struct PullReq
{
    std::uint16_t worker = 0;
    std::int64_t iter = 0;
};

/** One unit's averaged pending gradient, as the codec's payload. */
struct UnitUpdate
{
    std::uint32_t unit = 0;
    std::vector<std::uint8_t> bytes;
};

/** Server -> worker: averaged gradients pending for the worker. */
struct PullData
{
    std::int64_t iter = 0;     //!< echoed PullReq iteration.
    std::int64_t min_done = 0; //!< gate floor at response time.
    std::vector<UnitUpdate> units;
};

/** Worker -> server: graceful leave after finishing. */
struct Bye
{
    std::uint16_t worker = 0;
    std::int64_t done_iter = 0;
};

std::vector<std::uint8_t> encode(const Hello &m);
std::vector<std::uint8_t> encode(const Welcome &m);
std::vector<std::uint8_t> encode(const Reject &m);
std::vector<std::uint8_t> encode(const Heartbeat &m);
std::vector<std::uint8_t> encode(const PullReq &m);
std::vector<std::uint8_t> encode(const PullData &m);
std::vector<std::uint8_t> encode(const Bye &m);

bool parse(std::span<const std::uint8_t> in, Hello &out);
bool parse(std::span<const std::uint8_t> in, Welcome &out);
bool parse(std::span<const std::uint8_t> in, Reject &out);
bool parse(std::span<const std::uint8_t> in, Heartbeat &out);
bool parse(std::span<const std::uint8_t> in, PullReq &out);
bool parse(std::span<const std::uint8_t> in, PullData &out);
bool parse(std::span<const std::uint8_t> in, Bye &out);

} // namespace session
} // namespace net
} // namespace rog

#endif // ROG_NET_SESSION_WIRE_HPP
