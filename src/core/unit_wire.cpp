#include "core/unit_wire.hpp"

#include "common/logging.hpp"

namespace rog {
namespace core {

std::size_t
unitWireBytes(const compress::Codec &codec, const FlatModel &flat,
              const Unit &unit)
{
    std::size_t bytes = 0;
    flat.forEachRowChunk(unit.begin, unit.width,
                         [&](std::size_t, std::size_t, std::size_t count,
                             std::size_t) {
                             bytes += codec.wireBytes(count);
                         });
    return bytes;
}

compress::Result
encodeUnit(compress::Codec &codec, const FlatModel &flat,
           const Unit &unit, std::span<const float> grad,
           std::span<float> out, std::vector<std::uint8_t> &wire)
{
    ROG_ASSERT(grad.size() == unit.width && out.size() == unit.width,
               "unit encode size mismatch");
    wire.clear();
    // One reference capture keeps the chunk callback inside
    // std::function's small buffer: no allocation per unit.
    struct
    {
        compress::Codec &codec;
        const FlatModel &flat;
        std::span<const float> grad;
        std::span<float> out;
        std::vector<std::uint8_t> &wire;
        compress::Result total;
    } s{codec, flat, grad, out, wire, {}};
    flat.forEachRowChunk(
        unit.begin, unit.width,
        [&s](std::size_t row, std::size_t col, std::size_t count,
             std::size_t off) {
            const std::size_t at = s.wire.size();
            s.wire.resize(at + s.codec.wireBytes(count));
            const compress::Result r = s.codec.encode(
                row, s.flat.rowInfo(row).width, col,
                s.grad.subspan(off, count), s.out.subspan(off, count),
                std::span<std::uint8_t>(s.wire).subspan(at));
            s.total.bytes_in += r.bytes_in;
            s.total.bytes_out += r.bytes_out;
        });
    return s.total;
}

compress::Result
decodeUnit(const compress::Codec &codec, const FlatModel &flat,
           const Unit &unit, std::span<const std::uint8_t> wire,
           std::span<float> out)
{
    ROG_ASSERT(out.size() == unit.width, "unit decode size mismatch");
    struct
    {
        const compress::Codec &codec;
        std::span<const std::uint8_t> wire;
        std::span<float> out;
        compress::Result total;
    } s{codec, wire, out, {}};
    flat.forEachRowChunk(
        unit.begin, unit.width,
        [&s](std::size_t, std::size_t, std::size_t count,
             std::size_t off) {
            if (!s.total.ok())
                return;
            const std::size_t n = s.codec.wireBytes(count);
            if (s.wire.size() - s.total.bytes_in < n) {
                s.total.error = compress::kBadLength;
                return;
            }
            const compress::Result r =
                s.codec.decode(s.wire.subspan(s.total.bytes_in, n),
                               s.out.subspan(off, count));
            s.total.bytes_in += r.bytes_in;
            s.total.bytes_out += r.bytes_out;
            s.total.error = r.error;
        });
    // Every byte must belong to a chunk: an overlong payload is no
    // more this unit's than a short one.
    if (s.total.ok() && s.total.bytes_in != wire.size())
        s.total.error = compress::kBadLength;
    return s.total;
}

} // namespace core
} // namespace rog
