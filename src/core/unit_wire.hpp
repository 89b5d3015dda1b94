/**
 * @file
 * A synchronization unit's codec payload: the bytes a push or a pull
 * carries for one unit on the node path.
 *
 * A unit is cut into its (row, column range) chunks, and each chunk is
 * one codec call on block = global row — exactly how
 * Engine::transcodeUnit keys the codec — so a node's error residuals
 * evolve as the coroutine engine's do. The unit payload is the chunk
 * payloads concatenated in flat order, and its size is what the DES
 * charges for the unit minus the per-unit index overhead.
 */
#ifndef ROG_CORE_UNIT_WIRE_HPP
#define ROG_CORE_UNIT_WIRE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "compress/codec.hpp"
#include "core/flat_model.hpp"
#include "core/row_partition.hpp"

namespace rog {
namespace core {

/** Exact payload bytes of @p unit: the sum of codec.wireBytes over
 *  its row chunks. */
std::size_t unitWireBytes(const compress::Codec &codec,
                          const FlatModel &flat, const Unit &unit);

/**
 * Encode @p grad (the unit's gradient, unit.width elements) chunk by
 * chunk: @p out receives the reconstruction the receiver will decode,
 * @p wire is refilled with the unitWireBytes() payload bytes.
 */
compress::Result encodeUnit(compress::Codec &codec, const FlatModel &flat,
                            const Unit &unit, std::span<const float> grad,
                            std::span<float> out,
                            std::vector<std::uint8_t> &wire);

/**
 * Decode an untrusted unit payload into @p out (unit.width elements),
 * in one pass over the chunks. A byte length other than
 * unitWireBytes() fails with kBadLength; on any error @p out is
 * unspecified.
 */
compress::Result decodeUnit(const compress::Codec &codec,
                            const FlatModel &flat, const Unit &unit,
                            std::span<const std::uint8_t> wire,
                            std::span<float> out);

} // namespace core
} // namespace rog

#endif // ROG_CORE_UNIT_WIRE_HPP
