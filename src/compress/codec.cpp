#include "compress/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "compress/packbits.hpp"

namespace rog {
namespace compress {

namespace {

/** Bytes of the per-chunk one-bit scale. */
constexpr std::size_t kScaleBytes = 4;

void
storeU32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t
loadU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
storeF32(std::uint8_t *p, float v)
{
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    storeU32(p, bits);
}

float
loadF32(const std::uint8_t *p)
{
    const std::uint32_t bits = loadU32(p);
    float v = 0.0f;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

Result
encodeResult(std::size_t n, std::size_t wire_bytes)
{
    return {static_cast<std::uint32_t>(4 * n),
            static_cast<std::uint32_t>(wire_bytes), 0};
}

Result
errorResult(std::span<const std::uint8_t> wire, std::int32_t error)
{
    return {static_cast<std::uint32_t>(wire.size()), 0, error};
}

Result
decodeResult(std::span<const std::uint8_t> wire, std::size_t n)
{
    return {static_cast<std::uint32_t>(wire.size()),
            static_cast<std::uint32_t>(4 * n), 0};
}

} // namespace

OneBitChunkStats
onebitTranscodeFused(std::span<float> residual,
                     std::span<const float> grad, std::span<float> out,
                     std::span<std::uint8_t> packed)
{
    const std::size_t n = grad.size();
    ROG_ASSERT(residual.size() == n && out.size() == n,
               "onebit kernel span size mismatch");
    ROG_ASSERT(packed.size() == packedBytes(n),
               "onebit kernel packed scratch size mismatch");

    float *res = residual.data();
    const float *g = grad.data();

    // Sweep 1 (the fusion): e = res + grad, scale and importance
    // accumulators, and the wire sign bits — one pass over the row
    // instead of the reference's accumulate + pack + unpack chain.
    // The float accumulation order is the reference's (sequential in
    // i), which keeps the scale bitwise identical; the sign predicate
    // e >= 0 is packSigns'.
    float scale = 0.0f;
    float sum_abs_grad = 0.0f;
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        std::uint64_t bits = 0;
        for (std::size_t j = 0; j < 64; ++j) {
            const float e = res[i + j] + g[i + j];
            res[i + j] = e;
            scale += std::fabs(e);
            sum_abs_grad += std::fabs(g[i + j]);
            bits |= static_cast<std::uint64_t>(e >= 0.0f) << j;
        }
        std::uint8_t *o = packed.data() + i / 8;
        for (std::size_t b = 0; b < 8; ++b)
            o[b] = static_cast<std::uint8_t>(bits >> (8 * b));
    }
    for (; i < n; i += 8) {
        std::uint8_t byte = 0;
        const std::size_t m = n - i < 8 ? n - i : 8;
        for (std::size_t j = 0; j < m; ++j) {
            const float e = res[i + j] + g[i + j];
            res[i + j] = e;
            scale += std::fabs(e);
            sum_abs_grad += std::fabs(g[i + j]);
            byte |= static_cast<std::uint8_t>(
                static_cast<unsigned>(e >= 0.0f) << j);
        }
        packed[i / 8] = byte;
    }
    scale /= static_cast<float>(n);

    // Sweep 2: quantize and fold the error back. Reading the residual
    // sign directly is exact: unpack maps bit -> ±1.0f and
    // scale * ±1.0f == ±scale in IEEE arithmetic, so skipping the
    // unpack round-trip changes nothing, bit for bit.
    for (std::size_t k = 0; k < n; ++k) {
        const float q = res[k] >= 0.0f ? scale : -scale;
        out[k] = q;
        res[k] -= q;
    }

    OneBitChunkStats stats;
    stats.scale = scale;
    stats.sum_abs_grad = sum_abs_grad;
    return stats;
}

OneBitChunkStats
onebitTranscodeRef(std::span<float> residual, std::span<const float> grad,
                   std::span<float> out, std::span<std::uint8_t> packed)
{
    const std::size_t n = grad.size();
    ROG_ASSERT(residual.size() == n && out.size() == n,
               "onebit kernel span size mismatch");
    ROG_ASSERT(packed.size() == packedBytes(n),
               "onebit kernel packed scratch size mismatch");

    float *res = residual.data();

    // The seed pipeline, pass for pass: e = grad + residual and
    // scale = mean(|e|) over the chunk ...
    float scale = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        res[i] += grad[i];
        scale += std::fabs(res[i]);
    }
    scale /= static_cast<float>(n);

    // ... then the real wire path: pack sign bits, then unpack, so the
    // decoded value is exactly what a receiver would reconstruct ...
    packSignsRef(residual, packed);
    std::vector<float> signs(n);
    unpackSignsRef(packed, n, signs);

    // ... then quantize with error compensation for the next round.
    for (std::size_t i = 0; i < n; ++i) {
        const float q = scale * signs[i];
        out[i] = q;
        res[i] -= q;
    }

    // The importance magnitude the fused kernel folds into its sweep
    // is a separate pass here — that is the point of the comparison.
    float sum_abs_grad = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        sum_abs_grad += std::fabs(grad[i]);

    OneBitChunkStats stats;
    stats.scale = scale;
    stats.sum_abs_grad = sum_abs_grad;
    return stats;
}

void
Codec::transcode(std::size_t block, std::size_t block_width,
                 std::size_t offset, std::span<const float> grad,
                 std::span<float> out)
{
    // Wire scratch leased per call: bounded by the pool's caps,
    // recycled across calls and threads, so distinct blocks can
    // transcode concurrently.
    auto wire = BufferPool::global().leaseBytes(wireBytes(grad.size()));
    encode(block, block_width, offset, grad, out, wire.span());
}

void
Codec::restoreResidual(std::size_t, std::span<const float>)
{
    ROG_FATAL("codec ", name(), " keeps no residual to restore");
}

Result
IdentityCodec::encode(std::size_t, std::size_t block_width,
                      std::size_t offset, std::span<const float> grad,
                      std::span<float> out, std::span<std::uint8_t> wire)
{
    ROG_ASSERT(grad.size() == out.size(), "codec chunk size mismatch");
    ROG_ASSERT(offset + grad.size() <= block_width,
               "codec chunk exceeds block");
    ROG_ASSERT(wire.size() == wireBytes(grad.size()),
               "codec wire size mismatch");
    for (std::size_t i = 0; i < grad.size(); ++i) {
        out[i] = grad[i];
        storeF32(wire.data() + 4 * i, grad[i]);
    }
    return encodeResult(grad.size(), wire.size());
}

Result
IdentityCodec::decode(std::span<const std::uint8_t> wire,
                      std::span<float> out) const
{
    if (wire.size() != wireBytes(out.size()))
        return errorResult(wire, kBadLength);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = loadF32(wire.data() + 4 * i);
    return decodeResult(wire, out.size());
}

std::size_t
IdentityCodec::wireBytes(std::size_t width) const
{
    return 4 * width;
}

void
Codec::prepare(std::size_t, std::size_t)
{
    // Stateless by default.
}

void
OneBitCodec::prepare(std::size_t block, std::size_t block_width)
{
    blockFor(block, block_width);
}

OneBitCodec::BlockState &
OneBitCodec::blockFor(std::size_t block, std::size_t block_width)
{
    // find-first: after prepare() the lookup is read-only, so
    // concurrent transcodes of distinct prepared blocks never touch
    // the map structure.
    auto it = blocks_.find(block);
    if (it == blocks_.end()) {
        it = blocks_.emplace(block, BlockState{}).first;
        it->second.residual.assign(block_width, 0.0f);
    }
    ROG_ASSERT(it->second.residual.size() == block_width,
               "block width changed between calls");
    return it->second;
}

void
TopKCodec::prepare(std::size_t block, std::size_t block_width)
{
    residualFor(block, block_width);
}

std::vector<float> &
TopKCodec::residualFor(std::size_t block, std::size_t block_width)
{
    // find-first: after prepare() the lookup is read-only, so
    // concurrent transcodes of distinct prepared blocks never touch
    // the map structure.
    auto it = residual_.find(block);
    if (it == residual_.end()) {
        it = residual_
                 .emplace(block, std::vector<float>(block_width, 0.0f))
                 .first;
    }
    ROG_ASSERT(it->second.size() == block_width,
               "block width changed between calls");
    return it->second;
}

Result
OneBitCodec::encode(std::size_t block, std::size_t block_width,
                    std::size_t offset, std::span<const float> grad,
                    std::span<float> out, std::span<std::uint8_t> wire)
{
    ROG_ASSERT(grad.size() == out.size(), "codec chunk size mismatch");
    const std::size_t n = grad.size();
    ROG_ASSERT(offset + n <= block_width, "codec chunk exceeds block");
    ROG_ASSERT(wire.size() == wireBytes(n), "codec wire size mismatch");

    BlockState &state = blockFor(block, block_width);

    // The fused kernel packs the sign bits straight into the wire
    // bytes behind the scale.
    const auto stats =
        onebitTranscodeFused({state.residual.data() + offset, n}, grad,
                             out, wire.subspan(kScaleBytes));
    storeF32(wire.data(), stats.scale);
    state.last_sum_abs_grad = static_cast<double>(stats.sum_abs_grad);
    return encodeResult(n, wire.size());
}

Result
OneBitCodec::decode(std::span<const std::uint8_t> wire,
                    std::span<float> out) const
{
    if (wire.size() != wireBytes(out.size()))
        return errorResult(wire, kBadLength);
    const float scale = loadF32(wire.data());
    unpackSigns(wire.subspan(kScaleBytes), out.size(), out);
    // scale * ±1.0f is exact: these are the sender's floats.
    for (float &v : out)
        v *= scale;
    return decodeResult(wire, out.size());
}

std::size_t
OneBitCodec::wireBytes(std::size_t width) const
{
    return kScaleBytes + packedBytes(width);
}

double
OneBitCodec::lastTranscodeMagnitude(std::size_t block) const
{
    auto it = blocks_.find(block);
    return it == blocks_.end() ? 0.0 : it->second.last_sum_abs_grad;
}

double
OneBitCodec::residualMeanAbs(std::size_t block) const
{
    auto it = blocks_.find(block);
    if (it == blocks_.end() || it->second.residual.empty())
        return 0.0;
    double s = 0.0;
    for (float v : it->second.residual)
        s += std::fabs(v);
    return s / static_cast<double>(it->second.residual.size());
}

std::vector<BlockResidual>
OneBitCodec::residuals() const
{
    std::vector<BlockResidual> out;
    out.reserve(blocks_.size());
    for (const auto &[block, state] : blocks_)
        out.push_back({block, state.residual});
    std::sort(out.begin(), out.end(),
              [](const BlockResidual &a, const BlockResidual &b) {
                  return a.block < b.block;
              });
    return out;
}

void
OneBitCodec::restoreResidual(std::size_t block,
                             std::span<const float> values)
{
    BlockState &state = blocks_[block];
    state.residual.assign(values.begin(), values.end());
    state.last_sum_abs_grad = 0.0;
}

TopKCodec::TopKCodec(double keep_fraction)
    : keep_fraction_(keep_fraction)
{
    ROG_ASSERT(keep_fraction > 0.0 && keep_fraction <= 1.0,
               "top-k keep fraction must be in (0, 1]");
}

std::size_t
TopKCodec::keepCount(std::size_t width) const
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(keep_fraction_ * static_cast<double>(width))));
}

Result
TopKCodec::encode(std::size_t block, std::size_t block_width,
                  std::size_t offset, std::span<const float> grad,
                  std::span<float> out, std::span<std::uint8_t> wire)
{
    ROG_ASSERT(grad.size() == out.size(), "codec chunk size mismatch");
    const std::size_t n = grad.size();
    ROG_ASSERT(offset + n <= block_width, "codec chunk exceeds block");
    ROG_ASSERT(wire.size() == wireBytes(n), "codec wire size mismatch");

    auto &res = residualFor(block, block_width);

    for (std::size_t i = 0; i < n; ++i)
        res[offset + i] += grad[i];

    const std::size_t keep = keepCount(n);

    // Select the `keep` largest-magnitude positions of this chunk.
    // Selection scratch is leased per call so distinct blocks can
    // transcode concurrently without per-thread high-water memory.
    auto order = BufferPool::global().leaseIndices(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    const auto kept = static_cast<std::ptrdiff_t>(keep);
    std::partial_sort(order.data(), order.data() + kept,
                      order.data() + n,
                      [&](std::size_t a, std::size_t b) {
                          return std::fabs(res[offset + a]) >
                                 std::fabs(res[offset + b]);
                      });
    // Ascending indices on the wire: the decoder rejects anything
    // else, which rules out duplicates in one comparison.
    std::sort(order.data(), order.data() + kept);

    for (std::size_t i = 0; i < n; ++i)
        out[i] = 0.0f;
    for (std::size_t k = 0; k < keep; ++k) {
        const std::size_t i = order[k];
        out[i] = res[offset + i];
        res[offset + i] = 0.0f; // exact transmission: no residual left.
        storeU32(wire.data() + 8 * k, static_cast<std::uint32_t>(i));
        storeF32(wire.data() + 8 * k + 4, out[i]);
    }
    return encodeResult(n, wire.size());
}

Result
TopKCodec::decode(std::span<const std::uint8_t> wire,
                  std::span<float> out) const
{
    if (wire.size() != wireBytes(out.size()))
        return errorResult(wire, kBadLength);
    std::fill(out.begin(), out.end(), 0.0f);
    const std::size_t keep = wire.size() / 8;
    for (std::size_t k = 0; k < keep; ++k) {
        const std::uint32_t i = loadU32(wire.data() + 8 * k);
        if (i >= out.size() ||
            (k > 0 && i <= loadU32(wire.data() + 8 * (k - 1))))
            return errorResult(wire, kBadPayload);
        out[i] = loadF32(wire.data() + 8 * k + 4);
    }
    return decodeResult(wire, out.size());
}

std::size_t
TopKCodec::wireBytes(std::size_t width) const
{
    // Per surviving element: 4-byte index + 4-byte float32 value.
    return 8 * keepCount(width);
}

std::vector<BlockResidual>
TopKCodec::residuals() const
{
    std::vector<BlockResidual> out;
    out.reserve(residual_.size());
    for (const auto &[block, values] : residual_)
        out.push_back({block, values});
    std::sort(out.begin(), out.end(),
              [](const BlockResidual &a, const BlockResidual &b) {
                  return a.block < b.block;
              });
    return out;
}

void
TopKCodec::restoreResidual(std::size_t block,
                           std::span<const float> values)
{
    residual_[block].assign(values.begin(), values.end());
}

std::unique_ptr<Codec>
makeCodec(const std::string &name)
{
    if (name == "identity")
        return std::make_unique<IdentityCodec>();
    if (name == "onebit")
        return std::make_unique<OneBitCodec>();
    if (name == "topk")
        return std::make_unique<TopKCodec>();
    ROG_FATAL("unknown codec: ", name);
}

} // namespace compress
} // namespace rog
