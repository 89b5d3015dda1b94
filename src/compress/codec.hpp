/**
 * @file
 * Gradient row codecs.
 *
 * The paper compresses gradients with the lossless one-bit scheme of
 * [22]: values quantize to sign * mean(|.|) per block, the lost
 * information is carried forward in an error-compensation residual,
 * and the sign bits are packed (packbits) for the wire. encode() does
 * the sender's half and writes both the reconstruction the receiver
 * will see and the wire bytes that carry it; decode() is the
 * receiver's half and turns those bytes back into the identical
 * floats. transcode() is encode with the wire bytes discarded — what
 * a simulation, whose sender and receiver share an address space,
 * needs — and wireBytes() is the exact payload size either way.
 *
 * Wire formats, per transmitted chunk of `n` elements, little-endian:
 *   identity: n x f32.
 *   onebit:   f32 scale, then packedBytes(n) sign bytes (bit = 1 for
 *             >= 0, packSigns order); decode is scale * ±1.0f, which
 *             is exact, so the receiver's floats equal the sender's
 *             reconstruction bit for bit, -0.0f included.
 *   topk:     k x (u32 index, f32 value), indices strictly ascending;
 *             every other element decodes to +0.0f.
 *
 * Codecs are stateful per (direction, peer): the error residual of the
 * worker->server push must not mix with the server->worker pull, so
 * each endpoint owns its own instance.
 *
 * Threading: distinct *blocks* of one codec may be transcoded
 * concurrently once prepare() has created their state (scratch
 * buffers are leased per call from the shared BufferPool); the same
 * block must never be transcoded by two threads at once — its residual
 * is a sequential stream.
 *
 * Kernels: the one-bit hot path is the *fused* kernel
 * (onebitTranscodeFused) — residual update, scale accumulation, sign
 * extraction into packed wire bits, and the importance magnitude of
 * the raw gradient all happen in one sweep, with the quantize/
 * error-feedback sweep reading the residual signs directly instead of
 * round-tripping through unpack. The seed's four-pass pipeline is kept
 * verbatim as onebitTranscodeRef: the equivalence oracle and the bench
 * baseline. Both produce bitwise-identical out / residual / packed
 * bits (same sequential float accumulation order, same `>= 0`
 * predicate, and scale * ±1.0f is exact in IEEE arithmetic).
 */
#ifndef ROG_COMPRESS_CODEC_HPP
#define ROG_COMPRESS_CODEC_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace rog {
namespace compress {

/** By-products of a one-bit transcode over one chunk. */
struct OneBitChunkStats
{
    /** mean(|residual + grad|) — the scale the chunk ships. */
    float scale = 0.0f;

    /**
     * sum(|grad|) of the raw chunk input: the numerator of the
     * importance-metric magnitude term (core/importance), measured in
     * the same sweep instead of a separate meanAbs pass.
     */
    float sum_abs_grad = 0.0f;
};

/**
 * Fused single-pass one-bit kernel. Updates @p residual in place
 * (res += grad, then res -= q), writes the reconstruction into @p out
 * and the wire sign bits into @p packed.
 *
 * @pre residual.size() == grad.size() == out.size()
 * @pre packed.size() == packedBytes(grad.size())
 */
OneBitChunkStats onebitTranscodeFused(std::span<float> residual,
                                      std::span<const float> grad,
                                      std::span<float> out,
                                      std::span<std::uint8_t> packed);

/**
 * Reference one-bit kernel: the seed's separate passes (accumulate +
 * scale, packSignsRef, unpackSignsRef, quantize) with fresh scratch
 * allocations — the fuzz oracle and the bench baseline. Identical
 * outputs to the fused kernel, bit for bit.
 */
OneBitChunkStats onebitTranscodeRef(std::span<float> residual,
                                    std::span<const float> grad,
                                    std::span<float> out,
                                    std::span<std::uint8_t> packed);

/**
 * Outcome of one encode or decode call: bytes consumed, bytes
 * produced, and an error code (0 = OK, < 0 = malformed input).
 */
struct Result
{
    std::uint32_t bytes_in = 0;
    std::uint32_t bytes_out = 0;
    std::int32_t error = 0;

    bool ok() const { return error == 0; }
};

/** Result::error: the wire length is not wireBytes(width). */
inline constexpr std::int32_t kBadLength = -1;
/** Result::error: the bytes have the right length but cannot be a
 *  payload (e.g. a top-k index out of range or out of order). */
inline constexpr std::int32_t kBadPayload = -2;

/** One block's error-feedback residual (checkpoint form). */
struct BlockResidual
{
    std::size_t block = 0;
    std::vector<float> values;
};

/** Stateful gradient-block encoder/decoder. */
class Codec
{
  public:
    virtual ~Codec() = default;

    /**
     * Encode the sub-range [offset, offset + grad.size()) of gradient
     * block @p block: write what the receiver reconstructs into
     * @p out and the payload that carries it into @p wire. The block
     * is a compression unit — in this library always one
     * parameter-matrix row of @p block_width elements, independent of
     * the *transmission* granularity. Any quantization error is
     * retained internally per block element (error compensation) and
     * folded into the next call covering it.
     *
     * @pre offset + grad.size() <= block_width
     * @pre grad.size() == out.size()
     * @pre wire.size() == wireBytes(grad.size())
     * @pre block_width is stable across calls for the same block.
     */
    virtual Result encode(std::size_t block, std::size_t block_width,
                          std::size_t offset,
                          std::span<const float> grad,
                          std::span<float> out,
                          std::span<std::uint8_t> wire) = 0;

    /**
     * Decode a payload of out.size() elements into @p out. Stateless:
     * any instance of the codec decodes any sender's bytes. The bytes
     * are untrusted; a length other than wireBytes(out.size()) fails
     * with kBadLength before @p out is touched, and on any error the
     * contents of @p out are unspecified.
     */
    virtual Result decode(std::span<const std::uint8_t> wire,
                          std::span<float> out) const = 0;

    /** Exact payload bytes of a transmitted chunk of @p width
     *  elements (each chunk carries its own scale where needed). */
    virtual std::size_t wireBytes(std::size_t width) const = 0;

    /** wireBytes() as the channel's byte count. */
    double
    payloadBytes(std::size_t width) const
    {
        return static_cast<double>(wireBytes(width));
    }

    /**
     * encode() with the wire bytes discarded (leased scratch): the
     * simulation's transcode, where sender and receiver share an
     * address space.
     */
    void transcode(std::size_t block, std::size_t block_width,
                   std::size_t offset, std::span<const float> grad,
                   std::span<float> out);

    /**
     * Pre-create any per-block state (e.g. the error residual) for
     * @p block. Calling transcode without prepare still works on a
     * single thread; *concurrent* transcodes of distinct blocks are
     * only safe after every involved block has been prepared, because
     * lazy creation would mutate the shared block map mid-flight.
     * Default: no per-block state, no-op.
     */
    virtual void prepare(std::size_t block, std::size_t block_width);

    /**
     * Convenience: transcode a whole block at once.
     * @pre grad.size() == out.size()
     */
    void
    transcodeRow(std::size_t block, std::span<const float> grad,
                 std::span<float> out)
    {
        transcode(block, grad.size(), 0, grad, out);
    }

    /**
     * sum(|grad|) observed by the most recent transcode covering
     * @p block, when the codec measures it as a transcode by-product
     * (one-bit does, in its fused sweep); 0.0 otherwise. Safe to read
     * after the parallel transcode region that produced it.
     */
    virtual double
    lastTranscodeMagnitude(std::size_t block) const
    {
        (void)block;
        return 0.0;
    }

    /** Every block's error-feedback residual, ascending by block
     *  (empty for codecs that keep none). */
    virtual std::vector<BlockResidual>
    residuals() const
    {
        return {};
    }

    /**
     * Replace @p block's residual with @p values (a checkpoint
     * restore). The caller checks the width against the block.
     * @throws std::runtime_error for a codec that keeps no residual.
     */
    virtual void restoreResidual(std::size_t block,
                                 std::span<const float> values);

    /** Codec name for logs and reports. */
    virtual std::string name() const = 0;
};

/** No compression: float32 on the wire, zero residual. */
class IdentityCodec : public Codec
{
  public:
    Result encode(std::size_t block, std::size_t block_width,
                  std::size_t offset, std::span<const float> grad,
                  std::span<float> out,
                  std::span<std::uint8_t> wire) override;
    Result decode(std::span<const std::uint8_t> wire,
                  std::span<float> out) const override;
    std::size_t wireBytes(std::size_t width) const override;
    std::string name() const override { return "identity"; }
};

/**
 * One-bit compression with error compensation [22]: per transmitted
 * chunk of a block, q = mean(|e|) * sign(e) where e = grad + residual,
 * and residual' = e - q. The wire carries a 4-byte float scale plus
 * one sign bit per element (packed) per chunk.
 */
class OneBitCodec : public Codec
{
  public:
    Result encode(std::size_t block, std::size_t block_width,
                  std::size_t offset, std::span<const float> grad,
                  std::span<float> out,
                  std::span<std::uint8_t> wire) override;
    Result decode(std::span<const std::uint8_t> wire,
                  std::span<float> out) const override;
    void prepare(std::size_t block, std::size_t block_width) override;
    std::size_t wireBytes(std::size_t width) const override;
    std::string name() const override { return "onebit"; }

    double lastTranscodeMagnitude(std::size_t block) const override;
    std::vector<BlockResidual> residuals() const override;
    void restoreResidual(std::size_t block,
                         std::span<const float> values) override;

    /** Residual magnitude for a block (diagnostics/tests). */
    double residualMeanAbs(std::size_t block) const;

  private:
    struct BlockState
    {
        std::vector<float> residual;
        double last_sum_abs_grad = 0.0;
    };

    BlockState &blockFor(std::size_t block, std::size_t block_width);

    std::unordered_map<std::size_t, BlockState> blocks_;
};

/**
 * Top-k sparsification with error compensation (the "deep gradient
 * compression" family [38] the paper contrasts with one-bit): only the
 * k largest-magnitude elements of each chunk go on the wire (index +
 * float32 value each), the rest accumulate in the residual. More
 * aggressive than one-bit for very sparse gradients, but the wire cost
 * per surviving element is 8 bytes, so the break-even depends on k.
 */
class TopKCodec : public Codec
{
  public:
    /** @param keep_fraction fraction of each chunk kept, in (0, 1]. */
    explicit TopKCodec(double keep_fraction = 0.1);

    Result encode(std::size_t block, std::size_t block_width,
                  std::size_t offset, std::span<const float> grad,
                  std::span<float> out,
                  std::span<std::uint8_t> wire) override;
    Result decode(std::span<const std::uint8_t> wire,
                  std::span<float> out) const override;
    void prepare(std::size_t block, std::size_t block_width) override;
    std::size_t wireBytes(std::size_t width) const override;
    std::string name() const override { return "topk"; }

    std::vector<BlockResidual> residuals() const override;
    void restoreResidual(std::size_t block,
                         std::span<const float> values) override;

    double keepFraction() const { return keep_fraction_; }

  private:
    std::vector<float> &residualFor(std::size_t block,
                                    std::size_t block_width);
    std::size_t keepCount(std::size_t width) const;

    double keep_fraction_;
    std::unordered_map<std::size_t, std::vector<float>> residual_;
};

/** Factory by name ("identity" | "onebit" | "topk"). */
std::unique_ptr<Codec> makeCodec(const std::string &name);

} // namespace compress
} // namespace rog

#endif // ROG_COMPRESS_CODEC_HPP
