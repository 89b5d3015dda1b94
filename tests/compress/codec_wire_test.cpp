/**
 * @file
 * The codecs' wire bytes: for every codec, width 1..67, random chunk
 * splits of a block, all-zero and mixed-sign rows, decode(encode(g))
 * equals transcode's reconstruction bit for bit (-0.0f included), and
 * the byte count is exactly payloadBytes. Also: decode rejects wrong
 * lengths and malformed top-k payloads, and a restored residual
 * continues the error-feedback stream bit for bit.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "compress/codec.hpp"

namespace rog {
namespace compress {
namespace {

const char *const kCodecs[] = {"identity", "onebit", "topk"};

/** Representation equality: -0.0f != 0.0f, NaN payloads compared. */
void
expectBitwiseEq(std::span<const float> got, std::span<const float> want,
                const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        std::uint32_t g = 0;
        std::uint32_t w = 0;
        std::memcpy(&g, &got[i], 4);
        std::memcpy(&w, &want[i], 4);
        ASSERT_EQ(g, w) << what << " diverges at " << i;
    }
}

/** Random split of [0, width) into chunk lengths. */
std::vector<std::size_t>
randomSplit(Rng &rng, std::size_t width)
{
    std::vector<std::size_t> lens;
    std::size_t left = width;
    while (left > 0) {
        const std::size_t n = 1 + rng.uniformInt(left);
        lens.push_back(n);
        left -= n;
    }
    return lens;
}

enum class RowKind { Zero, Mixed, NegativeZero };

std::vector<float>
makeRow(Rng &rng, std::size_t width, RowKind kind)
{
    std::vector<float> g(width, 0.0f);
    for (float &v : g) {
        switch (kind) {
        case RowKind::Zero:
            v = 0.0f;
            break;
        case RowKind::NegativeZero:
            v = rng.uniformInt(2) ? -0.0f : 0.0f;
            break;
        case RowKind::Mixed:
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
            break;
        }
    }
    return g;
}

TEST(CodecWire, DecodeOfEncodeIsTranscodeBitForBit)
{
    Rng rng(2024);
    for (const char *name : kCodecs) {
        for (std::size_t width = 1; width <= 67; ++width) {
            // Two codecs fed the same stream: one encodes, the twin
            // transcodes. Three rounds per width so the residual is
            // live for the later ones.
            auto enc = makeCodec(name);
            auto twin = makeCodec(name);
            for (int round = 0; round < 3; ++round) {
                const RowKind kind = round == 0   ? RowKind::Zero
                                     : round == 1 ? RowKind::NegativeZero
                                                  : RowKind::Mixed;
                const std::vector<float> g = makeRow(rng, width, kind);
                std::size_t off = 0;
                for (const std::size_t n : randomSplit(rng, width)) {
                    const std::span<const float> chunk(g.data() + off, n);
                    std::vector<float> out(n);
                    std::vector<float> want(n);
                    std::vector<std::uint8_t> wire(enc->wireBytes(n));
                    const Result r =
                        enc->encode(5, width, off, chunk, out, wire);
                    twin->transcode(5, width, off, chunk, want);
                    const std::string what =
                        std::string(name) + " width " +
                        std::to_string(width) + " round " +
                        std::to_string(round) + " off " +
                        std::to_string(off);
                    ASSERT_TRUE(r.ok()) << what;
                    EXPECT_EQ(r.bytes_in, 4 * n) << what;
                    EXPECT_EQ(r.bytes_out, wire.size()) << what;
                    EXPECT_EQ(static_cast<double>(wire.size()),
                              enc->payloadBytes(n))
                        << what;
                    expectBitwiseEq(out, want, what + " (encode out)");

                    std::vector<float> got(n, 1.0f);
                    const Result d = enc->decode(wire, got);
                    ASSERT_TRUE(d.ok()) << what;
                    EXPECT_EQ(d.bytes_in, wire.size()) << what;
                    EXPECT_EQ(d.bytes_out, 4 * n) << what;
                    expectBitwiseEq(got, want, what + " (decode)");
                    off += n;
                }
            }
        }
    }
}

TEST(CodecWire, OneBitWireIsScaleThenPackedSigns)
{
    OneBitCodec codec;
    const std::vector<float> g = {1.0f, -3.0f, 2.0f, -2.0f,
                                  0.5f, 0.5f,  -1.0f, 4.0f, -0.5f};
    std::vector<float> out(g.size());
    std::vector<std::uint8_t> wire(codec.wireBytes(g.size()));
    ASSERT_EQ(wire.size(), 4u + 2u);
    codec.encode(0, g.size(), 0, g, out, wire);
    float scale = 0.0f;
    std::memcpy(&scale, wire.data(), 4); // little-endian host.
    EXPECT_EQ(scale, out[0]);
    // Bit i of the packed bytes = (value i >= 0).
    EXPECT_EQ(wire[4], 0b10110101);
    EXPECT_EQ(wire[5], 0b0);
}

TEST(CodecWire, DecodeRejectsWrongLengthBeforeWriting)
{
    for (const char *name : kCodecs) {
        auto codec = makeCodec(name);
        const std::vector<float> g = {0.5f, -1.0f, 2.0f, 0.25f,
                                      -4.0f, 1.0f, 3.0f};
        std::vector<float> out(g.size());
        std::vector<std::uint8_t> wire(codec->wireBytes(g.size()));
        codec->encode(1, g.size(), 0, g, out, wire);
        for (const std::size_t len : {wire.size() - 1, wire.size() + 1,
                                      std::size_t{0}}) {
            std::vector<std::uint8_t> bad = wire;
            bad.resize(len, 0xAB);
            std::vector<float> sink(g.size(), 7.0f);
            const Result r = codec->decode(bad, sink);
            EXPECT_EQ(r.error, kBadLength) << name << " len " << len;
            EXPECT_EQ(r.bytes_out, 0u) << name;
            for (float v : sink)
                EXPECT_EQ(v, 7.0f) << name << " wrote before failing";
        }
    }
}

TEST(CodecWire, TopKRejectsForeignIndices)
{
    TopKCodec codec(0.5);
    const std::vector<float> g = {1.0f, -8.0f, 0.5f, 6.0f};
    std::vector<float> out(g.size());
    std::vector<std::uint8_t> wire(codec.wireBytes(g.size()));
    ASSERT_EQ(wire.size(), 16u); // two (index, value) pairs.
    codec.encode(0, g.size(), 0, g, out, wire);
    std::vector<float> got(g.size());
    ASSERT_TRUE(codec.decode(wire, got).ok());

    // Index out of range.
    std::vector<std::uint8_t> bad = wire;
    bad[8] = 4;
    EXPECT_EQ(codec.decode(bad, got).error, kBadPayload);
    // A repeated index (not strictly ascending).
    bad = wire;
    std::memcpy(bad.data() + 8, bad.data(), 4);
    EXPECT_EQ(codec.decode(bad, got).error, kBadPayload);
}

TEST(CodecWire, RestoredResidualContinuesTheStream)
{
    for (const char *name : {"onebit", "topk"}) {
        Rng rng(9);
        auto a = makeCodec(name);
        std::vector<float> g(13);
        std::vector<float> out(13);
        for (int step = 0; step < 4; ++step) {
            for (float &v : g)
                v = static_cast<float>(rng.gaussian(0.0, 1.0));
            a->transcodeRow(3, g, out);
            a->transcodeRow(8, g, out);
        }
        const std::vector<BlockResidual> saved = a->residuals();
        ASSERT_EQ(saved.size(), 2u) << name;
        EXPECT_EQ(saved[0].block, 3u);
        EXPECT_EQ(saved[1].block, 8u);

        auto b = makeCodec(name);
        for (const BlockResidual &r : saved)
            b->restoreResidual(r.block, r.values);
        for (float &v : g)
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
        std::vector<float> want(13);
        a->transcodeRow(8, g, want);
        b->transcodeRow(8, g, out);
        expectBitwiseEq(out, want, name);
    }
}

TEST(CodecWire, IdentityKeepsNoResidual)
{
    IdentityCodec codec;
    EXPECT_TRUE(codec.residuals().empty());
    const std::vector<float> r = {1.0f};
    EXPECT_THROW(codec.restoreResidual(0, r), std::runtime_error);
}

} // namespace
} // namespace compress
} // namespace rog
