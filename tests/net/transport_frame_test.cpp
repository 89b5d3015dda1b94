/**
 * @file
 * Unit tests for the transport wire format: CRC32C check values,
 * header serialize/parse round-trips, and rejection of short, garbled,
 * or wrong-magic buffers (a corrupted header must parse as nothing,
 * never as a different frame).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/crc32c.hpp"
#include "net/transport/frame.hpp"

namespace rog {
namespace net {
namespace transport {
namespace {

std::vector<std::uint8_t>
bytes(const char *s)
{
    return {reinterpret_cast<const std::uint8_t *>(s),
            reinterpret_cast<const std::uint8_t *>(s) + std::strlen(s)};
}

TEST(Crc32cTest, StandardCheckValue)
{
    // The canonical CRC32C check vector.
    EXPECT_EQ(crc32c(bytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyAndSeedContinuation)
{
    EXPECT_EQ(crc32c({}), 0u);
    // Checksumming in pieces equals checksumming at once.
    const auto all = bytes("hello, gradient row");
    const auto head = bytes("hello, ");
    const auto tail = bytes("gradient row");
    EXPECT_EQ(crc32c(tail, crc32c(head)), crc32c(all));
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum)
{
    auto data = bytes("the quick brown fox");
    const auto before = crc32c(data);
    data[7] ^= 0x01;
    EXPECT_NE(crc32c(data), before);
}

FrameHeader
sampleHeader()
{
    FrameHeader h;
    h.flags = kFlagPull;
    h.worker = 7;
    h.version = -3;
    h.row = 123456;
    h.chunk_seq = 4;
    h.chunk_count = 9;
    h.payload_off = (1ull << 33) + 17;
    h.payload_len = 0xDEADBEEFu;
    h.payload_crc = 0xCAFEBABEu;
    return h;
}

TEST(FrameTest, SerializeParseRoundTrip)
{
    const FrameHeader h = sampleHeader();
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize);
    h.serialize(wire);

    const auto parsed = FrameHeader::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->flags, h.flags);
    EXPECT_TRUE(parsed->pull());
    EXPECT_EQ(parsed->worker, h.worker);
    EXPECT_EQ(parsed->version, h.version);
    EXPECT_EQ(parsed->row, h.row);
    EXPECT_EQ(parsed->chunk_seq, h.chunk_seq);
    EXPECT_EQ(parsed->chunk_count, h.chunk_count);
    EXPECT_EQ(parsed->payload_off, h.payload_off);
    EXPECT_EQ(parsed->payload_len, h.payload_len);
    EXPECT_EQ(parsed->payload_crc, h.payload_crc);
}

TEST(FrameTest, DefaultHeaderRoundTrips)
{
    const FrameHeader h; // all defaults (push direction).
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize);
    h.serialize(wire);
    const auto parsed = FrameHeader::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->pull());
    EXPECT_EQ(parsed->chunk_count, 1u);
}

TEST(FrameTest, ShortBufferRejected)
{
    const FrameHeader h = sampleHeader();
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize);
    h.serialize(wire);
    for (std::size_t n = 0; n < FrameHeader::kWireSize; ++n) {
        const auto parsed = FrameHeader::parse(
            std::span<const std::uint8_t>(wire.data(), n));
        EXPECT_FALSE(parsed.has_value()) << "length " << n;
    }
}

TEST(FrameTest, WrongMagicRejected)
{
    const FrameHeader h = sampleHeader();
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize);
    h.serialize(wire);
    wire[0] ^= 0xFF;
    EXPECT_FALSE(FrameHeader::parse(wire).has_value());
}

TEST(FrameTest, AnySingleByteCorruptionRejected)
{
    // Flip each header byte in turn; the header CRC must catch every
    // one (line noise never parses as a different valid frame).
    const FrameHeader h = sampleHeader();
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize);
    h.serialize(wire);
    for (std::size_t i = 0; i < FrameHeader::kWireSize; ++i) {
        auto garbled = wire;
        garbled[i] ^= 0x01;
        EXPECT_FALSE(FrameHeader::parse(garbled).has_value())
            << "byte " << i;
    }
}

TEST(FrameTest, TrailingPayloadBytesIgnoredByParse)
{
    // parse() reads exactly the header prefix of a frame buffer.
    const FrameHeader h = sampleHeader();
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize + 64, 0xAB);
    h.serialize(std::span<std::uint8_t>(wire.data(),
                                        FrameHeader::kWireSize));
    const auto parsed = FrameHeader::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->row, h.row);
}

} // namespace
} // namespace transport
} // namespace net
} // namespace rog
