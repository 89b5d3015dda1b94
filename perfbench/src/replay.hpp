/**
 * @file
 * Layer replay: calls each layer's public API with the shapes and
 * call counts a workload run produced, timing every call with a span.
 * A workload run reports what it did (units pushed, events stepped,
 * frames sent); the replay turns that into per-layer busy time, which
 * a whole-run timer cannot split.
 */
#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/workload.hpp"

namespace perfbench {

/** out(m x n) = a(m x k) * b(k x n), and its two backward GEMMs. */
struct DenseLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
};

/** The dense layers (2-D weights) of a workload's model. */
std::vector<DenseLayer> denseLayers(rog::core::Workload &workload);

/** Unit widths of a workload's model at row granularity. */
std::vector<std::size_t> rowUnitWidths(rog::core::Workload &workload);

/** Work one replay covers and what it measured. */
struct ReplayResult
{
    double busy_s = 0.0;   //!< summed span time.
    double work = 0.0;     //!< flops, bytes or calls, per replay.
    double work_out = 0.0; //!< bytes out, for the codec.
};

/** Forward + two backward GEMMs per dense layer, @p iters times. */
ReplayResult replayMatmul(const std::vector<DenseLayer> &layers,
                          std::size_t batch, std::size_t iters);

/** Model forward, loss and backward on real batches. */
ReplayResult replayForwardBackward(rog::core::Workload &workload,
                                   std::size_t iters);

/** One-bit transcode of @p units_per_iter units per iteration, cycling
 *  over the model's units. work = bytes in, work_out = bytes out. */
ReplayResult replayTranscode(const std::vector<std::size_t> &widths,
                             double units_per_iter, std::size_t iters);

/** Worker-side importance ranking over every unit, once per iter. */
ReplayResult replayRank(std::size_t units, std::size_t iters);

/** ShardedServer accumulate (@p pushes_per_iter units per iteration,
 *  round-robin over workers and units) then the matching pulls. */
struct ServerReplay
{
    ReplayResult accumulate;
    ReplayResult pull;
};
ServerReplay replayServer(std::size_t workers,
                          const std::vector<std::size_t> &widths,
                          std::size_t shards, double pushes_per_iter,
                          double pulls_per_iter, std::size_t iters);

/** Schedule-and-step @p events through sim::EventQueue at a pending
 *  depth of @p depth. work = events stepped. */
ReplayResult replayEventQueue(std::uint64_t events, std::size_t depth);

/** Frame header encode + parse + CRC32C of @p frames frames carrying
 *  @p payload_bytes each. work = bytes framed. */
ReplayResult replayFrames(std::uint64_t frames, std::size_t payload_bytes);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
