/**
 * @file
 * Layer replays (see replay.hpp). Inputs are generated from fixed
 * seeds so a replay does the same arithmetic on every run.
 */
#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "core/flat_model.hpp"
#include "core/importance.hpp"
#include "core/row_partition.hpp"
#include "core/server_shard.hpp"
#include "net/transport/frame.hpp"
#include "nn/loss.hpp"
#include "perfbench.hpp"
#include "sim/event_queue.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace rog;

namespace {

/** Span time summed under @p name since this probe was made: a
 *  difference, so a replay's total excludes earlier spans. */
class BusyProbe
{
  public:
    explicit BusyProbe(const char *name)
        : name_(name), before_(tracer().totals(name).busy_s)
    {
    }
    double busy() const { return tracer().totals(name_).busy_s - before_; }

  private:
    const char *name_;
    double before_;
};

void
fill(std::span<float> v, Rng &rng)
{
    for (float &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
}

constexpr int kReplayLane = 9;

} // namespace

std::vector<DenseLayer>
denseLayers(core::Workload &workload)
{
    std::unique_ptr<nn::Model> model = workload.buildReplica();
    std::vector<DenseLayer> out;
    for (nn::Parameter *p : model->parameters())
        if (p->value.rows() > 1 && p->name.find("weight") != std::string::npos)
            out.push_back(DenseLayer{p->value.rows(), p->value.cols()});
    return out;
}

std::vector<std::size_t>
rowUnitWidths(core::Workload &workload)
{
    std::unique_ptr<nn::Model> model = workload.buildReplica();
    core::FlatModel flat(*model);
    core::RowPartition partition(flat, core::Granularity::Row);
    std::vector<std::size_t> widths;
    for (const core::Unit &u : partition.units())
        widths.push_back(u.width);
    return widths;
}

ReplayResult
replayMatmul(const std::vector<DenseLayer> &layers, std::size_t batch,
             std::size_t iters)
{
    struct Bufs
    {
        tensor::Tensor x, w, y, dw, dx;
    };
    Rng rng(0x6E6D);
    std::vector<Bufs> bufs;
    double flops = 0.0;
    for (const DenseLayer &l : layers) {
        Bufs b{tensor::Tensor(batch, l.in), tensor::Tensor(l.in, l.out),
               tensor::Tensor(batch, l.out), tensor::Tensor(l.in, l.out),
               tensor::Tensor(batch, l.in)};
        fill({b.x.data(), b.x.size()}, rng);
        fill({b.w.data(), b.w.size()}, rng);
        bufs.push_back(std::move(b));
        flops += 3.0 * 2.0 * static_cast<double>(batch * l.in * l.out);
    }
    BusyProbe probe("tensor.matmul");
    for (std::size_t it = 0; it < iters; ++it)
        for (Bufs &b : bufs) {
            {
                Span s("tensor.matmul", "tensor", kReplayLane);
                tensor::matmul(b.x, b.w, b.y);
            }
            {
                Span s("tensor.matmul", "tensor", kReplayLane);
                tensor::matmulTransA(b.x, b.y, b.dw);
            }
            {
                Span s("tensor.matmul", "tensor", kReplayLane);
                tensor::matmulTransB(b.y, b.w, b.dx);
            }
        }
    return ReplayResult{probe.busy(), flops * static_cast<double>(iters), 0.0};
}

ReplayResult
replayForwardBackward(core::Workload &workload, std::size_t iters)
{
    std::unique_ptr<nn::Model> model = workload.buildReplica();
    data::BatchSampler sampler = workload.makeSampler(0);
    const std::size_t batch = workload.batchSize();
    BusyProbe probe("nn.fwd_bwd");
    for (std::size_t it = 0; it < iters; ++it) {
        const data::Batch b = sampler.sample(batch);
        Span s("nn.fwd_bwd", "nn", kReplayLane);
        model->zeroGrad();
        const tensor::Tensor &logits = model->forward(b.features);
        const nn::LossResult loss = nn::softmaxCrossEntropy(logits, b.labels);
        model->backward(loss.grad);
    }
    return ReplayResult{probe.busy(), static_cast<double>(iters), 0.0};
}

ReplayResult
replayTranscode(const std::vector<std::size_t> &widths, double units_per_iter,
                std::size_t iters)
{
    compress::OneBitCodec codec;
    const std::size_t max_w = *std::max_element(widths.begin(), widths.end());
    std::vector<float> grad(max_w), out(max_w);
    Rng rng(0xC0DEC);
    fill(grad, rng);
    for (std::size_t u = 0; u < widths.size(); ++u)
        codec.prepare(u, widths[u]);

    const auto total = static_cast<std::size_t>(
        std::llround(units_per_iter * static_cast<double>(iters)));
    double bytes_in = 0.0, bytes_out = 0.0;
    BusyProbe probe("compress.transcode");
    for (std::size_t i = 0; i < total; ++i) {
        const std::size_t u = i % widths.size();
        const std::size_t w = widths[u];
        {
            Span s("compress.transcode", "compress", kReplayLane);
            codec.transcodeRow(u, std::span<const float>(grad.data(), w),
                               std::span<float>(out.data(), w));
        }
        bytes_in += 4.0 * static_cast<double>(w);
        bytes_out += codec.payloadBytes(w);
    }
    return ReplayResult{probe.busy(), bytes_in, bytes_out};
}

ReplayResult
replayRank(std::size_t units, std::size_t iters)
{
    Rng data_rng(0x4A4E4B);
    std::vector<double> mags(units);
    std::vector<std::int64_t> versions(units);
    Rng rng(7);
    const core::ImportanceConfig cfg{};
    BusyProbe probe("core.importance.rank");
    for (std::size_t it = 0; it < iters; ++it) {
        for (std::size_t u = 0; u < units; ++u) {
            mags[u] = data_rng.uniform(0.0, 1.0);
            versions[u] = static_cast<std::int64_t>(it) -
                          static_cast<std::int64_t>(data_rng.next() % 8);
        }
        Span s("core.importance.rank", "core", kReplayLane);
        const auto order = core::rankUnits(core::ImportanceMode::Worker, cfg,
                                           mags, versions, rng);
        if (order.size() != units)
            throw std::runtime_error("rankUnits returned a short order");
    }
    return ReplayResult{probe.busy(), static_cast<double>(iters), 0.0};
}

ServerReplay
replayServer(std::size_t workers, const std::vector<std::size_t> &widths,
             std::size_t shards, double pushes_per_iter, double pulls_per_iter,
             std::size_t iters)
{
    core::ShardedServer server(workers, widths, shards);
    const std::size_t max_w = *std::max_element(widths.begin(), widths.end());
    std::vector<float> grad(max_w);
    Rng rng(0x5E4);
    fill(grad, rng);

    const auto pushes = static_cast<std::size_t>(
        std::llround(pushes_per_iter * static_cast<double>(iters)));
    const auto pulls = static_cast<std::size_t>(
        std::llround(pulls_per_iter * static_cast<double>(iters)));
    const std::size_t units = widths.size();

    ServerReplay r;
    BusyProbe acc("core.server.accumulate");
    for (std::size_t i = 0; i < pushes; ++i) {
        const std::size_t u = i % units;
        Span s("core.server.accumulate", "core", kReplayLane);
        server.accumulate(u, std::span<const float>(grad.data(), widths[u]));
    }
    r.accumulate = ReplayResult{acc.busy(), static_cast<double>(pushes), 0.0};

    volatile double sink = 0.0; // keeps the pending reads observable.
    BusyProbe pull("core.server.pull");
    for (std::size_t i = 0; i < pulls; ++i) {
        const std::size_t u = i % units;
        const std::size_t w = (i / units) % workers;
        Span s("core.server.pull", "core", kReplayLane);
        if (server.hasPending(w, u)) {
            sink = sink + server.pending(w, u)[0];
            server.clearPending(w, u);
        }
    }
    r.pull = ReplayResult{pull.busy(), static_cast<double>(pulls), 0.0};
    return r;
}

ReplayResult
replayEventQueue(std::uint64_t events, std::size_t depth)
{
    sim::EventQueue q;
    std::uint64_t fired = 0;
    std::uint64_t h = 0x1234567;
    const auto next_delay = [&h] {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        return 1e-6 + static_cast<double>(h >> 40) * 1e-9;
    };
    for (std::size_t i = 0; i < depth; ++i)
        q.schedule(q.now() + next_delay(), [&fired] { ++fired; });
    BusyProbe probe("sim.event_queue");
    {
        Span s("sim.event_queue", "sim", kReplayLane);
        for (std::uint64_t i = 0; i < events; ++i) {
            q.step();
            q.schedule(q.now() + next_delay(), [&fired] { ++fired; });
        }
    }
    if (fired != events)
        throw std::runtime_error("event queue replay lost events");
    return ReplayResult{probe.busy(), static_cast<double>(events), 0.0};
}

ReplayResult
replayFrames(std::uint64_t frames, std::size_t payload_bytes)
{
    using net::transport::FrameHeader;
    std::vector<std::uint8_t> wire(FrameHeader::kWireSize + payload_bytes);
    Rng rng(0xF4A3E);
    for (auto &b : wire)
        b = static_cast<std::uint8_t>(rng.next());
    const std::span<const std::uint8_t> payload(
        wire.data() + FrameHeader::kWireSize, payload_bytes);

    std::uint64_t parsed = 0;
    BusyProbe probe("net.transport.frame");
    for (std::uint64_t i = 0; i < frames; ++i) {
        Span s("net.transport.frame", "net", kReplayLane);
        FrameHeader h;
        h.row = static_cast<std::uint32_t>(i);
        h.payload_len = static_cast<std::uint32_t>(payload_bytes);
        h.payload_crc = crc32c(payload);
        h.serialize(std::span<std::uint8_t>(wire.data(),
                                            FrameHeader::kWireSize));
        const auto back = FrameHeader::parse(wire);
        if (back && crc32c(payload) == back->payload_crc)
            ++parsed;
    }
    if (parsed != frames)
        throw std::runtime_error("frame replay failed to round-trip");
    return ReplayResult{probe.busy(),
                        static_cast<double>(frames * wire.size()), 0.0};
}

} // namespace perfbench
