/**
 * @file
 * Microbenchmarks (google-benchmark) of the library's hot paths: the
 * per-iteration costs a real deployment would pay on-device — matmul,
 * one-bit compression, importance ranking, fluid-channel simulation,
 * and trace generation.
 */
#include <benchmark/benchmark.h>

#include <string>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "compress/packbits.hpp"
#include "core/importance.hpp"
#include "net/channel.hpp"
#include "net/trace_generator.hpp"
#include "oracles/ops_oracles.hpp"
#include "sim/process.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace rog;

/**
 * GEMM benchmark harness. Three rungs, one binary run per ROG_THREADS
 * value: "Scalar" is the seed's reference kernel (tensor::ref, default
 * flags), "Blocked" is the PR-2 autovectorized register-tiled kernel
 * (tensor::blocked, -march=native), and the plain variants are the
 * packed-panel microkernel engine behind tensor::matmul — whatever
 * tier the runtime dispatch picked (see BM_MatmulTier below for the
 * active tier's name in the counters). All three fan out across the
 * pool when ROG_THREADS > 1.
 */
template <void (*Gemm)(const tensor::Tensor &, const tensor::Tensor &,
                       tensor::Tensor &)>
void
gemmBench(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    tensor::Tensor a(n, n), b(n, n), out(n, n);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);
    for (auto _ : state) {
        Gemm(a, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}

void
BM_MatmulScalar(benchmark::State &state)
{
    gemmBench<tensor::ref::matmul>(state);
}
BENCHMARK(BM_MatmulScalar)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulBlocked(benchmark::State &state)
{
    gemmBench<tensor::blocked::matmul>(state);
}
BENCHMARK(BM_MatmulBlocked)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void
BM_Matmul(benchmark::State &state)
{
    gemmBench<tensor::matmul>(state);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulTransAScalar(benchmark::State &state)
{
    gemmBench<tensor::ref::matmulTransA>(state);
}
BENCHMARK(BM_MatmulTransAScalar)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulTransABlocked(benchmark::State &state)
{
    gemmBench<tensor::blocked::matmulTransA>(state);
}
BENCHMARK(BM_MatmulTransABlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulTransA(benchmark::State &state)
{
    gemmBench<tensor::matmulTransA>(state);
}
BENCHMARK(BM_MatmulTransA)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulTransBScalar(benchmark::State &state)
{
    gemmBench<tensor::ref::matmulTransB>(state);
}
BENCHMARK(BM_MatmulTransBScalar)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulTransBBlocked(benchmark::State &state)
{
    gemmBench<tensor::blocked::matmulTransB>(state);
}
BENCHMARK(BM_MatmulTransBBlocked)->Arg(64)->Arg(128)->Arg(256);

void
BM_MatmulTransB(benchmark::State &state)
{
    gemmBench<tensor::matmulTransB>(state);
}
BENCHMARK(BM_MatmulTransB)->Arg(64)->Arg(128)->Arg(256);

/**
 * Tag the run with the dispatched GEMM tier so BENCH_micro.json
 * records which microkernel produced the BM_Matmul numbers (mirrors
 * how bench_wire tags the CRC32C tier).
 */
void
BM_MatmulTier(benchmark::State &state)
{
    Rng rng(1);
    tensor::Tensor a(64, 64), b(64, 64), out(64, 64);
    a.randomNormal(rng, 1.0f);
    b.randomNormal(rng, 1.0f);
    for (auto _ : state) {
        tensor::matmul(a, b, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel(std::string(tensor::matmulActiveTier()) + "/" +
                   tensor::matmulIsa());
}
BENCHMARK(BM_MatmulTier);

void
BM_Axpy(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    tensor::Tensor x(1, n), y(1, n);
    x.randomNormal(rng, 1.0f);
    y.randomNormal(rng, 1.0f);
    for (auto _ : state) {
        tensor::axpy(0.5f, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Axpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void
BM_MeanAbs(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    tensor::Tensor x(1, n);
    x.randomNormal(rng, 1.0f);
    const std::span<const float> v(x.data(), n);
    for (auto _ : state) {
        float m = tensor::meanAbs(v);
        benchmark::DoNotOptimize(m);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MeanAbs)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void
BM_SoftmaxRows(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    tensor::Tensor x(n, 64);
    x.randomNormal(rng, 1.0f);
    for (auto _ : state) {
        tensor::softmaxRows(x);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations() * n * 64);
}
BENCHMARK(BM_SoftmaxRows)->Arg(64)->Arg(512);

void
BM_OneBitTranscode(benchmark::State &state)
{
    const auto width = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    compress::OneBitCodec codec;
    std::vector<float> in(width), out(width);
    for (auto &v : in)
        v = static_cast<float>(rng.gaussian());
    for (auto _ : state) {
        codec.transcodeRow(0, in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() * width * 4);
}
BENCHMARK(BM_OneBitTranscode)->Arg(64)->Arg(512)->Arg(4096);

/**
 * Wire-path kernels (full tier matrix in bench_wire.cpp; these entries
 * keep the headline comparisons in BENCH_micro.json): dispatched vs
 * reference CRC32C, word-wide vs reference packbits, and the fused
 * one-bit kernel vs the seed's separate passes.
 */
template <std::uint32_t (*Crc)(std::span<const std::uint8_t>,
                               std::uint32_t)>
void
crcBench(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(21);
    std::vector<std::uint8_t> data(n);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state) {
        std::uint32_t c = Crc(data, 0);
        benchmark::DoNotOptimize(c);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_Crc32cRef(benchmark::State &state)
{
    crcBench<crc32cRef>(state);
}
BENCHMARK(BM_Crc32cRef)->Arg(4096)->Arg(65536);

void
BM_Crc32c(benchmark::State &state)
{
    crcBench<crc32c>(state);
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

template <void (*Pack)(std::span<const float>, std::span<std::uint8_t>)>
void
packBench(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(22);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian());
    std::vector<std::uint8_t> packed(compress::packedBytes(n));
    for (auto _ : state) {
        Pack(v, packed);
        benchmark::DoNotOptimize(packed.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_PackSignsRef(benchmark::State &state)
{
    packBench<compress::packSignsRef>(state);
}
BENCHMARK(BM_PackSignsRef)->Arg(4096)->Arg(65536);

void
BM_PackSigns(benchmark::State &state)
{
    packBench<compress::packSigns>(state);
}
BENCHMARK(BM_PackSigns)->Arg(4096)->Arg(65536);

template <compress::OneBitChunkStats (*Kernel)(
    std::span<float>, std::span<const float>, std::span<float>,
    std::span<std::uint8_t>)>
void
onebitKernelBench(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(23);
    std::vector<float> grad(n), residual(n, 0.0f), out(n);
    for (auto &x : grad)
        x = static_cast<float>(rng.gaussian());
    std::vector<std::uint8_t> packed(compress::packedBytes(n));
    for (auto _ : state) {
        auto stats = Kernel(residual, grad, out, packed);
        benchmark::DoNotOptimize(stats.scale);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * 4);
}

void
BM_OneBitSeparate(benchmark::State &state)
{
    onebitKernelBench<compress::onebitTranscodeRef>(state);
}
BENCHMARK(BM_OneBitSeparate)->Arg(512)->Arg(4096);

void
BM_OneBitFused(benchmark::State &state)
{
    onebitKernelBench<compress::onebitTranscodeFused>(state);
}
BENCHMARK(BM_OneBitFused)->Arg(512)->Arg(4096);

void
BM_ImportanceRanking(benchmark::State &state)
{
    const auto units = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    std::vector<double> mags(units);
    std::vector<std::int64_t> iters(units);
    for (std::size_t i = 0; i < units; ++i) {
        mags[i] = rng.uniform();
        iters[i] = static_cast<std::int64_t>(rng.uniformInt(10));
    }
    core::ImportanceConfig cfg;
    for (auto _ : state) {
        auto order = core::rankUnits(core::ImportanceMode::Worker, cfg,
                                     mags, iters, rng);
        benchmark::DoNotOptimize(order.data());
    }
    state.SetItemsProcessed(state.iterations() * units);
}
BENCHMARK(BM_ImportanceRanking)->Arg(344)->Arg(4096)->Arg(32768);

void
BM_ChannelTransfers(benchmark::State &state)
{
    // Cost of simulating a batch of sequential transfers over a
    // fluctuating trace (events + fluid updates).
    const auto transfers = static_cast<std::size_t>(state.range(0));
    const auto trace =
        net::generateTrace(net::TraceModel::outdoor(50e3), 300.0, 4);
    for (auto _ : state) {
        sim::Simulation sim;
        net::Channel ch(sim, {trace});
        for (std::size_t i = 0; i < transfers; ++i)
            ch.startTransfer(0, 5000.0, net::Channel::kNoTimeout,
                             [](net::TransferResult) {});
        sim.run();
        benchmark::DoNotOptimize(ch.totalBytesDelivered());
    }
    state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_ChannelTransfers)->Arg(16)->Arg(128);

void
BM_TraceGeneration(benchmark::State &state)
{
    const double seconds = static_cast<double>(state.range(0));
    std::uint64_t seed = 0;
    for (auto _ : state) {
        auto t = net::generateTrace(net::TraceModel::outdoor(50e3),
                                    seconds, ++seed);
        benchmark::DoNotOptimize(t.samples().data());
    }
}
BENCHMARK(BM_TraceGeneration)->Arg(60)->Arg(300);

} // namespace
