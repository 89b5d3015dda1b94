/**
 * @file
 * Test oracles for the GEMM entry points in tensor/ops.hpp. Neither
 * family is linked into a production library: the kernel-equivalence
 * tests compare the hot path against them, and micro_ops_bench reports
 * the packed microkernels' speedup over them.
 */
#ifndef ROG_ORACLES_OPS_ORACLES_HPP
#define ROG_ORACLES_OPS_ORACLES_HPP

#include "tensor/tensor.hpp"

namespace rog {
namespace tensor {

/**
 * Scalar reference kernels: the seed library's original triple-loop
 * implementations (ops_ref.cpp, built with default flags). Baseline
 * for the kernel-equivalence tests and the micro benchmarks.
 */
namespace ref {

void matmul(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransA(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransB(const Tensor &a, const Tensor &b, Tensor &out);

} // namespace ref

/**
 * The earlier blocked/register-tiled autovectorized GEMMs
 * (ops_blocked.cpp, built with -march=native like the old hot path).
 * Baseline the micro benchmarks measure the packed-panel microkernels
 * against.
 */
namespace blocked {

void matmul(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransA(const Tensor &a, const Tensor &b, Tensor &out);
void matmulTransB(const Tensor &a, const Tensor &b, Tensor &out);

} // namespace blocked

} // namespace tensor
} // namespace rog

#endif // ROG_ORACLES_OPS_ORACLES_HPP
