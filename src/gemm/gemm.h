// Host GEMM — the stand-in for cuBLAS.
//
// The paper deliberately does *not* rewrite GEMM ("we focus on fusing
// non-GEMM kernels and directly use the GEMM implementations from cuBLAS").
// Accordingly every system in this reproduction — LightSeq2 and all
// baselines — calls these same routines, so GEMM time is common-mode in all
// comparisons, exactly as on real hardware.
//
// All matrices are row-major. C = alpha * op(A) @ op(B) + beta * C, with a
// bitwise contract per element of C: start from 0 (beta == 0), C (beta ==
// 1) or beta * C; then for p ascending, av = alpha * A[i,p] is skipped when
// it is zero and otherwise av * B[p,j] is added — one rounded multiply and
// one rounded add per term. Results never depend on the thread count or on
// the instruction set the host GEMM picks (AVX-512, AVX2 or baseline
// x86-64, once per process from the CPU's features). Incremental decode
// relies on this for bitwise parity with a full forward (DESIGN.md §2 "Host
// execution", §6).
#pragma once

#include <cstdint>

#include "tensor/half.h"

namespace ls2::gemm {

/// FP32 GEMM: packed operands, register-tiled, split across the host pool.
void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c);

/// Strided batched FP32 GEMM (cublasSgemmStridedBatched analogue). Batches
/// with disjoint C run in parallel; overlapping C runs them in order.
void sgemm_strided_batched(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                           float alpha, const float* a, int64_t stride_a, const float* b,
                           int64_t stride_b, float beta, float* c, int64_t stride_c,
                           int64_t batch);

/// FP16-storage GEMM with FP32 accumulation (tensor-core discipline): A, B
/// and C are widened exactly, C is rounded to FP16 once at the end.
void hgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
           const Half* a, const Half* b, float beta, Half* c);

void hgemm_strided_batched(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                           float alpha, const Half* a, int64_t stride_a, const Half* b,
                           int64_t stride_b, float beta, Half* c, int64_t stride_c,
                           int64_t batch);

/// Shape-dependent achieved fraction of peak GEMM throughput. Small or
/// skinny matrices under-fill the device; batching restores occupancy.
/// Used by the device cost model, clamped to [0.05, 0.95].
double gemm_utilization(int64_t m, int64_t n, int64_t k, int64_t batch = 1);

namespace detail {

/// Instruction-set variants of the host GEMM. The entry points above use
/// host_isa(); the variants below let tests hold every variant the host can
/// run to the contract.
enum class Isa { kBaseline, kAvx2, kAvx512 };

/// Whether this host can run `isa` (AVX2 and AVX-512F each with F16C).
bool isa_supported(Isa isa);

/// The widest variant this host supports.
Isa host_isa();

/// sgemm/hgemm (T = float/Half) on one variant; `isa` must be supported.
template <typename T>
void gemm(Isa isa, bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const T* a, const T* b, float beta, T* c);

template <typename T>
void gemm_strided_batched(Isa isa, bool trans_a, bool trans_b, int64_t m, int64_t n,
                          int64_t k, float alpha, const T* a, int64_t stride_a, const T* b,
                          int64_t stride_b, float beta, T* c, int64_t stride_c,
                          int64_t batch);

}  // namespace detail

}  // namespace ls2::gemm
