// Real-CPU cross-check (google-benchmark): fused kernels beat the unfused
// composition on actual host wall-clock too, because fusion removes memory
// passes — the same mechanism the device model charges for. Run in execute
// mode with real math. The GEMM and LayerNorm-backward cases measure the
// host execution layer itself (DESIGN.md, "Host execution"). Kernels run on
// the host thread pool, so every case is timed on the wall clock.
#include <benchmark/benchmark.h>

#include <vector>

#include "gemm/gemm.h"
#include "kernels/elementwise.h"
#include "kernels/layernorm.h"
#include "kernels/softmax.h"
#include "simgpu/profile.h"
#include "tensor/random.h"

namespace {

using namespace ls2;

struct Fixture {
  Fixture() : dev(simgpu::v100(), simgpu::ExecMode::kExecute), kc(dev, nullptr, 7) {}
  simgpu::Device dev;
  kern::KernelContext kc;
};

void BM_BiasReluDropout_Fused(benchmark::State& state) {
  Fixture f;
  const int64_t rows = state.range(0), cols = 1024;
  Tensor x = Tensor::zeros({rows, cols}, DType::kF32);
  Tensor bias = Tensor::zeros({cols}, DType::kF32);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  for (auto _ : state) {
    kern::fused::bias_relu_dropout_fw(f.kc, x, bias, y, mask, 0.1f, 1);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetBytesProcessed(state.iterations() * rows * cols * 8);
}
BENCHMARK(BM_BiasReluDropout_Fused)->Arg(256)->Arg(2048)->UseRealTime();

void BM_BiasReluDropout_Unfused(benchmark::State& state) {
  Fixture f;
  const int64_t rows = state.range(0), cols = 1024;
  Tensor x = Tensor::zeros({rows, cols}, DType::kF32);
  Tensor bias = Tensor::zeros({cols}, DType::kF32);
  Tensor t1 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor t2 = Tensor::empty({rows, cols}, DType::kF32);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mask = Tensor::empty({rows, cols}, DType::kU8);
  for (auto _ : state) {
    kern::baseline::add_bias(f.kc, x, bias, t1);
    kern::baseline::relu_fw(f.kc, t1, t2);
    kern::dropout_fw(f.kc, kern::Impl::kTorch, t2, y, mask, 0.1f, 1);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetBytesProcessed(state.iterations() * rows * cols * 8);
}
BENCHMARK(BM_BiasReluDropout_Unfused)->Arg(256)->Arg(2048)->UseRealTime();

void BM_LayerNorm(benchmark::State& state) {
  Fixture f;
  const bool fused = state.range(0) != 0;
  const int64_t rows = 2048, cols = 512;
  Tensor x = Tensor::zeros({rows, cols}, DType::kF32);
  Tensor g = Tensor::zeros({cols}, DType::kF32);
  Tensor b = Tensor::zeros({cols}, DType::kF32);
  Tensor y = Tensor::empty({rows, cols}, DType::kF32);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);
  for (auto _ : state) {
    kern::layernorm_fw(f.kc, fused ? kern::Impl::kLS2 : kern::Impl::kTorch, x, g, b, y,
                       mean, rstd);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_LayerNorm)->Arg(0)->Arg(1)->UseRealTime();  // 0 = torch, 1 = LS2

void BM_Softmax(benchmark::State& state) {
  Fixture f;
  const bool fused = state.range(0) != 0;
  Tensor x = Tensor::zeros({64, 8, 64, 64}, DType::kF32);
  Tensor y = Tensor::empty({64, 8, 64, 64}, DType::kF32);
  for (auto _ : state) {
    kern::attn_softmax_fw(f.kc, fused ? kern::Impl::kLS2 : kern::Impl::kTorch, x, y, true,
                          nullptr);
    benchmark::DoNotOptimize(y.raw());
  }
}
BENCHMARK(BM_Softmax)->Arg(0)->Arg(1)->UseRealTime();

// Host FP16 GEMM throughput on the transformer's shapes. Inputs are seeded
// normals (no zeros), so every term is computed.
std::vector<Half> normal_halves(int64_t n, uint64_t stream) {
  const Rng rng(11);
  std::vector<Half> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = Half(rng.normal(stream, i));
  return v;
}

void set_gflops(benchmark::State& state, double flops) {
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Hgemm(benchmark::State& state, bool trans_a, bool trans_b, int64_t m, int64_t n,
              int64_t k) {
  const auto a = normal_halves(m * k, 1), b = normal_halves(k * n, 2);
  std::vector<Half> c(static_cast<size_t>(m * n));
  for (auto _ : state) {
    gemm::hgemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, 2.0 * m * n * k);
}
// Activations x weights^T (forward projection) and dW = dY^T x (backward).
BENCHMARK_CAPTURE(BM_Hgemm, nt_1024x512x128, false, true, 1024, 512, 128)->UseRealTime();
BENCHMARK_CAPTURE(BM_Hgemm, tn_128x512x1024, true, false, 128, 512, 1024)->UseRealTime();

// Attention scores: one small GEMM per (sequence, head).
void BM_HgemmBatched(benchmark::State& state) {
  const int64_t batch = 96, m = 48, n = 48, k = 32;
  const auto q = normal_halves(batch * m * k, 1), kt = normal_halves(batch * n * k, 2);
  std::vector<Half> s(static_cast<size_t>(batch * m * n));
  for (auto _ : state) {
    gemm::hgemm_strided_batched(false, true, m, n, k, 1.0f, q.data(), m * k, kt.data(), n * k,
                                0.0f, s.data(), m * n, batch);
    benchmark::DoNotOptimize(s.data());
    benchmark::ClobberMemory();
  }
  set_gflops(state, 2.0 * batch * m * n * k);
}
BENCHMARK(BM_HgemmBatched)->UseRealTime();

// LayerNorm backward on a [1024, 128] FP16 activation: a row loop over few,
// short rows (dx) plus the dgamma/dbeta column reduction.
void BM_LayerNormBw(benchmark::State& state) {
  Fixture f;
  const int64_t rows = 1024, cols = 128;
  const Rng rng(5);
  Tensor dy = Tensor::empty({rows, cols}, DType::kF16);
  Tensor x = Tensor::empty({rows, cols}, DType::kF16);
  Tensor gamma = Tensor::empty({cols}, DType::kF16);
  rng.fill_normal(dy, 1, 0.0f, 1.0f);
  rng.fill_normal(x, 2, 0.0f, 1.0f);
  rng.fill_uniform(gamma, 3, 0.5f, 1.5f);
  Tensor beta = Tensor::zeros({cols}, DType::kF16);
  Tensor y = Tensor::empty({rows, cols}, DType::kF16);
  Tensor mean = Tensor::empty({rows}, DType::kF32);
  Tensor rstd = Tensor::empty({rows}, DType::kF32);
  kern::layernorm_fw(f.kc, kern::Impl::kLS2, x, gamma, beta, y, mean, rstd);
  Tensor dx = Tensor::empty({rows, cols}, DType::kF16);
  Tensor dgamma = Tensor::zeros({cols}, DType::kF16);
  Tensor dbeta = Tensor::zeros({cols}, DType::kF16);
  for (auto _ : state) {
    kern::layernorm_bw(f.kc, kern::Impl::kLS2, dy, x, gamma, mean, rstd, dx, dgamma, dbeta,
                       nullptr);
    benchmark::DoNotOptimize(dx.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_LayerNormBw)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
