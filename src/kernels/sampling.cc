#include "kernels/sampling.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"

namespace ls2::kern {

namespace {

simgpu::KernelDesc desc(std::string name, int64_t br, int64_t bw, double flops, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = br;
  d.bytes_written = bw;
  d.flops = flops;
  d.mem_efficiency = eff;
  return d;
}

template <typename T>
void argmax_body(const Tensor& logits, const Tensor& out) {
  const Shape flat = logits.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  const T* lp = logits.data<T>();
  int32_t* op = out.data<int32_t>();
  parallel_for(0, rows, cols, [&](int64_t r) {
    const T* row = lp + r * cols;
    int64_t best = 0;
    float best_v = static_cast<float>(row[0]);
    for (int64_t j = 1; j < cols; ++j) {
      const float v = static_cast<float>(row[j]);
      if (v > best_v) {
        best_v = v;
        best = j;
      }
    }
    op[r] = static_cast<int32_t>(best);
  });
}

template <typename T>
void sample_body(const Tensor& logits, const Tensor& out, int64_t k, float temperature,
                 const Rng& rng, uint64_t stream) {
  const Shape flat = logits.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  const T* lp = logits.data<T>();
  int32_t* op = out.data<int32_t>();
  const float inv_t = 1.0f / temperature;
  parallel_for(0, rows, cols, [&](int64_t r) {
    const T* row = lp + r * cols;
    // Top-k threshold: the k-th largest logit (keep everything >= it).
    float threshold = -std::numeric_limits<float>::infinity();
    if (k > 0 && k < cols) {
      std::vector<float> vals(static_cast<size_t>(cols));
      for (int64_t j = 0; j < cols; ++j) vals[static_cast<size_t>(j)] = static_cast<float>(row[j]);
      std::nth_element(vals.begin(), vals.begin() + (k - 1), vals.end(),
                       std::greater<float>());
      threshold = vals[static_cast<size_t>(k - 1)];
    }
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < cols; ++j) {
      const float v = static_cast<float>(row[j]);
      if (v >= threshold) mx = std::max(mx, v);
    }
    double z = 0;
    for (int64_t j = 0; j < cols; ++j) {
      const float v = static_cast<float>(row[j]);
      if (v >= threshold) z += std::exp((v - mx) * inv_t);
    }
    // Inverse CDF in the kept set; the final kept index absorbs rounding.
    const double u = static_cast<double>(rng.uniform(stream, static_cast<uint64_t>(r))) * z;
    double acc = 0;
    int64_t chosen = -1;
    for (int64_t j = 0; j < cols; ++j) {
      const float v = static_cast<float>(row[j]);
      if (v < threshold) continue;
      acc += std::exp((v - mx) * inv_t);
      chosen = j;
      if (acc > u) break;
    }
    op[r] = static_cast<int32_t>(chosen);
  });
}

}  // namespace

void argmax_rows(KernelContext& kc, Impl impl, const Tensor& logits, const Tensor& out) {
  const Shape flat = logits.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  LS2_CHECK(out.dtype() == DType::kI32);
  LS2_CHECK_EQ(out.numel(), rows);
  const double eff = reduction_efficiency(impl == Impl::kLS2 ? 0.85 : 0.65, rows, cols, 32,
                                          kc.dev.profile().resident_threads);
  const std::string sys = impl == Impl::kLS2 ? "ls2" : impl_name(impl);
  kc.dev.launch(desc(sys + ".argmax", static_cast<int64_t>(logits.bytes()), rows * 4,
                     static_cast<double>(rows) * cols, eff),
                [&] { LS2_DISPATCH_FLOAT(logits.dtype(), T, argmax_body<T>(logits, out)); });
}

void sample_topk(KernelContext& kc, Impl impl, const Tensor& logits, const Tensor& out,
                 int64_t k, float temperature, uint64_t stream) {
  const Shape flat = logits.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  LS2_CHECK(out.dtype() == DType::kI32);
  LS2_CHECK_EQ(out.numel(), rows);
  LS2_CHECK(temperature > 0.0f) << "sampling temperature must be positive";
  const int64_t lb = static_cast<int64_t>(logits.bytes());
  const double flops = static_cast<double>(rows) * cols * 4.0;
  if (impl == Impl::kLS2) {
    const double eff =
        reduction_efficiency(0.82, rows, cols, 32, kc.dev.profile().resident_threads);
    kc.dev.launch(desc("ls2.sample_topk", lb, rows * 4, flops, eff),
                  [&, k, temperature, stream] {
                    LS2_DISPATCH_FLOAT(logits.dtype(), T,
                                       sample_body<T>(logits, out, k, temperature, kc.rng,
                                                      stream));
                  });
    return;
  }
  // Baselines run a top-k partition pass (full read, writes the kept set)
  // and a separate categorical draw; only the last launch runs the body.
  const std::string sys = impl_name(impl);
  const double eff =
      reduction_efficiency(0.60, rows, cols, 32, kc.dev.profile().resident_threads);
  kc.dev.launch(desc(sys + ".topk", lb, rows * std::max<int64_t>(k, 1) * 8, flops, eff),
                nullptr);
  kc.dev.launch(desc(sys + ".multinomial", lb, rows * 4, flops, eff),
                [&, k, temperature, stream] {
                  LS2_DISPATCH_FLOAT(logits.dtype(), T,
                                     sample_body<T>(logits, out, k, temperature, kc.rng,
                                                    stream));
                });
}

}  // namespace ls2::kern
