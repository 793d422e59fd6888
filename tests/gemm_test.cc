#include "gemm/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "gemm/gemm_device.h"
#include "simgpu/profile.h"
#include "tensor/random.h"

namespace ls2::gemm {
namespace {

// Textbook reference for validation.
void ref_gemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha, const float* a,
              const float* b, float beta, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

std::vector<float> random_vec(size_t n, uint64_t stream) {
  Rng rng(1234);
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.normal(stream, i);
  return v;
}

class SgemmTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {};

TEST_P(SgemmTransposeTest, MatchesReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  const auto a = random_vec(static_cast<size_t>(m * k), 1);
  const auto b = random_vec(static_cast<size_t>(k * n), 2);
  std::vector<float> c = random_vec(static_cast<size_t>(m * n), 3);
  std::vector<float> expect = c;
  sgemm(ta, tb, m, n, k, 0.5f, a.data(), b.data(), 0.25f, c.data());
  ref_gemm(ta, tb, m, n, k, 0.5f, a.data(), b.data(), 0.25f, expect.data());
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expect[i], 1e-3f) << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, SgemmTransposeTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 7, 64), ::testing::Values(1, 5, 96),
                       ::testing::Values(1, 13, 130)));

TEST(SgemmTest, BetaZeroIgnoresGarbageInC) {
  const int64_t m = 8, n = 8, k = 8;
  const auto a = random_vec(64, 1);
  const auto b = random_vec(64, 2);
  std::vector<float> c(64, std::nanf(""));
  sgemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (float v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(SgemmTest, StridedBatchedMatchesLoop) {
  const int64_t m = 6, n = 5, k = 4, batch = 3;
  const auto a = random_vec(static_cast<size_t>(batch * m * k), 1);
  const auto b = random_vec(static_cast<size_t>(batch * k * n), 2);
  std::vector<float> c(static_cast<size_t>(batch * m * n), 0.0f);
  std::vector<float> expect = c;
  sgemm_strided_batched(false, false, m, n, k, 1.0f, a.data(), m * k, b.data(), k * n, 0.0f,
                        c.data(), m * n, batch);
  for (int64_t i = 0; i < batch; ++i)
    ref_gemm(false, false, m, n, k, 1.0f, a.data() + i * m * k, b.data() + i * k * n, 0.0f,
             expect.data() + i * m * n);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expect[i], 1e-4f);
}

TEST(HgemmTest, MatchesFloatWithinHalfPrecision) {
  const int64_t m = 16, n = 12, k = 20;
  const auto af = random_vec(static_cast<size_t>(m * k), 1);
  const auto bf = random_vec(static_cast<size_t>(k * n), 2);
  std::vector<Half> a(af.size()), b(bf.size()), c(static_cast<size_t>(m * n));
  convert_float_to_half(af.data(), a.data(), static_cast<int64_t>(af.size()));
  convert_float_to_half(bf.data(), b.data(), static_cast<int64_t>(bf.size()));
  hgemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  std::vector<float> expect(static_cast<size_t>(m * n), 0.0f);
  ref_gemm(false, false, m, n, k, 1.0f, af.data(), bf.data(), 0.0f, expect.data());
  for (size_t i = 0; i < c.size(); ++i) {
    // Inputs are rounded to fp16 and the result is stored to fp16: allow a
    // few fp16 ulps of k-fold accumulation error.
    EXPECT_NEAR(static_cast<float>(c[i]), expect[i], 0.05f) << i;
  }
}

// ---------------------------------------------------------------------------
// Bitwise contract. Every C element is computed as: start from 0 (beta == 0),
// C (beta == 1) or C * beta; then for p ascending, av = alpha * A[i,p] is
// skipped when it is zero and otherwise av * B[p,j] is added, one rounded
// multiply and one rounded add per term. The scalar reference below is that
// contract verbatim; the library must match it byte for byte, whatever its
// tiling, packing or thread count.
// ---------------------------------------------------------------------------

template <typename T>
void contract_gemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha, const T* a,
                   const T* b, float beta, T* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float c0 = static_cast<float>(c[i * n + j]);
      float acc = beta == 0.0f ? 0.0f : beta == 1.0f ? c0 : c0 * beta;
      for (int64_t p = 0; p < k; ++p) {
        const float av = alpha * static_cast<float>(ta ? a[p * m + i] : a[i * k + p]);
        if (av == 0.0f) continue;
        acc += av * static_cast<float>(tb ? b[j * k + p] : b[p * n + j]);
      }
      c[i * n + j] = T(acc);
    }
  }
}

// Operands for op(A)[m,k] @ op(B)[k,n]. A has scattered zeros, one all-zero
// row (i = 1) and all-zero columns p = 2 and p = k - 1; B holds Inf and NaN
// only in those rows p, so any term that is added instead of skipped turns
// C into NaN. C has -0.0 in its first column, which beta == 1 must keep.
template <typename T>
struct Operands {
  std::vector<T> a, b, c;
};

template <typename T>
Operands<T> contract_operands(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                              uint64_t seed) {
  const Rng rng(seed);
  Operands<T> ops;
  ops.a.resize(static_cast<size_t>(m * k));
  ops.b.resize(static_cast<size_t>(k * n));
  ops.c.resize(static_cast<size_t>(m * n));
  const auto poisoned = [&](int64_t p) { return k > 3 && (p == 2 || p == k - 1); };
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const uint64_t e = static_cast<uint64_t>(i * k + p);
      float v = rng.normal(1, e);
      if (rng.uniform(2, e) < 0.3f || (m > 1 && i == 1) || poisoned(p)) v = 0.0f;
      if (v == 0.0f && rng.uniform(3, e) < 0.5f) v = -0.0f;
      ops.a[static_cast<size_t>(ta ? p * m + i : i * k + p)] = T(v);
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      float v = rng.normal(4, static_cast<uint64_t>(p * n + j));
      if (poisoned(p)) {
        v = j % 2 == 0 ? std::numeric_limits<float>::infinity()
                       : std::numeric_limits<float>::quiet_NaN();
      }
      ops.b[static_cast<size_t>(tb ? j * k + p : p * n + j)] = T(v);
    }
  }
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < n; ++j)
      ops.c[static_cast<size_t>(i * n + j)] =
          T(j == 0 ? -0.0f : rng.normal(5, static_cast<uint64_t>(i * n + j)));
  return ops;
}

// Every ISA variant of the host GEMM this machine can run.
std::vector<detail::Isa> host_isas() {
  std::vector<detail::Isa> isas;
  for (const auto isa : {detail::Isa::kBaseline, detail::Isa::kAvx2, detail::Isa::kAvx512})
    if (detail::isa_supported(isa)) isas.push_back(isa);
  return isas;
}

const char* isa_name(detail::Isa isa) {
  switch (isa) {
    case detail::Isa::kAvx512: return "avx512";
    case detail::Isa::kAvx2: return "avx2";
    case detail::Isa::kBaseline: return "baseline";
  }
  return "?";
}

template <typename T>
void call_gemm(detail::Isa isa, bool ta, bool tb, int64_t m, int64_t n, int64_t k,
               float alpha, const T* a, const T* b, float beta, T* c) {
  detail::gemm(isa, ta, tb, m, n, k, alpha, a, b, beta, c);
}

template <typename T>
void call_batched(detail::Isa isa, bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                  float alpha, const T* a, int64_t sa, const T* b, int64_t sb, float beta, T* c,
                  int64_t sc, int64_t batch) {
  detail::gemm_strided_batched(isa, ta, tb, m, n, k, alpha, a, sa, b, sb, beta, c, sc, batch);
}

template <typename T>
bool same_bytes(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

// The dims straddle every variant's tile edges: kMR 4 or 8, kNR 8 or 16
// (kMR +- 1, kNR +- 1, 2 kNR +- 1).
template <typename T>
void check_contract_sweep(int64_t k) {
  const int64_t dims[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33};
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {1.0f, 0.25f},
                                            {0.5f, 0.0f}, {0.5f, 1.0f}, {0.5f, 0.25f}};
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const int64_t m : dims) {
        for (const int64_t n : dims) {
          const auto ops = contract_operands<T>(ta, tb, m, n, k, static_cast<uint64_t>(m * n));
          for (const auto& [alpha, beta] : scales) {
            std::vector<T> want = ops.c;
            contract_gemm(ta, tb, m, n, k, alpha, ops.a.data(), ops.b.data(), beta,
                          want.data());
            for (const auto isa : host_isas()) {
              std::vector<T> got = ops.c;
              call_gemm(isa, ta, tb, m, n, k, alpha, ops.a.data(), ops.b.data(), beta,
                        got.data());
              ASSERT_TRUE(same_bytes(got, want))
                  << isa_name(isa) << " ta=" << ta << " tb=" << tb << " m=" << m
                  << " n=" << n << " k=" << k << " alpha=" << alpha << " beta=" << beta;
            }
          }
        }
      }
    }
  }
}

TEST(GemmContractTest, SgemmMatchesContractBitwise) {
  for (const int64_t k : {1, 8, 257}) check_contract_sweep<float>(k);
}

TEST(GemmContractTest, HgemmMatchesContractBitwise) {
  for (const int64_t k : {1, 8, 257}) check_contract_sweep<Half>(k);
}

// Large enough to split across the pool (several tile blocks).
template <typename T>
void check_contract_large() {
  const int64_t m = 130, n = 200, k = 257;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const auto ops = contract_operands<T>(ta, tb, m, n, k, 99);
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        std::vector<T> want = ops.c;
        contract_gemm(ta, tb, m, n, k, 0.5f, ops.a.data(), ops.b.data(), beta, want.data());
        for (const auto isa : host_isas()) {
          std::vector<T> got = ops.c;
          call_gemm(isa, ta, tb, m, n, k, 0.5f, ops.a.data(), ops.b.data(), beta, got.data());
          ASSERT_TRUE(same_bytes(got, want))
              << isa_name(isa) << " ta=" << ta << " tb=" << tb << " beta=" << beta;
        }
      }
    }
  }
}

TEST(GemmContractTest, LargeGemmMatchesContractBitwise) {
  check_contract_large<float>();
  check_contract_large<Half>();
}

// Strided batches with gaps between the C matrices; more batches than
// threads, so the batch is split across the pool. Gaps must stay untouched.
template <typename T>
void check_contract_batched(int64_t m, int64_t n, int64_t k, int64_t batch) {
  const int64_t sa = m * k + 3, sb = k * n + 5, sc = m * n + 7;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      std::vector<T> a(static_cast<size_t>(batch * sa)), b(static_cast<size_t>(batch * sb)),
          c(static_cast<size_t>(batch * sc), T(42.0f));
      for (int64_t i = 0; i < batch; ++i) {
        const auto ops = contract_operands<T>(ta, tb, m, n, k, static_cast<uint64_t>(i));
        std::copy(ops.a.begin(), ops.a.end(), a.begin() + i * sa);
        std::copy(ops.b.begin(), ops.b.end(), b.begin() + i * sb);
        std::copy(ops.c.begin(), ops.c.end(), c.begin() + i * sc);
      }
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        std::vector<T> want = c;
        for (int64_t i = 0; i < batch; ++i)
          contract_gemm(ta, tb, m, n, k, 0.5f, a.data() + i * sa, b.data() + i * sb, beta,
                        want.data() + i * sc);
        for (const auto isa : host_isas()) {
          std::vector<T> got = c;
          call_batched(isa, ta, tb, m, n, k, 0.5f, a.data(), sa, b.data(), sb, beta,
                       got.data(), sc, batch);
          ASSERT_TRUE(same_bytes(got, want))
              << isa_name(isa) << " ta=" << ta << " tb=" << tb << " m=" << m
              << " batch=" << batch << " beta=" << beta;
        }
      }
    }
  }
}

// stride_c == 0 accumulates every batch into one C (beta == 1): the batches
// must run in order, exactly like the loop they stand for.
TEST(GemmContractTest, StridedBatchedWithSharedCRunsInOrder) {
  const int64_t m = 33, n = 40, k = 65, batch = 16 * parallel_thread_count() + 1;
  std::vector<Half> a(static_cast<size_t>(batch * m * k)), b(static_cast<size_t>(batch * k * n));
  const Rng rng(3);
  for (size_t i = 0; i < a.size(); ++i) a[i] = Half(rng.normal(1, i));
  for (size_t i = 0; i < b.size(); ++i) b[i] = Half(rng.normal(2, i));
  std::vector<Half> want(static_cast<size_t>(m * n), Half(0.5f));
  const std::vector<Half> c0 = want;
  for (int64_t i = 0; i < batch; ++i)
    contract_gemm(false, false, m, n, k, 1.0f, a.data() + i * m * k, b.data() + i * k * n,
                  1.0f, want.data());
  // Back-to-back calls, so the pool's workers are awake and would race.
  for (const auto isa : host_isas()) {
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<Half> got = c0;
      call_batched(isa, false, false, m, n, k, 1.0f, a.data(), m * k, b.data(), k * n, 1.0f,
                   got.data(), 0, batch);
      ASSERT_TRUE(same_bytes(got, want)) << isa_name(isa) << " rep " << rep;
    }
  }
}

TEST(GemmContractTest, StridedBatchedMatchesContractBitwise) {
  const int64_t batch = 3 * parallel_thread_count() + 1;
  check_contract_batched<float>(17, 9, 33, batch);
  check_contract_batched<Half>(17, 9, 33, batch);
  check_contract_batched<float>(48, 48, 32, batch);
  check_contract_batched<Half>(48, 32, 48, batch);
  // Fewer batches than threads: each GEMM splits its own tiles instead.
  check_contract_batched<Half>(130, 64, 257, 2);
}

// Every B value finite, so the only reason to keep skipping zero terms is
// -0 among the start values: beta == 1 keeps C's -0, and beta * C is -0 for
// C = -0. A zero term added to a -0 accumulator would turn it into +0.
TEST(GemmContractTest, NegativeZeroStartWithFiniteBMatchesContractBitwise) {
  const int64_t m = 33, n = 40, k = 17;
  const Rng rng(11);
  std::vector<Half> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n)),
      c(static_cast<size_t>(m * n));
  for (size_t i = 0; i < a.size(); ++i) {
    const bool zero = rng.uniform(1, i) < 0.5f || i / static_cast<size_t>(k) % 3 == 0;
    a[i] = Half(zero ? (rng.uniform(2, i) < 0.5f ? -0.0f : 0.0f) : rng.normal(3, i));
  }
  for (size_t i = 0; i < b.size(); ++i) b[i] = Half(rng.normal(4, i));
  for (size_t i = 0; i < c.size(); ++i) c[i] = Half(i % 2 == 0 ? -0.0f : rng.normal(5, i));
  for (const float beta : {1.0f, 0.25f}) {
    std::vector<Half> want = c;
    contract_gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), beta, want.data());
    // Rows of zeros leave their -0 start values in place.
    ASSERT_EQ(want[0].bits, 0x8000u);
    for (const auto isa : host_isas()) {
      std::vector<Half> got = c;
      call_gemm(isa, false, false, m, n, k, 1.0f, a.data(), b.data(), beta, got.data());
      ASSERT_TRUE(same_bytes(got, want)) << isa_name(isa) << " beta=" << beta;
    }
  }
}

// Every half bit pattern as A (and, transposed, as B) against a row of
// finite values, with k = 1: each C element is one widened product, added
// to 0 or to C, and narrowed. Covers subnormals, Inf, NaN and -0 in both
// conversions and in the zero-term rule.
TEST(GemmContractTest, HgemmMatchesContractOnEveryHalf) {
  const int64_t all = 65536, row = 16;
  std::vector<Half> every(static_cast<size_t>(all));
  for (int64_t i = 0; i < all; ++i)
    every[static_cast<size_t>(i)] = Half::from_bits(static_cast<uint16_t>(i));
  const float values[row] = {1.0f,  -1.0f,     0.5f,   3.0f,     -0.0f,   0.0f,
                             1e-4f, -6.1e-5f,  2.0e4f, -65504.0f, 0.333f, -7.25f,
                             1e-7f, 1.5f,      -2.5f,  100.0f};
  std::vector<Half> fin(row);
  for (int64_t j = 0; j < row; ++j) fin[static_cast<size_t>(j)] = Half(values[j]);
  std::vector<Half> c0(static_cast<size_t>(all * row));
  const Rng rng(12);
  for (size_t i = 0; i < c0.size(); ++i) c0[i] = Half(rng.normal(1, i));
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {0.5f, 1.0f}};
  for (const auto& [alpha, beta] : scales) {
    // A = every half [65536 x 1], B = the finite row [1 x 16].
    std::vector<Half> want = c0;
    contract_gemm(false, false, all, row, 1, alpha, every.data(), fin.data(), beta,
                  want.data());
    // B = every half [1 x 65536], A = the finite column [16 x 1].
    std::vector<Half> want_t = c0;
    contract_gemm(false, false, row, all, 1, alpha, fin.data(), every.data(), beta,
                  want_t.data());
    for (const auto isa : host_isas()) {
      std::vector<Half> got = c0, got_t = c0;
      call_gemm(isa, false, false, all, row, 1, alpha, every.data(), fin.data(), beta,
                got.data());
      call_gemm(isa, false, false, row, all, 1, alpha, fin.data(), every.data(), beta,
                got_t.data());
      ASSERT_TRUE(same_bytes(got, want)) << isa_name(isa) << " beta=" << beta;
      ASSERT_TRUE(same_bytes(got_t, want_t)) << isa_name(isa) << " beta=" << beta;
    }
  }
}

TEST(GemmContractTest, HostRunsItsWidestVariant) {
  const auto isas = host_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(detail::host_isa(), isas.back());
  std::string names;
  for (const auto isa : isas) names += std::string(" ") + isa_name(isa);
  std::cout << "GEMM variants checked on this host:" << names << "\n";
}

TEST(UtilizationTest, MonotoneAndClamped) {
  EXPECT_LT(gemm_utilization(8, 8, 8), gemm_utilization(512, 512, 512));
  EXPECT_GE(gemm_utilization(1, 1, 1), 0.05);
  EXPECT_LE(gemm_utilization(8192, 8192, 8192), 0.95);
  // Batching restores occupancy for small matrices (attention GEMMs).
  EXPECT_GT(gemm_utilization(32, 64, 64, 128), gemm_utilization(32, 64, 64, 1));
}

TEST(DeviceGemmTest, ChargesCostModelAndComputes) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  const int64_t m = 32, n = 16, k = 8;
  Tensor a = Tensor::from_vector(random_vec(static_cast<size_t>(m * k), 1), Shape{m, k},
                                 DType::kF32);
  Tensor b = Tensor::from_vector(random_vec(static_cast<size_t>(k * n), 2), Shape{k, n},
                                 DType::kF32);
  Tensor c = Tensor::zeros(Shape{m, n}, DType::kF32);
  device_gemm(dev, false, false, m, n, k, 1.0f, a, b, 0.0f, c);
  EXPECT_EQ(dev.stats().launches, 1);
  EXPECT_GT(dev.clock_us(), 0.0);
  std::vector<float> expect(static_cast<size_t>(m * n), 0.0f);
  const auto av = a.to_vector(), bv = b.to_vector();
  ref_gemm(false, false, m, n, k, 1.0f, av.data(), bv.data(), 0.0f, expect.data());
  const auto cv = c.to_vector();
  for (size_t i = 0; i < cv.size(); ++i) EXPECT_NEAR(cv[i], expect[i], 1e-4f);
}

TEST(DeviceGemmTest, Fp16UsesTensorCoreRate) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  const int64_t m = 1024, n = 1024, k = 1024;
  Tensor a16 = Tensor::zeros(Shape{m, k}, DType::kF16);
  Tensor b16 = Tensor::zeros(Shape{k, n}, DType::kF16);
  Tensor c16 = Tensor::zeros(Shape{m, n}, DType::kF16);
  device_gemm(dev, false, false, m, n, k, 1.0f, a16, b16, 0.0f, c16);
  const double t16 = dev.clock_us();
  dev.reset();
  Tensor a32 = Tensor::zeros(Shape{m, k}, DType::kF32);
  Tensor b32 = Tensor::zeros(Shape{k, n}, DType::kF32);
  Tensor c32 = Tensor::zeros(Shape{m, n}, DType::kF32);
  device_gemm(dev, false, false, m, n, k, 1.0f, a32, b32, 0.0f, c32);
  const double t32 = dev.clock_us();
  EXPECT_GT(t32, t16 * 3);  // tensor cores are ~8x peak; model must show a big gap
}

TEST(DeviceGemmTest, MixedDtypeRejected) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kModelOnly);
  Tensor a = Tensor::zeros(Shape{2, 2}, DType::kF32);
  Tensor b = Tensor::zeros(Shape{2, 2}, DType::kF16);
  Tensor c = Tensor::zeros(Shape{2, 2}, DType::kF32);
  EXPECT_THROW(device_gemm(dev, false, false, 2, 2, 2, 1.0f, a, b, 0.0f, c), Error);
}

}  // namespace
}  // namespace ls2::gemm
