#include "gemm/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace ls2::gemm {

namespace {

// Register tile: kMR rows of C by kNR columns, held in kNR / 4 four-float
// vectors per row. GCC/Clang vector extensions compile to the baseline SIMD
// of the target (SSE2 on x86-64) without any -march flag.
constexpr int64_t kMR = 4;
constexpr int64_t kNR = 8;
constexpr int64_t kLanes = 4;
constexpr int64_t kNV = kNR / kLanes;
typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

// Cache blocking of the tile loop, in panels: a block of kBlockA A-panels
// (kBlockA * kMR rows) against kBlockB B-panels (kBlockB * kNR columns).
constexpr int64_t kBlockA = 8;
constexpr int64_t kBlockB = 16;
// Multiply-adds per unit of parallel_for work (about a nanosecond's worth).
constexpr int64_t kMacsPerWork = 8;
// Packing buffers above this many elements are released after the call
// instead of being kept for the next one.
constexpr size_t kKeepElements = size_t{8} << 20;

inline Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(float* p, Vec v) { std::memcpy(p, &v, sizeof(v)); }

// Packed operands, reused across calls on the same thread.
//
// B is packed in panels of kNR columns: bpack[(panel * k + p) * kNR + j] =
// B[p, panel * kNR + j], zero-padded past n.
//
// A is packed in panels of kMR rows holding av = alpha * A[i, p], in one of
// two layouts (dense[panel] says which), each in the panel's kMR * k floats:
//   dense:  no av in the panel is zero; p-major, apack[(panel * k + p) * kMR
//           + r], zero-padded past m;
//   sparse: row r keeps only its nonzero terms in ascending p: the values at
//           apack[(panel * kMR + r) * k + t] and their p at the same index of
//           aidx, for t < alen[panel * kMR + r] (0 for padding rows).
// ReLU outputs, dropout masks and causal attention probabilities make A
// half zeros; the sparse layout skips those terms instead of masking them.
struct Scratch {
  std::vector<float> apack, bpack;
  std::vector<int32_t> aidx, alen;
  std::vector<uint8_t> dense;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

template <typename V>
V* grow(std::vector<V>& v, size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

template <typename V>
void trim(std::vector<V>& v) {
  if (v.capacity() > kKeepElements) std::vector<V>().swap(v);
}

template <typename T>
void pack_a(const T* a, bool trans, int64_t m, int64_t k, float alpha, int64_t panel,
            float* dst, int32_t* idx, int32_t* len, uint8_t* dense) {
  const int64_t i0 = panel * kMR;
  const int64_t rows = std::min(kMR, m - i0);
  // Element (i, p) of op(A) sits at a[i * rs + p * cs].
  const int64_t rs = trans ? 1 : k, cs = trans ? m : 1;
  const auto av = [&](int64_t r, int64_t p) {
    return alpha * static_cast<float>(a[(i0 + r) * rs + p * cs]);
  };
  bool no_zero = true;
  for (int64_t p = 0; p < k && no_zero; ++p)
    for (int64_t r = 0; r < rows; ++r) no_zero = no_zero && av(r, p) != 0.0f;
  *dense = no_zero ? 1 : 0;
  if (no_zero) {
    for (int64_t p = 0; p < k; ++p) {
      float* d = dst + p * kMR;
      for (int64_t r = 0; r < rows; ++r) d[r] = av(r, p);
      for (int64_t r = rows; r < kMR; ++r) d[r] = 0.0f;
    }
    return;
  }
  for (int64_t r = 0; r < kMR; ++r) {
    int32_t t = 0;
    for (int64_t p = 0; r < rows && p < k; ++p) {
      const float v = av(r, p);
      if (v == 0.0f) continue;
      dst[r * k + t] = v;
      idx[r * k + t] = static_cast<int32_t>(p);
      ++t;
    }
    len[r] = t;
  }
}

template <typename T>
void pack_b(const T* b, bool trans, int64_t k, int64_t n, int64_t panel, float* dst) {
  const int64_t j0 = panel * kNR;
  const int64_t cols = std::min(kNR, n - j0);
  // Element (p, j) of op(B) sits at b[p * rs + j * cs].
  const int64_t rs = trans ? 1 : n, cs = trans ? k : 1;
  for (int64_t p = 0; p < k; ++p) {
    float* d = dst + p * kNR;
    for (int64_t j = 0; j < cols; ++j) d[j] = static_cast<float>(b[p * rs + (j0 + j) * cs]);
    for (int64_t j = cols; j < kNR; ++j) d[j] = 0.0f;
  }
}

// The micro-kernels: acc[kMR x kNR] += av * B over the panel's terms in
// ascending p, one rounded multiply and one rounded add per term.

// Dense A panel: every p.
void dense_kernel(const float* ap, const float* bp, int64_t k, float* acc_io) {
  Vec acc[kMR][kNV];
#pragma GCC unroll 8
  for (int64_t r = 0; r < kMR; ++r)
#pragma GCC unroll 8
    for (int64_t v = 0; v < kNV; ++v) acc[r][v] = load(acc_io + r * kNR + v * kLanes);
  for (int64_t p = 0; p < k; ++p, ap += kMR, bp += kNR) {
    Vec b[kNV];
#pragma GCC unroll 8
    for (int64_t v = 0; v < kNV; ++v) b[v] = load(bp + v * kLanes);
#pragma GCC unroll 8
    for (int64_t r = 0; r < kMR; ++r) {
      const float x = ap[r];
      const Vec av = {x, x, x, x};
#pragma GCC unroll 8
      for (int64_t v = 0; v < kNV; ++v) acc[r][v] += av * b[v];
    }
  }
#pragma GCC unroll 8
  for (int64_t r = 0; r < kMR; ++r)
#pragma GCC unroll 8
    for (int64_t v = 0; v < kNV; ++v) store(acc_io + r * kNR + v * kLanes, acc[r][v]);
}

// Sparse A panel: each row's nonzero terms only. The rows advance together
// while all have terms left (kMR independent chains), then finish alone.
void sparse_kernel(const float* vals, const int32_t* idx, const int32_t* len, int64_t k,
                   const float* bp, float* acc_io) {
  Vec acc[kMR][kNV];
#pragma GCC unroll 8
  for (int64_t r = 0; r < kMR; ++r)
#pragma GCC unroll 8
    for (int64_t v = 0; v < kNV; ++v) acc[r][v] = load(acc_io + r * kNR + v * kLanes);
  const auto term = [&](int64_t r, int64_t t) {
    const float x = vals[r * k + t];
    const Vec av = {x, x, x, x};
    const float* b = bp + static_cast<int64_t>(idx[r * k + t]) * kNR;
#pragma GCC unroll 8
    for (int64_t v = 0; v < kNV; ++v) acc[r][v] += av * load(b + v * kLanes);
  };
  const int64_t common = *std::min_element(len, len + kMR);
  for (int64_t t = 0; t < common; ++t) {
#pragma GCC unroll 8
    for (int64_t r = 0; r < kMR; ++r) term(r, t);
  }
  for (int64_t r = 0; r < kMR; ++r)
    for (int64_t t = common; t < len[r]; ++t) term(r, t);
#pragma GCC unroll 8
  for (int64_t r = 0; r < kMR; ++r)
#pragma GCC unroll 8
    for (int64_t v = 0; v < kNV; ++v) store(acc_io + r * kNR + v * kLanes, acc[r][v]);
}

// One kMR x kNR tile of C: start from 0 (beta == 0), C (beta == 1) or
// beta * C, accumulate, store the in-bounds part.
template <typename T>
void tile(const Scratch& s, int64_t m, int64_t n, int64_t k, float beta, T* c, int64_t ip,
          int64_t jp) {
  const int64_t i0 = ip * kMR, j0 = jp * kNR;
  const int64_t rows = std::min(kMR, m - i0), cols = std::min(kNR, n - j0);
  float acc[kMR * kNR] = {};
  if (beta != 0.0f) {
    for (int64_t r = 0; r < rows; ++r) {
      const T* crow = c + (i0 + r) * n + j0;
      for (int64_t j = 0; j < cols; ++j) {
        const float cv = static_cast<float>(crow[j]);
        acc[r * kNR + j] = beta == 1.0f ? cv : cv * beta;
      }
    }
  }
  const int64_t a_off = ip * kMR * k;
  const float* bp = s.bpack.data() + jp * k * kNR;
  if (s.dense[static_cast<size_t>(ip)]) {
    dense_kernel(s.apack.data() + a_off, bp, k, acc);
  } else {
    sparse_kernel(s.apack.data() + a_off, s.aidx.data() + a_off, s.alen.data() + ip * kMR, k,
                  bp, acc);
  }
  for (int64_t r = 0; r < rows; ++r) {
    T* crow = c + (i0 + r) * n + j0;
    for (int64_t j = 0; j < cols; ++j) crow[j] = T(acc[r * kNR + j]);
  }
}

// C = alpha * op(A) @ op(B) + beta * C. Packing and the tile blocks run on
// the pool when the call is large enough and not already inside a pool
// chunk (a batched call runs each GEMM serially on its own thread).
template <typename T>
void gemm_impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
               const T* a, const T* b, float beta, T* c) {
  LS2_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  const int64_t a_panels = (m + kMR - 1) / kMR, b_panels = (n + kNR - 1) / kNR;
  Scratch& s = scratch();
  float* apack = grow(s.apack, static_cast<size_t>(a_panels * kMR * k));
  int32_t* aidx = grow(s.aidx, static_cast<size_t>(a_panels * kMR * k));
  int32_t* alen = grow(s.alen, static_cast<size_t>(a_panels * kMR));
  uint8_t* dense = grow(s.dense, static_cast<size_t>(a_panels));
  float* bpack = grow(s.bpack, static_cast<size_t>(b_panels * k * kNR));

  // Each operand is packed once per call.
  parallel_for(0, a_panels + b_panels, k * kNR, [&](int64_t panel) {
    if (panel < a_panels) {
      const int64_t off = panel * kMR * k;
      pack_a(a, trans_a, m, k, alpha, panel, apack + off, aidx + off, alen + panel * kMR,
             dense + panel);
    } else {
      const int64_t jp = panel - a_panels;
      pack_b(b, trans_b, k, n, jp, bpack + jp * k * kNR);
    }
  });

  const int64_t a_blocks = (a_panels + kBlockA - 1) / kBlockA;
  const int64_t b_blocks = (b_panels + kBlockB - 1) / kBlockB;
  const int64_t blocks = a_blocks * b_blocks;
  const int64_t block_work = m * n * std::max<int64_t>(k, 1) / kMacsPerWork / blocks;
  parallel_for(0, blocks, block_work, [&](int64_t blk) {
    const int64_t ia = blk % a_blocks, ib = blk / a_blocks;
    const int64_t ip_end = std::min(a_panels, (ia + 1) * kBlockA);
    const int64_t jp_end = std::min(b_panels, (ib + 1) * kBlockB);
    for (int64_t jp = ib * kBlockB; jp < jp_end; ++jp)
      for (int64_t ip = ia * kBlockA; ip < ip_end; ++ip)
        tile(s, m, n, k, beta, c, ip, jp);
  });
  trim(s.apack);
  trim(s.aidx);
  trim(s.bpack);
}

// Batches with disjoint C run in parallel, one whole GEMM per index, when
// there are enough of them to occupy every thread; otherwise each GEMM
// splits its own tiles.
template <typename T>
void batched_impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                  const T* a, int64_t stride_a, const T* b, int64_t stride_b, float beta,
                  T* c, int64_t stride_c, int64_t batch) {
  LS2_CHECK(batch >= 0);
  const auto one = [&](int64_t i) {
    gemm_impl(trans_a, trans_b, m, n, k, alpha, a + i * stride_a, b + i * stride_b, beta,
         c + i * stride_c);
  };
  const bool disjoint = stride_c >= m * n || stride_c <= -m * n;
  if (disjoint && batch >= parallel_thread_count()) {
    parallel_for(0, batch, std::max<int64_t>(1, m * n * std::max<int64_t>(k, 1) / kMacsPerWork),
                 one);
  } else {
    for (int64_t i = 0; i < batch; ++i) one(i);
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void sgemm_strided_batched(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                           float alpha, const float* a, int64_t stride_a, const float* b,
                           int64_t stride_b, float beta, float* c, int64_t stride_c,
                           int64_t batch) {
  batched_impl(trans_a, trans_b, m, n, k, alpha, a, stride_a, b, stride_b, beta, c,
                       stride_c, batch);
}

void hgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
           const Half* a, const Half* b, float beta, Half* c) {
  gemm_impl(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void hgemm_strided_batched(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                           float alpha, const Half* a, int64_t stride_a, const Half* b,
                           int64_t stride_b, float beta, Half* c, int64_t stride_c,
                           int64_t batch) {
  batched_impl(trans_a, trans_b, m, n, k, alpha, a, stride_a, b, stride_b, beta, c,
                       stride_c, batch);
}

double gemm_utilization(int64_t m, int64_t n, int64_t k, int64_t batch) {
  // Saturating occupancy model: each dimension must be large enough to fill
  // tensor-core tiles and SMs; batching multiplies the independent work.
  const double mp = static_cast<double>(m) * static_cast<double>(std::max<int64_t>(batch, 1));
  const double fm = mp / (mp + 96.0);
  const double fn = static_cast<double>(n) / (static_cast<double>(n) + 96.0);
  const double fk = static_cast<double>(k) / (static_cast<double>(k) + 48.0);
  const double eff = 1.45 * fm * fn * fk;
  return std::clamp(eff, 0.05, 0.95);
}

}  // namespace ls2::gemm
