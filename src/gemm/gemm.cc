#include "gemm/gemm.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"

namespace ls2::gemm {

namespace {

// Both operands are packed once per call into one dense layout, FP16
// widened to FP32 on the way:
//   A in panels of kMR rows holding av = alpha * A[i, p]:
//     apack[(panel * k + p) * kMR + r], zero-padded past m;
//   B in panels of kNR columns:
//     bpack[(panel * k + p) * kNR + j], zero-padded past n.
// A register-tiled micro-kernel then accumulates each kMR x kNR tile of C
// over every p in ascending order.
//
// Adding a zero term instead of skipping it (the contract skips av == 0)
// changes nothing when both of these hold:
//   - the term's B value is finite, so ±0 * b is ±0;
//   - the accumulator never holds -0. A round-to-nearest add returns -0
//     only when both operands are -0, so it suffices that the tile's start
//     values (0, C or beta * C) contain no -0.
// pack_b records whether a B panel is all finite. A tile with a finite
// panel and no -0 start runs the plain kernel (acc += av * b); any other
// tile runs the same kernel with a per-term select
// (acc = av != 0 ? acc + av * b : acc), which is the contract verbatim.
//
// The kernel, packers and tile load/store are compiled once per ISA (the
// Isa traits below) and chosen once per process from the host's CPU
// features. The per-ISA entry points carry a target attribute and flatten
// the ISA-agnostic templates into themselves, so no code outside them is
// built for a wider ISA than the baseline. The library is compiled with
// -ffp-contract=off: under AVX-512 (which implies FMA) the compiler would
// otherwise fuse acc + av * b into one rounding.

// Cache blocking of the tile loop, in panels: a block of kBlockA A-panels
// against kBlockB B-panels.
constexpr int64_t kBlockA = 8;
constexpr int64_t kBlockB = 16;
// Multiply-adds per unit of parallel_for work (about a nanosecond's worth).
constexpr int64_t kMacsPerWork = 8;
// Packing buffers above this many elements are released after the call
// instead of being kept for the next one.
constexpr size_t kKeepElements = size_t{8} << 20;
// Elements a packer widens at a time when it transposes.
constexpr int64_t kRun = 64;

// --- FP16 <-> FP32 -----------------------------------------------------------
//
// F16C converts eight values per instruction. Widening is exact and equals
// half_bits_to_float on every half except signalling NaNs, which it
// quiets; no result can tell, because every packed value passes through a
// multiply and every stored NaN is canonicalised. Narrowing rounds to
// nearest-even like float_to_half_bits on all 2^32 floats once a NaN is
// replaced by the quiet NaN of its sign, which converts to sign | 0x7e00.

[[gnu::target("avx,f16c")]] inline void widen8(const Half* s, float* d) {
  _mm256_storeu_ps(d, _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(s))));
}

[[gnu::target("avx,f16c")]] inline void narrow8(const float* s, Half* d) {
  const __m256 v = _mm256_loadu_ps(s);
  const __m256 sign = _mm256_and_ps(v, _mm256_set1_ps(-0.0f));
  const __m256 quiet = _mm256_or_ps(sign, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc00000)));
  const __m256 canon = _mm256_blendv_ps(v, quiet, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d),
                   _mm256_cvtps_ph(canon, _MM_FROUND_TO_NEAREST_INT));
}

// d[0, n) = s[0, n) as floats.
template <class Isa>
[[gnu::always_inline]] inline void widen(const float* s, float* d, int64_t n) {
  std::memcpy(d, s, static_cast<size_t>(n) * sizeof(float));
}

template <class Isa>
[[gnu::always_inline]] inline void widen(const Half* s, float* d, int64_t n) {
  int64_t i = 0;
  if constexpr (Isa::kF16c)
    for (; i + 8 <= n; i += 8) widen8(s + i, d + i);
  for (; i < n; ++i) d[i] = static_cast<float>(s[i]);
}

// d[0, n) = s[0, n) rounded to T.
template <class Isa>
[[gnu::always_inline]] inline void narrow(const float* s, float* d, int64_t n) {
  std::memcpy(d, s, static_cast<size_t>(n) * sizeof(float));
}

template <class Isa>
[[gnu::always_inline]] inline void narrow(const float* s, Half* d, int64_t n) {
  int64_t i = 0;
  if constexpr (Isa::kF16c)
    for (; i + 8 <= n; i += 8) narrow8(s + i, d + i);
  for (; i < n; ++i) d[i] = Half(s[i]);
}

// --- ISA-agnostic packers and kernel -----------------------------------------

// Panel `panel` of A: dst[p * kMR + r] = alpha * op(A)[panel * kMR + r, p].
template <class Isa, class T>
[[gnu::always_inline]] inline void pack_a(const T* a, bool trans, int64_t m, int64_t k,
                                          float alpha, int64_t panel, float* dst) {
  constexpr int64_t kMR = Isa::kMR;
  const int64_t i0 = panel * kMR;
  const int64_t rows = std::min(kMR, m - i0);
  float buf[kRun];
  if (trans) {
    // op(A)[i, p] = a[p * m + i]: the panel's rows are contiguous per p.
    for (int64_t p = 0; p < k; ++p) {
      float* d = dst + p * kMR;
      widen<Isa>(a + p * m + i0, buf, rows);
      for (int64_t r = 0; r < kMR; ++r) d[r] = r < rows ? alpha * buf[r] : 0.0f;
    }
    return;
  }
  // op(A)[i, p] = a[i * k + p]: each row is contiguous.
  for (int64_t r = 0; r < kMR; ++r) {
    if (r >= rows) {
      for (int64_t p = 0; p < k; ++p) dst[p * kMR + r] = 0.0f;
      continue;
    }
    for (int64_t p0 = 0; p0 < k; p0 += kRun) {
      const int64_t len = std::min(kRun, k - p0);
      widen<Isa>(a + (i0 + r) * k + p0, buf, len);
      for (int64_t q = 0; q < len; ++q) dst[(p0 + q) * kMR + r] = alpha * buf[q];
    }
  }
}

// Panel `panel` of B: dst[p * kNR + j] = op(B)[p, panel * kNR + j]. Returns
// whether every value in the panel is finite.
template <class Isa, class T>
[[gnu::always_inline]] inline bool pack_b(const T* b, bool trans, int64_t k, int64_t n,
                                          int64_t panel, float* dst) {
  constexpr int64_t kNR = Isa::kNR;
  const int64_t j0 = panel * kNR;
  const int64_t cols = std::min(kNR, n - j0);
  if (!trans) {
    // op(B)[p, j] = b[p * n + j]: the panel's columns are contiguous per p.
    for (int64_t p = 0; p < k; ++p) {
      float* d = dst + p * kNR;
      widen<Isa>(b + p * n + j0, d, cols);
      for (int64_t j = cols; j < kNR; ++j) d[j] = 0.0f;
    }
  } else {
    // op(B)[p, j] = b[j * k + p]: each column is contiguous.
    float buf[kRun];
    for (int64_t j = 0; j < kNR; ++j) {
      if (j >= cols) {
        for (int64_t p = 0; p < k; ++p) dst[p * kNR + j] = 0.0f;
        continue;
      }
      for (int64_t p0 = 0; p0 < k; p0 += kRun) {
        const int64_t len = std::min(kRun, k - p0);
        widen<Isa>(b + (j0 + j) * k + p0, buf, len);
        for (int64_t q = 0; q < len; ++q) dst[(p0 + q) * kNR + j] = buf[q];
      }
    }
  }
  // A float is Inf or NaN when its exponent is all ones; adding one to the
  // exponent field carries into the sign bit exactly then.
  uint32_t carry = 0;
  for (int64_t i = 0; i < k * kNR; ++i) {
    uint32_t bits;
    std::memcpy(&bits, dst + i, sizeof(bits));
    carry |= (bits & 0x7f800000u) + 0x00800000u;
  }
  return (carry & 0x80000000u) == 0;
}

// acc[kMR x kNR] (row-major) += av * B over every p of the panels, one
// rounded multiply and one rounded add per term. kSelect skips the terms
// with av == 0 instead of adding them.
template <class Isa, bool kSelect>
[[gnu::always_inline]] inline void kernel(const float* ap, const float* bp, int64_t k,
                                          float* acc_io) {
  using Vec = typename Isa::Vec;
  constexpr int64_t kMR = Isa::kMR, kNR = Isa::kNR, kLanes = Isa::kLanes;
  constexpr int64_t kNV = kNR / kLanes;
  Vec acc[kMR][kNV];
#pragma GCC unroll 16
  for (int64_t r = 0; r < kMR; ++r)
#pragma GCC unroll 16
    for (int64_t v = 0; v < kNV; ++v)
      std::memcpy(&acc[r][v], acc_io + r * kNR + v * kLanes, sizeof(Vec));
  for (int64_t p = 0; p < k; ++p, ap += kMR, bp += kNR) {
    Vec b[kNV];
#pragma GCC unroll 16
    for (int64_t v = 0; v < kNV; ++v) std::memcpy(&b[v], bp + v * kLanes, sizeof(Vec));
#pragma GCC unroll 16
    for (int64_t r = 0; r < kMR; ++r) {
      const float x = ap[r];
#pragma GCC unroll 16
      for (int64_t v = 0; v < kNV; ++v) {
        if constexpr (kSelect) {
          acc[r][v] = x != Vec{} ? acc[r][v] + x * b[v] : acc[r][v];
        } else {
          acc[r][v] += x * b[v];
        }
      }
    }
  }
#pragma GCC unroll 16
  for (int64_t r = 0; r < kMR; ++r)
#pragma GCC unroll 16
    for (int64_t v = 0; v < kNV; ++v)
      std::memcpy(acc_io + r * kNR + v * kLanes, &acc[r][v], sizeof(Vec));
}

// One GEMM call: its operands and its packed panels.
template <typename T>
struct Call {
  bool trans_a, trans_b;
  int64_t m, n, k;
  float alpha, beta;
  const T* a;
  const T* b;
  T* c;
  int64_t a_panels, a_blocks, b_panels;
  float* apack;
  float* bpack;
  uint8_t* b_finite;
};

// Packs A panel `panel`, or B panel `panel - a_panels`.
template <class Isa, class T>
[[gnu::always_inline]] inline void pack(const Call<T>& g, int64_t panel) {
  if (panel < g.a_panels) {
    pack_a<Isa>(g.a, g.trans_a, g.m, g.k, g.alpha, panel, g.apack + panel * Isa::kMR * g.k);
  } else {
    const int64_t jp = panel - g.a_panels;
    g.b_finite[jp] = pack_b<Isa>(g.b, g.trans_b, g.k, g.n, jp, g.bpack + jp * g.k * Isa::kNR);
  }
}

// The kMR x kNR tile (ip, jp) of C: start from 0 (beta == 0), C (beta ==
// 1) or beta * C, accumulate, store the in-bounds part.
template <class Isa, class T>
[[gnu::always_inline]] inline void tile(const Call<T>& g, int64_t ip, int64_t jp) {
  constexpr int64_t kMR = Isa::kMR, kNR = Isa::kNR;
  const int64_t i0 = ip * kMR, j0 = jp * kNR;
  const int64_t rows = std::min(kMR, g.m - i0), cols = std::min(kNR, g.n - j0);
  T* c = g.c + i0 * g.n + j0;
  alignas(64) float acc[kMR * kNR] = {};
  bool neg_zero = false;
  if (g.beta != 0.0f) {
    for (int64_t r = 0; r < rows; ++r) {
      float* row = acc + r * kNR;
      widen<Isa>(c + r * g.n, row, cols);
      if (g.beta != 1.0f)
        for (int64_t j = 0; j < cols; ++j) row[j] *= g.beta;
    }
    for (int64_t i = 0; i < kMR * kNR; ++i) {
      uint32_t bits;
      std::memcpy(&bits, acc + i, sizeof(bits));
      neg_zero |= bits == 0x80000000u;
    }
  }
  const float* ap = g.apack + ip * g.k * kMR;
  const float* bp = g.bpack + jp * g.k * kNR;
  if (g.b_finite[jp] && !neg_zero) {
    kernel<Isa, false>(ap, bp, g.k, acc);
  } else {
    kernel<Isa, true>(ap, bp, g.k, acc);
  }
  for (int64_t r = 0; r < rows; ++r) narrow<Isa>(acc + r * kNR, c + r * g.n, cols);
}

// Tile block `blk`: kBlockA A-panels against kBlockB B-panels, B panel by
// B panel.
template <class Isa, class T>
[[gnu::always_inline]] inline void block(const Call<T>& g, int64_t blk) {
  const int64_t ia = blk % g.a_blocks, ib = blk / g.a_blocks;
  const int64_t ip_end = std::min(g.a_panels, (ia + 1) * kBlockA);
  const int64_t jp_end = std::min(g.b_panels, (ib + 1) * kBlockB);
  for (int64_t jp = ib * kBlockB; jp < jp_end; ++jp)
    for (int64_t ip = ia * kBlockA; ip < ip_end; ++ip) tile<Isa>(g, ip, jp);
}

// --- Per-ISA instantiations --------------------------------------------------
//
// kLanes floats per vector; a kMR x kNR register tile of C (kNR a multiple
// of kLanes) that fits the ISA's vector registers with room for one B row
// and a broadcast A value. pack() and block() are the entry points the
// driver calls, once per panel and once per tile block.

struct Baseline {  // SSE2: 16 registers of 4 floats
  static constexpr int64_t kLanes = 4, kMR = 4, kNR = 8;
  static constexpr bool kF16c = false;
  typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

  template <class T>
  [[gnu::flatten]] static void pack(const Call<T>& g, int64_t panel) {
    gemm::pack<Baseline>(g, panel);
  }
  template <class T>
  [[gnu::flatten]] static void block(const Call<T>& g, int64_t blk) {
    gemm::block<Baseline>(g, blk);
  }
};

struct Avx2 {  // AVX2 + F16C: 16 registers of 8 floats
  static constexpr int64_t kLanes = 8, kMR = 8, kNR = 8;
  static constexpr bool kF16c = true;
  typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

  template <class T>
  [[gnu::target("avx2,f16c"), gnu::flatten]] static void pack(const Call<T>& g,
                                                              int64_t panel) {
    gemm::pack<Avx2>(g, panel);
  }
  template <class T>
  [[gnu::target("avx2,f16c"), gnu::flatten]] static void block(const Call<T>& g,
                                                               int64_t blk) {
    gemm::block<Avx2>(g, blk);
  }
};

struct Avx512 {  // AVX-512F + F16C: 32 registers of 16 floats
  static constexpr int64_t kLanes = 16, kMR = 8, kNR = 16;
  static constexpr bool kF16c = true;
  typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

  template <class T>
  [[gnu::target("avx512f,f16c"), gnu::flatten]] static void pack(const Call<T>& g,
                                                                 int64_t panel) {
    gemm::pack<Avx512>(g, panel);
  }
  template <class T>
  [[gnu::target("avx512f,f16c"), gnu::flatten]] static void block(const Call<T>& g,
                                                                  int64_t blk) {
    gemm::block<Avx512>(g, blk);
  }
};

// Calls f(Isa{}) with the traits of `isa`.
template <class F>
void with_isa(detail::Isa isa, const F& f) {
  LS2_CHECK(detail::isa_supported(isa)) << "GEMM ISA variant not supported on this host";
  switch (isa) {
    case detail::Isa::kAvx512: return f(Avx512{});
    case detail::Isa::kAvx2: return f(Avx2{});
    case detail::Isa::kBaseline: return f(Baseline{});
  }
}

// --- Driver ------------------------------------------------------------------

// Packed operands, reused across calls on the same thread.
struct Scratch {
  std::vector<float> apack, bpack;
  std::vector<uint8_t> b_finite;
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

// C = alpha * op(A) @ op(B) + beta * C. Packing and the tile blocks run on
// the pool when the call is large enough and not already inside a pool
// chunk (a batched call runs each GEMM serially on its own thread).
template <class Isa, typename T>
void gemm_impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
               const T* a, const T* b, float beta, T* c) {
  LS2_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;
  const int64_t a_panels = (m + Isa::kMR - 1) / Isa::kMR;
  const int64_t b_panels = (n + Isa::kNR - 1) / Isa::kNR;
  const int64_t a_blocks = (a_panels + kBlockA - 1) / kBlockA;
  const int64_t b_blocks = (b_panels + kBlockB - 1) / kBlockB;
  Scratch& s = scratch();
  const Call<T> g{trans_a, trans_b, m, n, k, alpha, beta, a, b, c, a_panels, a_blocks, b_panels,
                  grow(s.apack, static_cast<size_t>(a_panels * Isa::kMR * k)),
                  grow(s.bpack, static_cast<size_t>(b_panels * k * Isa::kNR)),
                  grow(s.b_finite, static_cast<size_t>(b_panels))};
  // Each operand is packed once per call.
  parallel_for(0, a_panels + b_panels, k * Isa::kNR,
               [&](int64_t panel) { Isa::pack(g, panel); });
  const int64_t blocks = a_blocks * b_blocks;
  const int64_t block_work = m * n * std::max<int64_t>(k, 1) / kMacsPerWork / blocks;
  parallel_for(0, blocks, block_work, [&](int64_t blk) { Isa::block(g, blk); });
  trim(s.apack);
  trim(s.bpack);
}

// Batches with disjoint C run in parallel, one whole GEMM per index, when
// there are enough of them to occupy every thread; otherwise each GEMM
// splits its own tiles.
template <class Isa, typename T>
void batched_impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                  const T* a, int64_t stride_a, const T* b, int64_t stride_b, float beta,
                  T* c, int64_t stride_c, int64_t batch) {
  LS2_CHECK(batch >= 0);
  const auto one = [&](int64_t i) {
    gemm_impl<Isa>(trans_a, trans_b, m, n, k, alpha, a + i * stride_a, b + i * stride_b, beta,
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

namespace detail {

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("f16c");
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
    case Isa::kBaseline:
      return true;
  }
  return false;
}

Isa host_isa() {
  static const Isa isa = isa_supported(Isa::kAvx512) ? Isa::kAvx512
                         : isa_supported(Isa::kAvx2) ? Isa::kAvx2
                                                     : Isa::kBaseline;
  return isa;
}

template <typename T>
void gemm(Isa isa, bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
          const T* a, const T* b, float beta, T* c) {
  with_isa(isa, [&](auto traits) {
    gemm_impl<decltype(traits)>(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
  });
}

template <typename T>
void gemm_strided_batched(Isa isa, bool trans_a, bool trans_b, int64_t m, int64_t n,
                          int64_t k, float alpha, const T* a, int64_t stride_a, const T* b,
                          int64_t stride_b, float beta, T* c, int64_t stride_c,
                          int64_t batch) {
  with_isa(isa, [&](auto traits) {
    batched_impl<decltype(traits)>(trans_a, trans_b, m, n, k, alpha, a, stride_a, b, stride_b,
                                   beta, c, stride_c, batch);
  });
}

template void gemm(Isa, bool, bool, int64_t, int64_t, int64_t, float, const float*,
                   const float*, float, float*);
template void gemm(Isa, bool, bool, int64_t, int64_t, int64_t, float, const Half*,
                   const Half*, float, Half*);
template void gemm_strided_batched(Isa, bool, bool, int64_t, int64_t, int64_t, float,
                                   const float*, int64_t, const float*, int64_t, float, float*,
                                   int64_t, int64_t);
template void gemm_strided_batched(Isa, bool, bool, int64_t, int64_t, int64_t, float,
                                   const Half*, int64_t, const Half*, int64_t, float, Half*,
                                   int64_t, int64_t);

}  // namespace detail

void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
           const float* a, const float* b, float beta, float* c) {
  detail::gemm(detail::host_isa(), trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void sgemm_strided_batched(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                           float alpha, const float* a, int64_t stride_a, const float* b,
                           int64_t stride_b, float beta, float* c, int64_t stride_c,
                           int64_t batch) {
  detail::gemm_strided_batched(detail::host_isa(), trans_a, trans_b, m, n, k, alpha, a,
                               stride_a, b, stride_b, beta, c, stride_c, batch);
}

void hgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
           const Half* a, const Half* b, float beta, Half* c) {
  detail::gemm(detail::host_isa(), trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void hgemm_strided_batched(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                           float alpha, const Half* a, int64_t stride_a, const Half* b,
                           int64_t stride_b, float beta, Half* c, int64_t stride_c,
                           int64_t batch) {
  detail::gemm_strided_batched(detail::host_isa(), trans_a, trans_b, m, n, k, alpha, a,
                               stride_a, b, stride_b, beta, c, stride_c, batch);
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
