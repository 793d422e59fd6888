#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ls2::data {

// ------------------------------------------------------------- MtDataset ---

MtDataset::MtDataset(int64_t vocab, int64_t size, int64_t min_len, int64_t max_len,
                     uint64_t seed)
    : vocab_(vocab), size_(size), min_len_(min_len), max_len_(max_len), rng_(seed) {
  LS2_CHECK_GT(vocab, kFirstWord + 1);
  LS2_CHECK(min_len >= 1 && min_len <= max_len);
}

int64_t MtDataset::length(int64_t i) const {
  // Log-normal-ish sentence lengths (WMT has median ~20, long tail).
  const float z = rng_.normal(/*stream=*/1, static_cast<uint64_t>(i));
  const double len = std::exp(std::log(static_cast<double>(min_len_ + max_len_) / 3.0) +
                              0.45 * static_cast<double>(z));
  return std::clamp<int64_t>(static_cast<int64_t>(len), min_len_, max_len_);
}

std::vector<int32_t> MtDataset::source(int64_t i) const {
  const int64_t len = length(i);
  std::vector<int32_t> s(static_cast<size_t>(len));
  const int64_t words = vocab_ - kFirstWord;
  for (int64_t j = 0; j < len; ++j) {
    s[static_cast<size_t>(j)] = static_cast<int32_t>(
        kFirstWord + rng_.randint(/*stream=*/2, static_cast<uint64_t>(i * 8192 + j), words));
  }
  return s;
}

std::vector<int32_t> MtDataset::target(int64_t i) const {
  // Deterministic learnable mapping: cyclic vocabulary shift by 7.
  std::vector<int32_t> t = source(i);
  const int64_t words = vocab_ - kFirstWord;
  for (int32_t& w : t) {
    w = static_cast<int32_t>(kFirstWord + ((w - kFirstWord) + 7) % words);
  }
  return t;
}

std::vector<models::MtBatch> make_mt_batches(const MtDataset& ds, int64_t max_tokens,
                                             DType /*dtype_unused*/, int seq_multiple) {
  // Each length is a normal draw: draw it once per sentence, not once per
  // comparison. The comparisons, and so the permutation, are unchanged.
  std::vector<int64_t> lengths(static_cast<size_t>(ds.size()));
  for (size_t i = 0; i < lengths.size(); ++i) lengths[i] = ds.length(static_cast<int64_t>(i));
  std::vector<int64_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return lengths[static_cast<size_t>(a)] < lengths[static_cast<size_t>(b)];
  });

  auto round_up = [&](int64_t len) {
    const int64_t m = std::max(1, seq_multiple);
    return (len + m - 1) / m * m;
  };

  std::vector<models::MtBatch> batches;
  size_t i = 0;
  while (i < order.size()) {
    // Greedy pack: padded target length is set by the longest (last) member.
    size_t j = i;
    int64_t max_len = 0;
    while (j < order.size()) {
      // +1 for the BOS/EOS shift.
      const int64_t cand_len = round_up(lengths[static_cast<size_t>(order[j])] + 1);
      const int64_t rows = static_cast<int64_t>(j - i + 1);
      if (rows * std::max(max_len, cand_len) > max_tokens && j > i) break;
      max_len = std::max(max_len, cand_len);
      ++j;
    }
    const int64_t B = static_cast<int64_t>(j - i);
    const int64_t L = max_len;

    std::vector<float> src(static_cast<size_t>(B * L), static_cast<float>(kPad));
    std::vector<float> tin(static_cast<size_t>(B * L), static_cast<float>(kPad));
    std::vector<float> tout(static_cast<size_t>(B * L), static_cast<float>(kPad));
    std::vector<float> slens(static_cast<size_t>(B)), tlens(static_cast<size_t>(B));
    int64_t tokens = 0;
    for (int64_t b = 0; b < B; ++b) {
      const int64_t idx = order[i + static_cast<size_t>(b)];
      const auto s = ds.source(idx);
      const auto t = ds.target(idx);
      const int64_t sl = static_cast<int64_t>(s.size());
      for (int64_t k = 0; k < sl; ++k)
        src[static_cast<size_t>(b * L + k)] = static_cast<float>(s[static_cast<size_t>(k)]);
      // Teacher forcing: tgt_in = [BOS, t...], tgt_out = [t..., EOS].
      tin[static_cast<size_t>(b * L)] = static_cast<float>(kBos);
      for (int64_t k = 0; k < sl; ++k) {
        tin[static_cast<size_t>(b * L + k + 1)] =
            static_cast<float>(t[static_cast<size_t>(k)]);
        tout[static_cast<size_t>(b * L + k)] = static_cast<float>(t[static_cast<size_t>(k)]);
      }
      tout[static_cast<size_t>(b * L + sl)] = static_cast<float>(kEos);
      slens[static_cast<size_t>(b)] = static_cast<float>(sl);
      tlens[static_cast<size_t>(b)] = static_cast<float>(sl + 1);
      tokens += sl + 1;
    }
    models::MtBatch batch;
    batch.src_ids = Tensor::from_vector(src, {B, L}, DType::kI32);
    batch.tgt_in = Tensor::from_vector(tin, {B, L}, DType::kI32);
    batch.tgt_out = Tensor::from_vector(tout, {B, L}, DType::kI32);
    batch.src_lens = Tensor::from_vector(slens, {B}, DType::kI32);
    batch.tgt_lens = Tensor::from_vector(tlens, {B}, DType::kI32);
    batch.tokens = tokens;
    batches.push_back(std::move(batch));
    i = j;
  }
  return batches;
}

const models::MtBatch& largest_batch(const std::vector<models::MtBatch>& batches) {
  LS2_CHECK(!batches.empty());
  size_t best = 0;
  int64_t best_elems = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    const int64_t elems = batches[i].src_ids.numel() + batches[i].tgt_in.numel();
    if (elems > best_elems) {
      best_elems = elems;
      best = i;
    }
  }
  return batches[best];
}

// ------------------------------------------------------------- LmDataset ---

LmDataset::LmDataset(int64_t vocab, int64_t tokens, uint64_t seed) : vocab_(vocab) {
  Rng rng(seed);
  stream_.resize(static_cast<size_t>(tokens));
  // Markov-ish stream: next token depends on the previous (learnable).
  int32_t prev = kFirstWord;
  const int64_t words = vocab - kFirstWord;
  for (int64_t i = 0; i < tokens; ++i) {
    const int64_t noise = rng.randint(1, static_cast<uint64_t>(i), 4);
    prev = static_cast<int32_t>(kFirstWord + ((prev - kFirstWord) * 3 + 1 + noise) % words);
    stream_[static_cast<size_t>(i)] = prev;
  }
}

models::LmBatch LmDataset::batch(int64_t index, int64_t batch_size, int64_t seq_len) const {
  const int64_t need = batch_size * (seq_len + 1);
  const int64_t start =
      (index * need) % std::max<int64_t>(1, static_cast<int64_t>(stream_.size()) - need - 1);
  std::vector<float> ids(static_cast<size_t>(batch_size * seq_len));
  std::vector<float> tgt(static_cast<size_t>(batch_size * seq_len));
  for (int64_t b = 0; b < batch_size; ++b) {
    for (int64_t l = 0; l < seq_len; ++l) {
      const size_t pos = static_cast<size_t>(start + b * (seq_len + 1) + l);
      ids[static_cast<size_t>(b * seq_len + l)] = static_cast<float>(stream_[pos]);
      tgt[static_cast<size_t>(b * seq_len + l)] = static_cast<float>(stream_[pos + 1]);
    }
  }
  models::LmBatch batch;
  batch.ids = Tensor::from_vector(ids, {batch_size, seq_len}, DType::kI32);
  batch.targets = Tensor::from_vector(tgt, {batch_size, seq_len}, DType::kI32);
  return batch;
}

// ------------------------------------------------------------ ClsDataset ---

ClsDataset::ClsDataset(int64_t vocab, int64_t size, int64_t max_len, uint64_t seed)
    : vocab_(vocab), size_(size), max_len_(max_len), rng_(seed) {}

models::ClsBatch ClsDataset::batch(int64_t index, int64_t batch_size, int64_t seq_len) const {
  LS2_CHECK_LE(seq_len, max_len_);
  std::vector<float> ids(static_cast<size_t>(batch_size * seq_len),
                         static_cast<float>(kPad));
  std::vector<float> lens(static_cast<size_t>(batch_size));
  std::vector<float> labels(static_cast<size_t>(batch_size));
  const int64_t words = vocab_ - kFirstWord;
  const int64_t half = (seq_len - 2) / 2;
  for (int64_t b = 0; b < batch_size; ++b) {
    const uint64_t ex = static_cast<uint64_t>(index * batch_size + b);
    const bool positive = rng_.bits(7, ex) & 1;
    ids[static_cast<size_t>(b * seq_len)] = static_cast<float>(kBos);  // [CLS]
    for (int64_t k = 0; k < half; ++k) {
      int32_t w = static_cast<int32_t>(
          kFirstWord + rng_.randint(8, ex * 512 + static_cast<uint64_t>(k), words));
      if (k == 0) {
        // Make the label linearly recoverable from the lead token's parity
        // (keeps tiny test models learnable) while the pair structure below
        // still follows the label as in MRPC.
        const int64_t off = (w - kFirstWord) & ~int64_t{1};
        w = static_cast<int32_t>(kFirstWord + (off + (positive ? 1 : 0)) % words);
      }
      ids[static_cast<size_t>(b * seq_len + 1 + k)] = static_cast<float>(w);
      // Second sentence: paraphrase (shift by 5) if positive, random else.
      const int32_t w2 =
          positive ? static_cast<int32_t>(kFirstWord + ((w - kFirstWord) + 5) % words)
                   : static_cast<int32_t>(kFirstWord +
                                          rng_.randint(9, ex * 512 + static_cast<uint64_t>(k),
                                                       words));
      ids[static_cast<size_t>(b * seq_len + 1 + half + k)] = static_cast<float>(w2);
    }
    lens[static_cast<size_t>(b)] = static_cast<float>(1 + 2 * half);
    labels[static_cast<size_t>(b)] = positive ? 1.0f : 0.0f;
  }
  models::ClsBatch batch;
  batch.ids = Tensor::from_vector(ids, {batch_size, seq_len}, DType::kI32);
  batch.lens = Tensor::from_vector(lens, {batch_size}, DType::kI32);
  batch.labels = Tensor::from_vector(labels, {batch_size}, DType::kI32);
  return batch;
}

// ---------------------------------------------------------- ImageDataset ---

ImageDataset::ImageDataset(int64_t classes, int64_t size, uint64_t seed)
    : classes_(classes), size_(size), rng_(seed) {}

models::ImageBatch ImageDataset::batch(int64_t index, int64_t batch_size,
                                       const models::VitConfig& cfg, DType dtype,
                                       simgpu::ExecMode mode) const {
  const int64_t P = cfg.patches(), PD = cfg.patch_dim();
  const DType patch_dtype = dtype == DType::kF16 ? DType::kF16 : DType::kF32;
  const bool pixels = mode == simgpu::ExecMode::kExecute;
  std::vector<float> patches(pixels ? static_cast<size_t>(batch_size * P * PD) : 0);
  std::vector<float> labels(static_cast<size_t>(batch_size));
  for (int64_t b = 0; b < batch_size; ++b) {
    const uint64_t ex = static_cast<uint64_t>(index * batch_size + b);
    const int64_t cls = rng_.randint(1, ex, classes_);
    labels[static_cast<size_t>(b)] = static_cast<float>(cls);
    if (!pixels) continue;
    // Class-dependent low-frequency structure + noise.
    for (int64_t p = 0; p < P; ++p) {
      const float mean = 0.3f * std::sin(0.7f * static_cast<float>(cls + 1) *
                                         static_cast<float>(p + 1));
      for (int64_t d = 0; d < PD; ++d) {
        patches[static_cast<size_t>((b * P + p) * PD + d)] =
            mean + 0.1f * rng_.normal(20, ex * 131072 + static_cast<uint64_t>(p * PD + d));
      }
    }
  }
  models::ImageBatch batch;
  batch.patches = pixels ? Tensor::from_vector(patches, {batch_size, P, PD}, patch_dtype)
                         : Tensor::empty({batch_size, P, PD}, patch_dtype,
                                         uncommitted_allocator());
  batch.labels = Tensor::from_vector(labels, {batch_size}, DType::kI32);
  return batch;
}

}  // namespace ls2::data
