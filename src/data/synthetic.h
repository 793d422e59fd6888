// Synthetic workload generators standing in for the paper's datasets
// (DESIGN.md §2). Each reproduces the *shape statistics* that drive the
// optimisations under test — variable sentence lengths, token-based
// batching, fixed ViT patch grids — plus a learnable deterministic mapping
// so convergence tests and examples have a real signal to fit.
//
//   WMT14 En-De        -> MtDataset (log-normal lengths, token batching)
//   WikiText LM        -> LmDataset (contiguous token stream, fixed chunks)
//   GLUE/MRPC          -> ClsDataset (sentence pairs, parity-style label)
//   CIFAR-10 at 224^2  -> ImageDataset (class-dependent patch statistics)
#pragma once

#include <vector>

#include "models/bert.h"
#include "models/gpt2.h"
#include "models/transformer.h"
#include "models/vit.h"
#include "simgpu/device.h"
#include "tensor/random.h"

namespace ls2::data {

/// Special token ids shared by all text generators.
constexpr int32_t kPad = 0;
constexpr int32_t kBos = 1;
constexpr int32_t kEos = 2;
constexpr int32_t kFirstWord = 3;

/// Variable-length translation pairs. Target is a deterministic per-token
/// mapping of the source (a cyclic shift in vocabulary space), so a model
/// must learn token identity + alignment — enough signal for loss curves.
class MtDataset {
 public:
  MtDataset(int64_t vocab, int64_t size, int64_t min_len, int64_t max_len, uint64_t seed);

  int64_t size() const { return size_; }
  int64_t max_len() const { return max_len_; }
  int64_t vocab() const { return vocab_; }

  int64_t length(int64_t i) const;  ///< source length of sentence i
  std::vector<int32_t> source(int64_t i) const;
  std::vector<int32_t> target(int64_t i) const;  ///< same length, shifted vocab

 private:
  int64_t vocab_, size_, min_len_, max_len_;
  Rng rng_;
};

/// Fairseq-style token batching: sentences sorted by length and packed until
/// the batch holds ~max_tokens target tokens; sequences padded to the batch
/// max (rounded up to `seq_multiple` — DeepSpeed's ×16 restriction).
std::vector<models::MtBatch> make_mt_batches(const MtDataset& ds, int64_t max_tokens,
                                             DType dtype_unused, int seq_multiple = 1);

/// Largest batch (by padded token count) — the capacity-scan probe (§IV-D).
const models::MtBatch& largest_batch(const std::vector<models::MtBatch>& batches);

/// Language-model stream chopped into fixed [B, L] blocks; target is the
/// next token.
class LmDataset {
 public:
  LmDataset(int64_t vocab, int64_t tokens, uint64_t seed);
  models::LmBatch batch(int64_t index, int64_t batch_size, int64_t seq_len) const;

 private:
  int64_t vocab_;
  std::vector<int32_t> stream_;
};

/// MRPC-like sentence-pair classification: [CLS] a [SEP] b, label = whether
/// the second sentence is the (shifted) paraphrase of the first.
class ClsDataset {
 public:
  ClsDataset(int64_t vocab, int64_t size, int64_t max_len, uint64_t seed);
  models::ClsBatch batch(int64_t index, int64_t batch_size, int64_t seq_len) const;

 private:
  int64_t vocab_, size_, max_len_;
  Rng rng_;
};

/// CIFAR-like images resized to `image`², served as patch vectors with
/// class-dependent means so a classifier has signal.
class ImageDataset {
 public:
  ImageDataset(int64_t classes, int64_t size, uint64_t seed);
  /// Outside kExecute no kernel body reads the pixels, so the patches are
  /// backed by uncommitted memory and never drawn; the labels stay real.
  models::ImageBatch batch(int64_t index, int64_t batch_size, const models::VitConfig& cfg,
                           DType dtype,
                           simgpu::ExecMode mode = simgpu::ExecMode::kExecute) const;

 private:
  int64_t classes_, size_;
  Rng rng_;
};

}  // namespace ls2::data
