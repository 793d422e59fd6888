// Token + position embedding layer (§IV-A.2):
//   y = Dropout(sqrt(H) * E[token] + P[position]).
// The token table is a trainable parameter (often tied with the output
// projection); the positional table is sinusoidal and fixed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "layers/layer_context.h"
#include "layers/params.h"
#include "layers/tp.h"

namespace ls2::layers {

struct EmbeddingConfig {
  int64_t vocab = 32000;
  int64_t hidden = 512;
  int64_t max_len = 1024;
  float dropout = 0.1f;
  int32_t pad_id = 0;
  /// Vocab-shards the token table (Megatron's tied-embedding discipline:
  /// each rank owns vocab/tp rows; the lookup's partial rows sum over one
  /// forward TP all-reduce — exact, every row has a single owner — and the
  /// scatter-add backward stays local). Requires vocab % tp.size == 0 (pad
  /// the vocab, as Megatron does).
  TpDecl tp;
};

class EmbeddingLayer {
 public:
  /// `tied_table` shares another embedding's token table (e.g. source and
  /// target embeddings of a shared-vocabulary translation model).
  EmbeddingLayer(ParamRegistry& params, const std::string& prefix, EmbeddingConfig cfg,
                 TpParam tied_table = {});

  /// Lazily builds the sinusoidal table on first use (host init, not a
  /// device kernel; skipped while kernel bodies are skipped).
  Tensor forward(LayerContext& ctx, const Tensor& ids);
  void backward(LayerContext& ctx, const Tensor& dy);
  void release();

  /// Serving prefill: the forward lookup at dropout p = 0, nothing saved.
  Tensor prefill(LayerContext& ctx, const Tensor& ids);
  /// Serving decode: one token per slot (ids [S, 1]) at per-slot positions
  /// (i32 [S] — each sequence's next index), no dropout.
  Tensor decode_step(LayerContext& ctx, const Tensor& ids, const Tensor& positions);

  /// The token table parameter — shared with the output projection when
  /// embeddings are tied.
  const TpParam& table() const { return table_; }
  /// The sinusoidal position table (undefined before the first forward).
  const Tensor& positions() const { return pos_; }
  const EmbeddingConfig& config() const { return cfg_; }

 private:
  /// Build pos_ for the table's dtype if not already present. Outside
  /// kExecute the table is uncommitted and left unfilled; it is rebuilt
  /// once the device switches to kExecute.
  void ensure_positions(LayerContext& ctx, DType dtype);

  EmbeddingConfig cfg_;
  ParamRegistry* params_;
  TpParam table_;
  Tensor pos_;  // sinusoidal, fixed

  struct Saved {
    Tensor ids, mask;
  };
  std::optional<Saved> saved_;
  /// Per-microbatch scatter inputs held back under pipeline parallelism —
  /// flushed in microbatch order on the step's last backward (see
  /// backward() for why the table's addition chain requires this).
  struct Deferred {
    Tensor dy, ids, mask;
  };
  std::vector<Deferred> deferred_;
};

}  // namespace ls2::layers
