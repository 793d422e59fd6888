#include "layers/tp.h"

namespace ls2::layers {

TpParam TpParam::plain(ParamRegistry& reg, ParamRef ref) {
  TpParam p;
  p.reg_ = &reg;
  p.ref_ = ref;
  p.shard_count_ = reg.shard_spec(ref).count;
  return p;
}

TpParam TpParam::declare(ParamRegistry& reg, const TpDecl& tp, const std::string& name,
                         Shape full_shape, Init init, int dim, int64_t groups) {
  TpParam p;
  p.reg_ = &reg;
  p.shard_count_ = tp.size;
  if (!tp.enabled()) {
    p.ref_ = reg.declare(name, std::move(full_shape), init);
    return p;
  }
  ShardSpec spec;
  spec.dim = dim;
  spec.groups = groups;
  spec.count = tp.size;
  spec.index = 0;
  p.ref_ = reg.declare_sharded(name, full_shape, init, spec);
  if (tp.peers != nullptr) {
    p.peers_ = tp.peers;
    const int64_t stream = 9000 + p.ref_.index;  // rank 0's init stream
    for (int r = 1; r < tp.size; ++r) {
      spec.index = r;
      p.peer_refs_.push_back(tp.peers->declare_sharded(
          name + ".tp" + std::to_string(r), full_shape, init, spec, stream));
    }
  }
  return p;
}

const Shape& TpParam::full_shape() const {
  LS2_CHECK(valid());
  return reg_->full_shape(ref_);
}

std::vector<std::pair<const ParamRegistry*, ParamRef>> TpParam::all_shards() const {
  std::vector<std::pair<const ParamRegistry*, ParamRef>> shards;
  shards.emplace_back(reg_, ref_);
  for (ParamRef r : peer_refs_) shards.emplace_back(peers_, r);
  return shards;
}

Tensor TpParam::value(LayerContext& ctx) const {
  LS2_CHECK(valid());
  if (!sharded()) return reg_->value(ref_);
  Tensor full = ctx.alloc_host(full_shape(), reg_->dtype());
  if (!full.backs_real_memory()) return full;
  LS2_CHECK(peers_ != nullptr)
      << "executing a TP model without simulated peer shards ('" << reg_->name(ref_)
      << "') — peer registries are required outside model-only runs";
  for (const auto& [reg, ref] : all_shards()) {
    copy_full_from_shard(reg->value(ref), full, reg->shard_spec(ref));
  }
  return full;
}

TpParam::GradScope::GradScope(const TpParam& p, LayerContext& ctx) : param_(&p) {
  LS2_CHECK(p.valid());
  if (!p.sharded()) {
    full_ = p.reg_->grad(p.ref_);
    return;
  }
  full_ = ctx.alloc_host(p.full_shape(), p.reg_->dtype());
  if (!full_.backs_real_memory()) return;
  LS2_CHECK(p.peers_ != nullptr)
      << "executing a TP model without simulated peer shards ('"
      << p.reg_->name(p.ref_) << "')";
  for (const auto& [reg, ref] : p.all_shards()) {
    copy_full_from_shard(reg->grad(ref), full_, reg->shard_spec(ref));
  }
  scatter_ = true;
}

TpParam::GradScope::GradScope(GradScope&& o) noexcept
    : param_(o.param_), scatter_(o.scatter_), full_(o.full_) {
  o.scatter_ = false;
  o.param_ = nullptr;
}

TpParam::GradScope::~GradScope() {
  if (!scatter_) return;
  for (const auto& [reg, ref] : param_->all_shards()) {
    copy_shard_from_full(full_, reg->grad(ref), reg->shard_spec(ref));
  }
}

}  // namespace ls2::layers
