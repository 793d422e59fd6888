// Fig. 12: ViT-B/32 and ViT-L/32 speedup over Hugging Face on image
// classification (samples/sec), batch sizes 16..256, 8x V100.
// Hugging Face runs native PyTorch ops == the Fairseq kernel policy.
#include "bench_common.h"

using namespace ls2;
using namespace ls2::bench;

namespace {

struct VitPerf {
  double samples_per_sec = 0;
  bool oom = false;
};

VitPerf measure_vit(System system, const models::VitConfig& cfg, int64_t batch) {
  VitPerf perf;
  try {
    SessionConfig sc;
    sc.system = system;
    sc.profile = simgpu::v100();
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.dtype = DType::kF16;
    Session session(sc);
    models::Vit model(cfg, system, DType::kF16, 21, session.param_alloc());
    optim::OptimConfig ocfg;
    auto trainer = optim::make_trainer(system, model.params(), ocfg, session.param_alloc());
    data::ImageDataset ds(cfg.num_classes, 512, 21);
    auto b = ds.batch(0, batch, cfg, DType::kF16, sc.mode);
    const dist::ClusterConfig cluster{8, 1};
    (void)core::train_step(session, model, b, *trainer, cluster);
    const double t0 = session.device().clock_us();
    (void)core::train_step(session, model, b, *trainer, cluster);
    const double step_us = session.device().clock_us() - t0;
    perf.samples_per_sec =
        static_cast<double>(batch) * cluster.total_gpus() / (step_us * 1e-6);
  } catch (const mem::OutOfMemory&) {
    perf.oom = true;
  }
  return perf;
}

void run_panel(const char* name, const models::VitConfig& cfg) {
  print_header(std::string("Fig. 12: ") + name +
               " on CIFAR-style 224x224, 8x V100 — speedup vs Hugging Face");
  std::printf("%-10s %16s %16s %10s\n", "batch", "HF (samples/s)", "LS2 (samples/s)",
              "speedup");
  for (int64_t batch : {16, 32, 64, 128, 256}) {
    const VitPerf hf = measure_vit(System::kFairseq, cfg, batch);
    const VitPerf ls2 = measure_vit(System::kLightSeq2, cfg, batch);
    if (hf.oom || ls2.oom) {
      std::printf("%-10lld %16s %16s %10s\n", static_cast<long long>(batch), "OOM", "OOM",
                  "-");
      continue;
    }
    std::printf("%-10lld %16.1f %16.1f %9.2fx\n", static_cast<long long>(batch),
                hf.samples_per_sec, ls2.samples_per_sec,
                ls2.samples_per_sec / hf.samples_per_sec);
  }
}

}  // namespace

static int bench_body() {
  run_panel("ViT-B/32", models::VitConfig::b32());
  run_panel("ViT-L/32", models::VitConfig::l32());
  std::printf("\nPaper reference: 1.2-1.7x (B/32) and 1.2-1.5x (L/32); speedup decreases\n"
              "as batch size grows because GEMM's share of the step rises.\n");
  return 0;
}

int main() { return ls2::bench::guarded_main("fig12_vit", bench_body); }
