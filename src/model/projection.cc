#include "src/model/projection.h"

#include <optional>

#include "src/common/logging.h"
#include "src/cpu/gemm.h"

namespace ktx {

namespace {

class RefGemmProjection final : public Projection {
 public:
  void Apply(const Tensor& w, const float* x, std::int64_t m, std::int64_t ldx, float* y,
             std::int64_t ldy) const override {
    RefGemm(x, m, ldx, w, y, ldy);
  }
};

}  // namespace

const Projection& RefProjection() {
  static const RefGemmProjection projection;
  return projection;
}

PackedProjection::PackedProjection()
    : variant_(&ResolveKernelVariant(KernelKind::kAvx512, KernelImpl::kAuto, DType::kF32)) {
  if (const std::optional<ForcedKernel> forced = ForcedKernelFromEnv()) {
    variant_ = &ResolveKernelVariant(forced->kind, forced->impl, DType::kF32);
  }
}

void PackedProjection::Add(const Tensor& w) {
  if (w.empty() || packed_.count(w.f32()) > 0) {
    return;
  }
  auto packed = PackedMatrix::Pack(w, DType::kF32);
  KTX_CHECK(packed.ok()) << packed.status().ToString();
  packed_.emplace(w.f32(), std::move(*packed));
}

void PackedProjection::Apply(const Tensor& w, const float* x, std::int64_t m, std::int64_t ldx,
                             float* y, std::int64_t ldy) const {
  const auto it = packed_.find(w.f32());
  KTX_CHECK(it != packed_.end()) << "projection weight was never packed";
  const PackedMatrix& pm = it->second;
  KTX_CHECK(pm.n() == w.dim(0) && pm.k() == w.dim(1)) << "packed weight shape mismatch";
  if (m <= 0) {
    return;
  }
  variant_->gemm(x, m, ldx, pm, y, ldy, /*accumulate=*/false, 0, pm.n_blocks(), nullptr, 0);
}

}  // namespace ktx
