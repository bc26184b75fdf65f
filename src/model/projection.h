// The matrix products of the shared layer code: y[m, n] = x[m, k] W^T for a
// model weight W [n, k] (attention projections, dense / shared-expert FFN,
// router, lm_head).
//
// The layer code (attention.h, DenseFfnAdd, ComputeRouting) is written once
// and takes the projection as a parameter, so the same code serves two
// callers:
//   * RefModel runs it on RefProjection(): the scalar, double-accumulated
//     RefGemm, which keeps the reference independent of every kernel the
//     engine runs;
//   * the hybrid engine's vGPU runs it on a PackedProjection it owns: every
//     weight the vGPU multiplies is packed once, at engine construction, into
//     the k-major kF32 layout, and each product is one call into a registered
//     f32 kernel (kernel_registry.h).
//
// Row independence: under either projection, output row i depends only on
// input row i and W. RefGemm sums each output in double; every f32 kernel
// runs one ascending-k fma chain per output (gemm.h). So a product over m
// rows is bit-identical to m one-row products, which is what keeps batched,
// chunked, prefix-reused and graph-replayed engine passes bit-exact with
// each other.

#ifndef KTX_SRC_MODEL_PROJECTION_H_
#define KTX_SRC_MODEL_PROJECTION_H_

#include <cstdint>
#include <unordered_map>

#include "src/cpu/kernel_registry.h"
#include "src/cpu/layout.h"
#include "src/tensor/tensor.h"

namespace ktx {

class Projection {
 public:
  // y[m, w.dim(0)] (leading dim ldy) = x[m, w.dim(1)] (leading dim ldx) * W^T.
  virtual void Apply(const Tensor& w, const float* x, std::int64_t m, std::int64_t ldx,
                     float* y, std::int64_t ldy) const = 0;

 protected:
  ~Projection() = default;  // never owned or deleted through the interface
};

// RefGemm: the double-accumulated reference (stateless, one instance).
const Projection& RefProjection();

// Weights packed once into the registry's f32 kernels. Apply is const and
// reads only immutable state, so concurrent stream workers may share one.
class PackedProjection final : public Projection {
 public:
  // Runs on kAvx512 x kAuto, which falls back to AVX2 and then the scalar
  // emulation, unless KTX_FORCE_KERNEL names a variant, as it does for the
  // CPU MoE. Every f32 variant computes the same fma chain, so the choice
  // never changes an output bit.
  PackedProjection();

  // Packs rank-2 f32 `w` for later Apply calls. Empty tensors (weights the
  // architecture does not use) and weights already packed are skipped.
  void Add(const Tensor& w);

  // CHECK-fails for a weight that was never Add()ed: there is no unpacked
  // fallback, so a missed weight cannot silently run on reference math.
  void Apply(const Tensor& w, const float* x, std::int64_t m, std::int64_t ldx, float* y,
             std::int64_t ldy) const override;

  const KernelVariant& variant() const { return *variant_; }

 private:
  const KernelVariant* variant_;
  // Keyed by the weight's storage: the model's weights outlive the engine
  // that packs them, and tensor copies share storage.
  std::unordered_map<const float*, PackedMatrix> packed_;
};

}  // namespace ktx

#endif  // KTX_SRC_MODEL_PROJECTION_H_
