// Expert routing (paper §2.1).
//
// Two gating flavours cover the evaluated models:
//   * kSoftmaxTopK (DeepSeek-V2, Qwen2): softmax over router logits, top-k
//     experts, weights renormalized over the selected set;
//   * kGroupedSigmoidTopK (DeepSeek-V3): sigmoid scores, experts organized in
//     n_group groups, only the topk_group best groups (by sum of their top-2
//     scores) stay eligible, then top-k within the survivors; weights are the
//     selected scores renormalized and scaled by routed_scaling.
//
// Routing slots come out sorted by descending score. Expert Deferral (§4.1)
// relies on this order: the immediate experts are the highest-scored slots.

#ifndef KTX_SRC_MODEL_GATING_H_
#define KTX_SRC_MODEL_GATING_H_

#include "src/cpu/moe_cpu.h"
#include "src/model/config.h"
#include "src/model/projection.h"
#include "src/tensor/tensor.h"

namespace ktx {

// Computes routing for `tokens` rows of x (f32, [tokens, hidden]).
// `router` is [num_experts, hidden]; `bias` is [num_experts] (grouped gating
// selection bias; pass an empty tensor when unused). The router logits are
// one `proj` product over all rows.
MoeRouting ComputeRouting(const MoeModelConfig& config, const Projection& proj,
                          const Tensor& router, const Tensor& bias, const float* x,
                          std::int64_t tokens);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_GATING_H_
