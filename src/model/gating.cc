#include "src/model/gating.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/logging.h"
#include "src/cpu/activation.h"

namespace ktx {

namespace {

struct Scored {
  int expert;
  float score;      // used for the output weight
  float selection;  // used for ranking (score + bias for DS-3)
};

void SoftmaxTopK(const MoeModelConfig& config, const float* logits, std::vector<Scored>* out) {
  std::vector<float> probs(logits, logits + config.num_experts);
  Softmax(probs.data(), config.num_experts);
  std::vector<int> idx(static_cast<std::size_t>(config.num_experts));
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + config.top_k, idx.end(),
                    [&](int a, int b) { return probs[a] > probs[b]; });
  out->clear();
  for (int s = 0; s < config.top_k; ++s) {
    const int e = idx[static_cast<std::size_t>(s)];
    out->push_back(Scored{e, probs[static_cast<std::size_t>(e)],
                          probs[static_cast<std::size_t>(e)]});
  }
}

void GroupedSigmoidTopK(const MoeModelConfig& config, const float* logits, const float* bias,
                        std::vector<Scored>* out) {
  const int experts = config.num_experts;
  const int groups = config.n_group;
  KTX_CHECK_EQ(experts % groups, 0);
  const int per_group = experts / groups;

  std::vector<float> scores(static_cast<std::size_t>(experts));
  std::vector<float> selection(static_cast<std::size_t>(experts));
  for (int e = 0; e < experts; ++e) {
    scores[static_cast<std::size_t>(e)] = 1.0f / (1.0f + std::exp(-logits[e]));
    selection[static_cast<std::size_t>(e)] =
        scores[static_cast<std::size_t>(e)] + (bias != nullptr ? bias[e] : 0.0f);
  }

  // Group score = sum of the group's top-2 selection scores.
  std::vector<std::pair<float, int>> group_scores;
  for (int g = 0; g < groups; ++g) {
    float best = -1e30f;
    float second = -1e30f;
    for (int i = 0; i < per_group; ++i) {
      const float v = selection[static_cast<std::size_t>(g * per_group + i)];
      if (v > best) {
        second = best;
        best = v;
      } else if (v > second) {
        second = v;
      }
    }
    group_scores.emplace_back(best + (per_group > 1 ? second : 0.0f), g);
  }
  std::partial_sort(group_scores.begin(), group_scores.begin() + config.topk_group,
                    group_scores.end(), std::greater<>());

  std::vector<int> eligible;
  for (int gi = 0; gi < config.topk_group; ++gi) {
    const int g = group_scores[static_cast<std::size_t>(gi)].second;
    for (int i = 0; i < per_group; ++i) {
      eligible.push_back(g * per_group + i);
    }
  }
  std::partial_sort(eligible.begin(), eligible.begin() + config.top_k, eligible.end(),
                    [&](int a, int b) {
                      return selection[static_cast<std::size_t>(a)] >
                             selection[static_cast<std::size_t>(b)];
                    });
  out->clear();
  float sum = 0.0f;
  for (int s = 0; s < config.top_k; ++s) {
    const int e = eligible[static_cast<std::size_t>(s)];
    sum += scores[static_cast<std::size_t>(e)];
    out->push_back(
        Scored{e, scores[static_cast<std::size_t>(e)], selection[static_cast<std::size_t>(e)]});
  }
  // Normalize weights over the selected set (bias affects selection only).
  for (Scored& sc : *out) {
    sc.score = sum > 0.0f ? sc.score / sum : 1.0f / config.top_k;
  }
}

}  // namespace

MoeRouting ComputeRouting(const MoeModelConfig& config, const Projection& proj,
                          const Tensor& router, const Tensor& bias, const float* x,
                          std::int64_t tokens) {
  KTX_CHECK_EQ(router.dim(0), config.num_experts);
  KTX_CHECK_EQ(router.dim(1), config.hidden);
  MoeRouting routing;
  routing.tokens = tokens;
  routing.top_k = config.top_k;
  routing.expert_ids.reserve(static_cast<std::size_t>(tokens * config.top_k));
  routing.weights.reserve(static_cast<std::size_t>(tokens * config.top_k));

  std::vector<float> logits(static_cast<std::size_t>(tokens * config.num_experts));
  proj.Apply(router, x, tokens, config.hidden, logits.data(), config.num_experts);
  std::vector<Scored> scored;
  const float* bias_ptr = bias.numel() == config.num_experts ? bias.f32() : nullptr;
  for (std::int64_t t = 0; t < tokens; ++t) {
    const float* row = logits.data() + t * config.num_experts;
    if (config.gating == GatingKind::kSoftmaxTopK) {
      SoftmaxTopK(config, row, &scored);
    } else {
      GroupedSigmoidTopK(config, row, bias_ptr, &scored);
    }
    // Slots ordered by descending selection score (deferral depends on this).
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) { return a.selection > b.selection; });
    for (const Scored& s : scored) {
      routing.expert_ids.push_back(s.expert);
      routing.weights.push_back(s.score * config.routed_scaling);
    }
  }
  return routing;
}

}  // namespace ktx
