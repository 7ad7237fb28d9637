// Unit tests: model descriptors and per-module work calculators.
#include <gtest/gtest.h>

#include "model/llm.h"
#include "model/modules.h"

namespace hetis::model {

// Parameterized suites print their `const ModelSpec*` param by model name,
// not by address, so test names are the same in every build.
void PrintTo(const ModelSpec* m, std::ostream* os) { *os << m->name; }

namespace {

TEST(ModelSpec, ParamCountsMatchPublishedSizes) {
  // Within a few percent of the nominal parameter counts.
  EXPECT_NEAR(opt_2_7b().param_count() / 1e9, 2.7, 0.15);
  EXPECT_NEAR(opt_13b().param_count() / 1e9, 13.0, 0.7);
  EXPECT_NEAR(opt_30b().param_count() / 1e9, 30.0, 1.5);
  EXPECT_NEAR(llama_13b().param_count() / 1e9, 13.0, 0.7);
  EXPECT_NEAR(llama2_7b().param_count() / 1e9, 6.7, 0.5);
  EXPECT_NEAR(llama_70b().param_count() / 1e9, 69.0, 3.0);
}

TEST(ModelSpec, GqaConfiguration) {
  EXPECT_TRUE(llama_70b().is_gqa());
  EXPECT_EQ(llama_70b().gqa_ratio(), 8);
  EXPECT_FALSE(llama_13b().is_gqa());
  EXPECT_EQ(llama_13b().gqa_ratio(), 1);
  EXPECT_EQ(opt_30b().gqa_ratio(), 1);
}

TEST(ModelSpec, HeadDim) {
  EXPECT_EQ(llama_70b().head_dim(), 128);
  EXPECT_EQ(opt_2_7b().head_dim(), 80);
  EXPECT_EQ(llama_13b().head_dim(), 128);
}

TEST(ModelSpec, KvBytesPerToken) {
  // OPT-2.7B MHA: 2 * hidden * 2B per layer.
  EXPECT_EQ(opt_2_7b().kv_bytes_per_token_layer(), 2 * 2560 * 2);
  // Llama-70B GQA: kv_dim = 8 * 128 = 1024, so 2 * 1024 * 2B per layer.
  EXPECT_EQ(llama_70b().kv_bytes_per_token_layer(), 2 * 1024 * 2);
  EXPECT_EQ(llama_70b().kv_bytes_per_token(),
            llama_70b().kv_bytes_per_token_layer() * 80);
}

TEST(ModelSpec, GqaShrinksKvCache) {
  // The paper notes GQA models consume far less KV per token.
  double mha_like = 2.0 * llama_70b().hidden * 2;  // hypothetical MHA 70B
  EXPECT_LT(llama_70b().kv_bytes_per_token_layer(), mha_like / 7.9);
}

TEST(ModelSpec, LookupByName) {
  EXPECT_EQ(model_by_name("Llama-70B").heads, 64);
  EXPECT_EQ(model_by_name("OPT-30B").layers, 48);
  EXPECT_THROW(model_by_name("GPT-5"), std::out_of_range);
}

TEST(ModelSpec, KvBytesPerHeadShare) {
  const ModelSpec& m = llama_70b();
  // Head-wise accounting splits per-token KV across the 64 query heads.
  EXPECT_DOUBLE_EQ(m.kv_bytes_per_token_layer_per_head() * m.heads,
                   static_cast<double>(m.kv_bytes_per_token_layer()));
}

// --- Work calculators ---

TEST(Work, QkvFlopsFormula) {
  const ModelSpec& m = opt_2_7b();  // MHA: out dim = 3h
  Work w = qkv_work(m, 10);
  EXPECT_DOUBLE_EQ(w.flops, 2.0 * 10 * 2560 * (3 * 2560));
  EXPECT_EQ(w.weight_bytes, static_cast<Bytes>(2560) * 3 * 2560 * 2);
}

TEST(Work, QkvGqaShrinksKvProjection) {
  const ModelSpec& m = llama_70b();
  Work w = qkv_work(m, 1);
  // out dim = h + 2*kv_dim = 8192 + 2048.
  EXPECT_DOUBLE_EQ(w.flops, 2.0 * 8192 * (8192 + 2048));
}

TEST(Work, ShardDividesDenseWork) {
  const ModelSpec& m = llama_13b();
  Work full = mlp_work(m, 64, 1);
  Work half = mlp_work(m, 64, 2);
  EXPECT_NEAR(half.flops, full.flops / 2, 1.0);
  EXPECT_NEAR(static_cast<double>(half.weight_bytes),
              static_cast<double>(full.weight_bytes) / 2, 2.0);
}

TEST(Work, GatedMlpHasThreeMatrices) {
  Work gated = mlp_work(llama_13b(), 1, 1);
  EXPECT_EQ(gated.kernels, 3);
  Work standard = mlp_work(opt_13b(), 1, 1);
  EXPECT_EQ(standard.kernels, 2);
}

TEST(Work, DenseLayerIsSumOfModules) {
  const ModelSpec& m = opt_30b();
  Work total = dense_layer_work(m, 32, 2);
  Work sum = qkv_work(m, 32, 2) + out_proj_work(m, 32, 2) + mlp_work(m, 32, 2);
  EXPECT_DOUBLE_EQ(total.flops, sum.flops);
  EXPECT_EQ(total.weight_bytes, sum.weight_bytes);
}

TEST(Work, DenseLayerApproximatesTwoParamFlopsPerToken) {
  // Rule of thumb: dense flops/token ~= 2 * params (per layer, layer share).
  const ModelSpec& m = opt_2_7b();
  Work w = dense_layer_work(m, 1);
  double per_layer_params = static_cast<double>(m.layer_param_bytes()) / m.dtype_bytes;
  EXPECT_NEAR(w.flops / (2.0 * per_layer_params), 1.0, 0.05);
}

TEST(Work, DecodeAttentionLinearInContext) {
  const ModelSpec& m = opt_30b();
  Work a = decode_attention_work(m, 100, 8);
  Work b = decode_attention_work(m, 200, 8);
  EXPECT_DOUBLE_EQ(b.flops, 2 * a.flops);
  EXPECT_EQ(b.kv_bytes, 2 * a.kv_bytes);
}

TEST(Work, DecodeAttentionLinearInHeads) {
  const ModelSpec& m = opt_30b();
  Work a = decode_attention_work(m, 128, 4);
  Work b = decode_attention_work(m, 128, 8);
  EXPECT_DOUBLE_EQ(b.flops, 2 * a.flops);
  EXPECT_EQ(b.kv_bytes, 2 * a.kv_bytes);
}

TEST(Work, GqaSharesKvAcrossQueryHeads) {
  const ModelSpec& m = llama_70b();  // r = 8
  Work w = decode_attention_work(m, 1000, 8);
  // 8 query heads touch 1 KV head's cache: 2 * 1000 * 128 * 2B.
  EXPECT_EQ(w.kv_bytes, static_cast<Bytes>(2) * 1000 * 128 * 2);
}

TEST(Work, PrefillAttentionQuadratic) {
  const ModelSpec& m = llama_13b();
  Work a = prefill_attention_work(m, 100, m.heads);
  Work b = prefill_attention_work(m, 200, m.heads);
  EXPECT_DOUBLE_EQ(b.flops, 4 * a.flops);
}

TEST(Work, BatchSumsMatchLoop) {
  const ModelSpec& m = opt_13b();
  std::vector<std::int64_t> lens{100, 250, 640};
  Work batch = prefill_attention_batch(m, lens, 4);
  double flops = 0;
  for (auto len : lens) flops += prefill_attention_work(m, len, 4).flops;
  EXPECT_DOUBLE_EQ(batch.flops, flops);
  EXPECT_EQ(batch.kernels, 1);  // batched kernel launches once
}

TEST(Work, ModuleNames) {
  EXPECT_STREQ(to_string(Module::kMlp), "MLP");
  EXPECT_STREQ(to_string(Module::kAttention), "Attention");
  EXPECT_STREQ(to_string(Phase::kPrefill), "prefill");
}

// Parameterized: invariants that must hold for every preset model.
class AllModels : public ::testing::TestWithParam<const ModelSpec*> {};

TEST_P(AllModels, GeometryConsistent) {
  const ModelSpec& m = *GetParam();
  EXPECT_EQ(m.hidden % m.heads, 0) << m.name;
  EXPECT_EQ(m.heads % m.kv_heads, 0) << m.name;
  EXPECT_GT(m.layers, 0);
  EXPECT_GT(m.param_bytes(), 0);
}

TEST_P(AllModels, LayerParamsDominateEmbeddings) {
  const ModelSpec& m = *GetParam();
  EXPECT_GT(m.layer_param_bytes() * m.layers, m.param_bytes() / 2) << m.name;
}

TEST_P(AllModels, DecodeWorkNonNegative) {
  const ModelSpec& m = *GetParam();
  for (std::int64_t ctx : {1, 100, 10000}) {
    Work w = decode_attention_work(m, ctx, m.heads);
    EXPECT_GT(w.flops, 0) << m.name;
    EXPECT_GT(w.kv_bytes, 0) << m.name;
  }
}

TEST_P(AllModels, KvPerTokenConsistent) {
  const ModelSpec& m = *GetParam();
  EXPECT_EQ(m.kv_bytes_per_token(), m.kv_bytes_per_token_layer() * m.layers) << m.name;
}

INSTANTIATE_TEST_SUITE_P(Presets, AllModels,
                         ::testing::Values(&opt_2_7b(), &opt_13b(), &opt_30b(), &llama_13b(),
                                           &llama2_7b(), &llama_70b()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace hetis::model
