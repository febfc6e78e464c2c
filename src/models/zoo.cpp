#include "models/zoo.hpp"

#include <algorithm>
#include <cmath>

#include "models/blocks.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"

namespace apt::models {
namespace {

nn::Conv2dOptions conv_opts(int64_t in, int64_t out, int64_t k,
                            int64_t stride) {
  nn::Conv2dOptions o;
  o.in_channels = in;
  o.out_channels = out;
  o.kernel = k;
  o.stride = stride;
  o.padding = (k - 1) / 2;
  o.bias = false;
  return o;
}

}  // namespace

std::unique_ptr<nn::Sequential> make_resnet(const ResNetConfig& cfg, Rng& rng) {
  auto net = std::make_unique<nn::Sequential>("resnet" +
                                              std::to_string(6 * cfg.n + 2));
  const int64_t w = cfg.base_width;
  net->emplace<nn::Conv2d>("stem.conv", conv_opts(cfg.in_channels, w, 3, 1),
                           rng);
  net->emplace<nn::BatchNorm>("stem.bn", w);
  net->emplace<nn::ReLU>("stem.relu");

  const int64_t widths[3] = {w, 2 * w, 4 * w};
  int64_t in_ch = w;
  for (int stage = 0; stage < 3; ++stage) {
    for (int64_t b = 0; b < cfg.n; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      const std::string nm =
          "stage" + std::to_string(stage) + ".block" + std::to_string(b);
      net->append(make_basic_block(nm, in_ch, widths[stage], stride, rng));
      in_ch = widths[stage];
    }
  }
  net->emplace<nn::GlobalAvgPool>("avgpool");
  net->emplace<nn::Linear>("fc", in_ch, cfg.num_classes, rng);
  return net;
}

std::unique_ptr<nn::Sequential> make_mobilenet_v2(const MobileNetV2Config& cfg,
                                                  Rng& rng) {
  auto net = std::make_unique<nn::Sequential>("mobilenet_v2");
  auto scale_c = [&](int64_t c) {
    return std::max<int64_t>(4, static_cast<int64_t>(
                                    std::llround(c * cfg.width_mult)));
  };
  auto scale_n = [&](int64_t n) {
    return std::max<int64_t>(1, static_cast<int64_t>(
                                    std::llround(n * cfg.depth_mult)));
  };

  // (expand t, channels c, repeats n, stride s) — CIFAR-adapted: the first
  // conv and the first two stages keep stride 1 so 32x32 inputs are not
  // collapsed prematurely (standard CIFAR adaptation of the ImageNet stack).
  struct StageCfg {
    int64_t t, c, n, s;
  };
  const StageCfg stages[] = {
      {1, 16, 1, 1}, {6, 24, 2, 1}, {6, 32, 3, 2},
      {6, 64, 2, 2}, {6, 96, 2, 1}, {6, 160, 2, 2},
  };

  int64_t in_ch = scale_c(32);
  net->emplace<nn::Conv2d>("stem.conv", conv_opts(cfg.in_channels, in_ch, 3, 1),
                           rng);
  net->emplace<nn::BatchNorm>("stem.bn", in_ch);
  net->emplace<nn::ReLU>("stem.relu6", 6.0f);

  int block_id = 0;
  for (const auto& st : stages) {
    const int64_t out_ch = scale_c(st.c);
    const int64_t reps = scale_n(st.n);
    for (int64_t i = 0; i < reps; ++i) {
      const int64_t stride = (i == 0) ? st.s : 1;
      net->append(make_inverted_residual("ir" + std::to_string(block_id++),
                                         in_ch, out_ch, stride, st.t, rng));
      in_ch = out_ch;
    }
  }

  const int64_t head_ch = scale_c(320);
  net->emplace<nn::Conv2d>("head.conv", conv_opts(in_ch, head_ch, 1, 1), rng);
  net->emplace<nn::BatchNorm>("head.bn", head_ch);
  net->emplace<nn::ReLU>("head.relu6", 6.0f);
  net->emplace<nn::GlobalAvgPool>("avgpool");
  net->emplace<nn::Linear>("fc", head_ch, cfg.num_classes, rng);
  return net;
}

std::unique_ptr<nn::Sequential> make_cifarnet(const CifarNetConfig& cfg,
                                              Rng& rng) {
  auto net = std::make_unique<nn::Sequential>("cifarnet");
  net->emplace<nn::Conv2d>("conv1", conv_opts(cfg.in_channels, 32, 5, 1), rng);
  net->emplace<nn::BatchNorm>("bn1", 32);
  net->emplace<nn::ReLU>("relu1");
  net->emplace<nn::MaxPool2d>("pool1", 2);
  net->emplace<nn::Conv2d>("conv2", conv_opts(32, 64, 5, 1), rng);
  net->emplace<nn::BatchNorm>("bn2", 64);
  net->emplace<nn::ReLU>("relu2");
  net->emplace<nn::MaxPool2d>("pool2", 2);
  net->emplace<nn::Flatten>("flatten");
  // Input spatial size is resolved at the first forward; CifarNet assumes
  // 32x32 inputs -> 8x8 after two pools.
  net->emplace<nn::Linear>("fc1", 64LL * 8 * 8, 128, rng);
  net->emplace<nn::ReLU>("relu3");
  net->emplace<nn::Linear>("fc2", 128, cfg.num_classes, rng);
  return net;
}

std::unique_ptr<nn::Sequential> make_mlp(int64_t in_features,
                                         const std::vector<int64_t>& hidden,
                                         int64_t num_classes, Rng& rng) {
  auto net = std::make_unique<nn::Sequential>("mlp");
  int64_t in = in_features;
  for (size_t i = 0; i < hidden.size(); ++i) {
    const std::string nm = "fc" + std::to_string(i);
    net->emplace<nn::Linear>(nm, in, hidden[i], rng);
    net->emplace<nn::BatchNorm>(nm + ".bn", hidden[i]);
    net->emplace<nn::ReLU>(nm + ".relu");
    in = hidden[i];
  }
  net->emplace<nn::Linear>("head", in, num_classes, rng);
  return net;
}

}  // namespace apt::models
