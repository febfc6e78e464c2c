#include "models/blocks.hpp"

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"

namespace apt::models {
namespace {

nn::Conv2dOptions conv_opts(int64_t in, int64_t out, int64_t k, int64_t stride,
                            int64_t groups = 1) {
  nn::Conv2dOptions o;
  o.in_channels = in;
  o.out_channels = out;
  o.kernel = k;
  o.stride = stride;
  o.padding = (k - 1) / 2;
  o.groups = groups;
  o.bias = false;
  return o;
}

}  // namespace

std::unique_ptr<nn::Sequential> make_basic_block(const std::string& name,
                                                 int64_t in_ch, int64_t out_ch,
                                                 int64_t stride, Rng& rng) {
  auto block = std::make_unique<nn::Sequential>(name);
  auto* res = block->emplace<nn::Residual>(name + ".residual");
  nn::Sequential& body = res->main();
  body.emplace<nn::Conv2d>(name + ".conv1", conv_opts(in_ch, out_ch, 3, stride),
                           rng);
  body.emplace<nn::BatchNorm>(name + ".bn1", out_ch);
  body.emplace<nn::ReLU>(name + ".relu1");
  body.emplace<nn::Conv2d>(name + ".conv2", conv_opts(out_ch, out_ch, 3, 1),
                           rng);
  body.emplace<nn::BatchNorm>(name + ".bn2", out_ch);
  if (stride != 1 || in_ch != out_ch) {
    res->shortcut().emplace<nn::Conv2d>(
        name + ".short.conv", conv_opts(in_ch, out_ch, 1, stride), rng);
    res->shortcut().emplace<nn::BatchNorm>(name + ".short.bn", out_ch);
  }
  block->emplace<nn::ReLU>(name + ".relu2");
  return block;
}

nn::LayerPtr make_inverted_residual(const std::string& name, int64_t in_ch,
                                    int64_t out_ch, int64_t stride,
                                    int64_t expand, Rng& rng) {
  const int64_t hidden = in_ch * expand;
  // The depthwise and project convs draw their initial weights before
  // the expansion conv does, so a seed gives the same weights it always
  // has.
  auto dw = std::make_unique<nn::Conv2d>(
      name + ".dw", conv_opts(hidden, hidden, 3, stride, /*groups=*/hidden),
      rng);
  auto project = std::make_unique<nn::Conv2d>(
      name + ".project", conv_opts(hidden, out_ch, 1, 1), rng);
  auto fill = [&](nn::Sequential& body) {
    if (expand != 1) {
      body.emplace<nn::Conv2d>(name + ".expand",
                               conv_opts(in_ch, hidden, 1, 1), rng);
      body.emplace<nn::BatchNorm>(name + ".expand_bn", hidden);
      body.emplace<nn::ReLU>(name + ".expand_relu", 6.0f);
    }
    body.append(std::move(dw));
    body.emplace<nn::BatchNorm>(name + ".dw_bn", hidden);
    body.emplace<nn::ReLU>(name + ".dw_relu", 6.0f);
    body.append(std::move(project));
    body.emplace<nn::BatchNorm>(name + ".project_bn", out_ch);
  };
  if (stride != 1 || in_ch != out_ch) {
    auto body = std::make_unique<nn::Sequential>(name);
    fill(*body);
    return body;
  }
  auto res = std::make_unique<nn::Residual>(name);
  fill(res->main());
  return res;
}

}  // namespace apt::models
