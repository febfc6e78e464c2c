#include "models/blocks.hpp"

#include "nn/shard.hpp"

namespace apt::models {
namespace {

using ShardVec = std::vector<Tensor>;

// Per-shard y[s] = a[s] + b[s] (the shortcut join, done shard-parallel).
ShardVec shard_add(const ShardVec& a, const ShardVec& b) {
  ShardVec out(a.size());
  nn::shard_parallel(static_cast<int>(a.size()), [&](int s) {
    out[static_cast<size_t>(s)] =
        a[static_cast<size_t>(s)] + b[static_cast<size_t>(s)];
  });
  return out;
}

// Per-shard a[s] += b[s] (residual gradient join).
void shard_add_inplace(ShardVec& a, const ShardVec& b) {
  nn::shard_parallel(static_cast<int>(a.size()), [&](int s) {
    a[static_cast<size_t>(s)] += b[static_cast<size_t>(s)];
  });
}

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

// ---------------------------------------------------------------- BasicBlock

BasicBlock::BasicBlock(std::string name, int64_t in_ch, int64_t out_ch,
                       int64_t stride, Rng& rng)
    : name_(std::move(name)),
      conv1_(name_ + ".conv1", conv_opts(in_ch, out_ch, 3, stride), rng),
      conv2_(name_ + ".conv2", conv_opts(out_ch, out_ch, 3, 1), rng),
      bn1_(name_ + ".bn1", out_ch),
      bn2_(name_ + ".bn2", out_ch),
      relu1_(name_ + ".relu1"),
      relu2_(name_ + ".relu2") {
  if (stride != 1 || in_ch != out_ch) {
    short_conv_ = std::make_unique<nn::Conv2d>(
        name_ + ".short.conv", conv_opts(in_ch, out_ch, 1, stride), rng);
    short_bn_ = std::make_unique<nn::BatchNorm>(name_ + ".short.bn", out_ch);
  }
}

Tensor BasicBlock::forward(const Tensor& x, bool training) {
  return forward_sharded({x}, training)[0];
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  return backward_sharded({grad_out})[0];
}

std::vector<Tensor> BasicBlock::forward_sharded(const std::vector<Tensor>& xs,
                                                bool training) {
  ShardVec h = relu1_.forward_sharded(
      bn1_.forward_sharded(conv1_.forward_sharded(xs, training), training),
      training);
  ShardVec main = bn2_.forward_sharded(conv2_.forward_sharded(h, training),
                                       training);
  ShardVec shortcut =
      short_conv_ ? short_bn_->forward_sharded(
                        short_conv_->forward_sharded(xs, training), training)
                  : xs;
  return relu2_.forward_sharded(shard_add(main, shortcut), training);
}

std::vector<Tensor> BasicBlock::backward_sharded(
    const std::vector<Tensor>& grads_out) {
  ShardVec g = relu2_.backward_sharded(grads_out);  // splits into branches
  ShardVec g_main = conv1_.backward_sharded(bn1_.backward_sharded(
      relu1_.backward_sharded(conv2_.backward_sharded(
          bn2_.backward_sharded(g)))));
  ShardVec g_short =
      short_conv_
          ? short_conv_->backward_sharded(short_bn_->backward_sharded(g))
          : g;
  shard_add_inplace(g_main, g_short);
  return g_main;
}

std::vector<nn::Parameter*> BasicBlock::parameters() {
  std::vector<nn::Parameter*> ps;
  for (nn::Layer* l : std::initializer_list<nn::Layer*>{
           &conv1_, &bn1_, &conv2_, &bn2_, short_conv_.get(),
           short_bn_.get()}) {
    if (!l) continue;
    for (auto* p : l->parameters()) ps.push_back(p);
  }
  return ps;
}

std::vector<nn::Layer*> BasicBlock::children() {
  std::vector<nn::Layer*> out{&conv1_, &bn1_, &relu1_, &conv2_, &bn2_, &relu2_};
  if (short_conv_) {
    out.push_back(short_conv_.get());
    out.push_back(short_bn_.get());
  }
  return out;
}

int64_t BasicBlock::macs_per_sample() const {
  int64_t m = conv1_.macs_per_sample() + conv2_.macs_per_sample();
  if (short_conv_) m += short_conv_->macs_per_sample();
  return m;
}

// ---------------------------------------------------------- InvertedResidual

InvertedResidual::InvertedResidual(std::string name, int64_t in_ch,
                                   int64_t out_ch, int64_t stride,
                                   int64_t expand, Rng& rng)
    : name_(std::move(name)),
      use_residual_(stride == 1 && in_ch == out_ch),
      dw_conv_(name_ + ".dw",
               conv_opts(in_ch * expand, in_ch * expand, 3, stride,
                         /*groups=*/in_ch * expand),
               rng),
      dw_bn_(name_ + ".dw_bn", in_ch * expand),
      dw_relu_(name_ + ".dw_relu", 6.0f),
      project_conv_(name_ + ".project",
                    conv_opts(in_ch * expand, out_ch, 1, 1), rng),
      project_bn_(name_ + ".project_bn", out_ch) {
  if (expand != 1) {
    expand_conv_ = std::make_unique<nn::Conv2d>(
        name_ + ".expand", conv_opts(in_ch, in_ch * expand, 1, 1), rng);
    expand_bn_ =
        std::make_unique<nn::BatchNorm>(name_ + ".expand_bn", in_ch * expand);
    expand_relu_ = std::make_unique<nn::ReLU>(name_ + ".expand_relu", 6.0f);
  }
}

Tensor InvertedResidual::forward(const Tensor& x, bool training) {
  return forward_sharded({x}, training)[0];
}

Tensor InvertedResidual::backward(const Tensor& grad_out) {
  return backward_sharded({grad_out})[0];
}

std::vector<Tensor> InvertedResidual::forward_sharded(
    const std::vector<Tensor>& xs, bool training) {
  ShardVec h = xs;
  if (expand_conv_) {
    h = expand_relu_->forward_sharded(
        expand_bn_->forward_sharded(expand_conv_->forward_sharded(h, training),
                                    training),
        training);
  }
  h = dw_relu_.forward_sharded(
      dw_bn_.forward_sharded(dw_conv_.forward_sharded(h, training), training),
      training);
  h = project_bn_.forward_sharded(project_conv_.forward_sharded(h, training),
                                  training);
  return use_residual_ ? shard_add(h, xs) : h;
}

std::vector<Tensor> InvertedResidual::backward_sharded(
    const std::vector<Tensor>& grads_out) {
  ShardVec g = project_conv_.backward_sharded(
      project_bn_.backward_sharded(grads_out));
  g = dw_conv_.backward_sharded(
      dw_bn_.backward_sharded(dw_relu_.backward_sharded(g)));
  if (expand_conv_)
    g = expand_conv_->backward_sharded(
        expand_bn_->backward_sharded(expand_relu_->backward_sharded(g)));
  if (use_residual_) shard_add_inplace(g, grads_out);
  return g;
}

std::vector<nn::Parameter*> InvertedResidual::parameters() {
  std::vector<nn::Parameter*> ps;
  for (nn::Layer* l : std::initializer_list<nn::Layer*>{
           expand_conv_.get(), expand_bn_.get(), &dw_conv_, &dw_bn_,
           &project_conv_, &project_bn_}) {
    if (!l) continue;
    for (auto* p : l->parameters()) ps.push_back(p);
  }
  return ps;
}

std::vector<nn::Layer*> InvertedResidual::children() {
  std::vector<nn::Layer*> out;
  if (expand_conv_) {
    out.push_back(expand_conv_.get());
    out.push_back(expand_bn_.get());
    out.push_back(expand_relu_.get());
  }
  for (nn::Layer* l : std::initializer_list<nn::Layer*>{
           &dw_conv_, &dw_bn_, &dw_relu_, &project_conv_, &project_bn_})
    out.push_back(l);
  return out;
}

int64_t InvertedResidual::macs_per_sample() const {
  int64_t m = dw_conv_.macs_per_sample() + project_conv_.macs_per_sample();
  if (expand_conv_) m += expand_conv_->macs_per_sample();
  return m;
}

}  // namespace apt::models
