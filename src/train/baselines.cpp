#include "train/baselines.hpp"

#include <cmath>

namespace apt::train {

MasterCopyRepresentation::MasterCopyRepresentation(nn::Parameter& p, int bits)
    : master_(p.value.clone()), bits_(bits) {
  refresh_view(p);
}

void MasterCopyRepresentation::refresh_view(nn::Parameter& p) {
  // Per-step range fit on the master (as DoReFa-style schemes do).
  const float lo = master_.min(), hi = master_.max();
  const quant::QuantParams qp = quant::choose_params(lo, hi, bits_);
  epsilon_ = qp.epsilon();
  const float* m = master_.data();
  float* v = p.value.data();
  for (int64_t i = 0; i < master_.numel(); ++i)
    v[i] = qp.dequantize(quant::quantize_value(m[i], qp));
}

quant::UpdateStats MasterCopyRepresentation::apply_step(nn::Parameter& p,
                                                        const Tensor& step) {
  APT_CHECK(step.shape() == master_.shape()) << "step shape mismatch";
  const Tensor before = p.value.clone();
  master_ -= step;
  refresh_view(p);

  quant::UpdateStats s;
  s.total = p.numel();
  for (int64_t i = 0; i < p.numel(); ++i) {
    const bool stepped = step[i] != 0.0f;
    const bool visible = p.value[i] != before[i];
    if (visible) ++s.moved;
    // The master moved but the quantised view did not: the view underflowed
    // (invisible progress is parked in the master — the memory being paid).
    if (stepped && !visible) ++s.underflowed;
  }
  return s;
}

void MasterCopyRepresentation::set_bits(nn::Parameter& p, int k) {
  bits_ = k;
  refresh_view(p);
}

void MasterCopyRepresentation::refit_range(nn::Parameter& p) {
  // Re-sync storage from the parameter's float values (the contract used
  // by checkpoint loading); outside that path the master is authoritative
  // and this is never called.
  master_ = p.value.clone();
  refresh_view(p);
}

void attach_master_copy(nn::Layer& model, int bits) {
  for (nn::Layer* leaf : nn::leaves_of(model))
    for (nn::Parameter* p : leaf->parameters())
      p->rep = std::make_shared<MasterCopyRepresentation>(*p, bits);
}

GradTransform make_terngrad_transform(uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng](const nn::Parameter&, Tensor& g) {
    const float s = g.abs_max();
    if (s == 0.0f) return;
    for (int64_t i = 0; i < g.numel(); ++i) {
      const float p = std::fabs(g[i]) / s;
      const float sign = g[i] > 0.0f ? 1.0f : (g[i] < 0.0f ? -1.0f : 0.0f);
      g[i] = rng->bernoulli(p) ? sign * s : 0.0f;
    }
  };
}

}  // namespace apt::train
