#include "core/gavg.hpp"

#include <cmath>
#include <limits>

#include "quant/affine.hpp"

namespace apt::core {

double tensor_gavg(const nn::Parameter& p) {
  double eps;
  if (p.rep) {
    eps = p.rep->epsilon();
  } else {
    // Plain float storage: Eq. 2 evaluated at k = 32 over the value range.
    const quant::QuantParams qp =
        quant::choose_params(p.value.min(), p.value.max(), 32);
    eps = qp.epsilon();
  }
  APT_CHECK(eps > 0.0) << p.name << ": non-positive epsilon";

  double acc = 0.0;
  const float* g = p.grad.data();
  const int64_t n = p.grad.numel();
  for (int64_t i = 0; i < n; ++i)
    acc += std::fabs(static_cast<double>(g[i])) / eps;
  return acc / static_cast<double>(n);
}

double unit_gavg(const train::Unit& unit) {
  double m = std::numeric_limits<double>::infinity();
  for (const nn::Parameter* p : unit.params)
    m = std::min(m, tensor_gavg(*p));
  return m;
}

}  // namespace apt::core
