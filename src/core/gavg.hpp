// The Gavg metric (paper Eq. 4):
//
//   Gavg_i = (1/N_i) * Σ_j | g_ij / ε_i |
//
// — how large this layer's gradients are relative to the minimum update its
// quantisation grid can represent. Gavg → 0 means the layer is frozen by
// quantisation underflow; large Gavg means the parameters move freely.
//
// Deliberately excludes learning rate, momentum and optimiser state
// (§III-B), so the metric is optimiser-independent.
#pragma once

#include <vector>

#include "nn/parameter.hpp"
#include "train/trainer.hpp"

namespace apt::core {

/// Eq. 4 for a single parameter tensor. ε comes from the parameter's
/// representation; plain-float parameters use Eq. 2 with k = 32 over their
/// current value range (never underflows in practice, Gavg is huge).
double tensor_gavg(const nn::Parameter& p);

/// Gavg of a unit (a paper "layer": all learnable tensors sharing the
/// layer's bitwidth). Pooled as the MINIMUM over the unit's tensors: the
/// most underflow-afflicted tensor governs the layer, so a tiny
/// easy-to-update bias cannot mask frozen weights (per-tensor ε differs by
/// orders of magnitude; see DESIGN.md §6).
double unit_gavg(const train::Unit& unit);

}  // namespace apt::core
