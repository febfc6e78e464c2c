#include "data/augment.hpp"

namespace apt::data {

void augment_into(const Tensor& src, int64_t n, Tensor& dst, int64_t m,
                  const AugmentConfig& cfg, Rng& rng) {
  const int64_t C = src.dim(1), H = src.dim(2), W = src.dim(3);
  // Offsets into the virtual padded image: crop origin in [0, 2*pad].
  int64_t oy = cfg.pad, ox = cfg.pad;
  if (cfg.random_crop && cfg.pad > 0) {
    oy = rng.randint(0, 2 * cfg.pad);
    ox = rng.randint(0, 2 * cfg.pad);
  }
  const bool flip = cfg.horizontal_flip && rng.bernoulli(0.5);

  for (int64_t c = 0; c < C; ++c)
    for (int64_t y = 0; y < H; ++y) {
      const int64_t sy = y + oy - cfg.pad;
      for (int64_t x = 0; x < W; ++x) {
        const int64_t raw_x = x + ox - cfg.pad;
        const int64_t sx = flip ? (W - 1 - raw_x) : raw_x;
        const bool inside = sy >= 0 && sy < H && sx >= 0 && sx < W;
        dst.at(m, c, y, x) = inside ? src.at(n, c, sy, sx) : 0.0f;
      }
    }
}

Tensor augment_batch(const Tensor& batch, const AugmentConfig& cfg, Rng& rng) {
  Tensor out = Tensor::uninitialized(batch.shape());
  for (int64_t n = 0; n < batch.dim(0); ++n)
    augment_into(batch, n, out, n, cfg, rng);
  return out;
}

}  // namespace apt::data
