#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "base/arena.hpp"
#include "base/cpu.hpp"
#include "base/thread_pool.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_kernel.hpp"
#include "nn/init.hpp"
#include "nn/plan.hpp"

#if APT_X86
#include <immintrin.h>
#endif

namespace apt::nn {

namespace {

// Output-x range [lo, hi) whose input column in_x = xo*stride - padding
// + kw lands inside [0, W); everything outside is padding. Both bounds
// are clamped to [0, ow]: with padding large relative to the output
// width a kernel column can have no valid xo at all (lo == hi == ow).
void valid_x_range(int64_t kw, int64_t stride, int64_t padding, int64_t W,
                   int64_t ow, int64_t* lo, int64_t* hi) {
  const int64_t d = padding - kw;
  *lo = std::min(ow, d > 0 ? (d + stride - 1) / stride : 0);
  *hi = std::min(ow, std::max(*lo, (W + d + stride - 1) / stride));
}

// Patch gather for the float path (pad = 0.0f).
template <typename T>
void im2col_impl(const T* x, int64_t C, int64_t H, int64_t W, int64_t n,
                 int64_t c_begin, int64_t c_count, int64_t kernel,
                 int64_t stride, int64_t padding, int64_t oh, int64_t ow,
                 T pad, T* cols) {
  int64_t row = 0;
  for (int64_t c = c_begin; c < c_begin + c_count; ++c) {
    const T* chan = x + (n * C + c) * H * W;
    for (int64_t kh = 0; kh < kernel; ++kh)
      for (int64_t kw = 0; kw < kernel; ++kw, ++row) {
        T* out = cols + row * (oh * ow);
        int64_t xo_lo, xo_hi;
        valid_x_range(kw, stride, padding, W, ow, &xo_lo, &xo_hi);
        for (int64_t y = 0; y < oh; ++y, out += ow) {
          const int64_t in_y = y * stride - padding + kh;
          if (in_y < 0 || in_y >= H) {
            std::fill(out, out + ow, pad);
            continue;
          }
          // Padding edges filled; the interior is one contiguous
          // (stride 1) or strided gather with no per-element branch.
          std::fill(out, out + xo_lo, pad);
          const T* src = chan + in_y * W + (xo_lo * stride - padding + kw);
          if (stride == 1) {
            std::copy(src, src + (xo_hi - xo_lo), out + xo_lo);
          } else {
            for (int64_t xo = xo_lo; xo < xo_hi; ++xo)
              out[xo] = src[(xo - xo_lo) * stride];
          }
          std::fill(out + xo_hi, out + ow, pad);
        }
      }
  }
}

// Inlined small-row copy: feature-map rows are a few dozen bytes, where
// memcpy's call overhead dominates the gather. Whole words, then one
// overlapping word for the tail (regions never overlap).
inline void copy_bytes(void* dst_v, const void* src_v, int64_t n) {
  auto* dst = static_cast<unsigned char*>(dst_v);
  const auto* src = static_cast<const unsigned char*>(src_v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, src + i, 8);
    std::memcpy(dst + i, &w, 8);
  }
  if (i < n) {
    if (n >= 8) {
      uint64_t w;
      std::memcpy(&w, src + n - 8, 8);
      std::memcpy(dst + n - 8, &w, 8);
    } else {
      for (; i < n; ++i) dst[i] = src[i];
    }
  }
}

// Stages c_count contiguous [H][W] planes into [c_count][H+2p][W+2p]
// with a `pad` border: the image an implicit conv operand gathers from.
template <typename T>
void stage_padded(const T* planes, int64_t c_count, int64_t H, int64_t W,
                  int64_t padding, T pad, T* out) {
  const int64_t pw = W + 2 * padding, ph = H + 2 * padding;
  for (int64_t c = 0; c < c_count; ++c) {
    T* img = out + c * ph * pw;
    const T* chan = planes + c * H * W;
    std::fill(img, img + padding * pw, pad);
    std::fill(img + (ph - padding) * pw, img + ph * pw, pad);
    for (int64_t y = 0; y < H; ++y) {
      T* p = img + (y + padding) * pw;
      std::fill(p, p + padding, pad);
      copy_bytes(p + padding, chan + y * W,
                 W * static_cast<int64_t>(sizeof(T)));
      std::fill(p + padding + W, p + pw, pad);
    }
  }
}

// The implicit conv operand over a zero-padded NCHW image: the fp32
// GEMMs' B, and the integer weight gradient's. padded_stage reserves one
// group's padded image in `scope` (null when padding == 0);
// padded_operand stages one group's `plane` there, padded with `pad`,
// and describes it (the plane itself when padding == 0).
template <typename T>
T* padded_stage(ScratchArena::Scope& scope, const Conv2dOptions& o,
                int64_t H, int64_t W) {
  if (o.padding == 0) return nullptr;
  return static_cast<T*>(scope.alloc_bytes(
      sizeof(T) * static_cast<size_t>(o.in_channels / o.groups *
                                      (H + 2 * o.padding) *
                                      (W + 2 * o.padding))));
}

template <typename T>
GemmConvB<T> padded_operand(const Conv2dOptions& o, const T* plane,
                            int64_t H, int64_t W, T pad, T* stage) {
  GemmConvB<T> cb;
  cb.kernel = o.kernel;
  cb.stride = o.stride;
  cb.oh = (H + 2 * o.padding - o.kernel) / o.stride + 1;
  cb.ow = (W + 2 * o.padding - o.kernel) / o.stride + 1;
  cb.padded = plane;
  cb.ph = H;
  cb.pw = W;
  if (o.padding > 0) {
    stage_padded(plane, o.in_channels / o.groups, H, W, o.padding, pad,
                 stage);
    cb.padded = stage;
    cb.ph = H + 2 * o.padding;
    cb.pw = W + 2 * o.padding;
  }
  return cb;
}

// The fp32 operand of sample n's group g of x.
GemmF32ConvB f32_operand(const Conv2dOptions& o, const Tensor& x, int64_t n,
                         int64_t g, float* stage) {
  const int64_t H = x.dim(2), W = x.dim(3);
  const int64_t icg = o.in_channels / o.groups;
  return padded_operand(o, x.data() + (n * o.in_channels + g * icg) * H * W,
                        H, W, 0.0f, stage);
}

// The fp32 weight operand of one layer call. Every (sample, group) GEMM
// of the call runs `key`'s plan, resolved here once. Under a packed plan
// each group's op_a(W_g) is also packed here once (gemm_pack_a_panels,
// the transpose folded in) into the caller's `scope`, and every sample
// task reads those panels instead of repacking the weight. The panels
// are scratch for this call only, so no packed copy outlives it: an
// optimiser step, set_bits or a refit has nothing to invalidate, and no
// fp32 shadow of the model exists between steps. Direct plans (the 1x1
// shortcut convs) read the raw weight.
class F32Weight {
 public:
  F32Weight(const PlanKey& key, const float* w, int64_t groups,
            ScratchArena::Scope& scope)
      : plan_(plan_for(key)),
        w_(w),
        w_stride_(key.m * key.k) {
    if (plan_.strategy != PlanStrategy::kF32Packed) return;
    p_stride_ = gemm_pack_a_panels_size(key.m, key.k);
    panels_ = scope.alloc_floats(static_cast<size_t>(groups * p_stride_));
    for (int64_t g = 0; g < groups; ++g)
      gemm_pack_a_panels(key.trans_a, w + g * w_stride_, key.m, key.k,
                         panels_ + g * p_stride_);
  }

  /// C = op_a(W_g) * op_b(B), B the implicit conv operand.
  void gemm(int64_t g, const GemmF32ConvB& b, float* c) const {
    if (panels_ != nullptr) {
      gemm_conv_ex(plan_, 1.0f, GemmF32PackedA{panels_ + g * p_stride_}, b,
                   0.0f, c);
    } else {
      gemm_conv_ex(plan_, 1.0f, w_ + g * w_stride_, b, 0.0f, c);
    }
  }

  /// C = op_a(W_g) * B, B a row-major matrix.
  void gemm(int64_t g, const float* b, float* c) const {
    if (panels_ != nullptr) {
      gemm_ex(plan_, 1.0f, GemmF32PackedA{panels_ + g * p_stride_}, b, 0.0f,
              c);
    } else {
      gemm_ex(plan_, 1.0f, w_ + g * w_stride_, b, 0.0f, c);
    }
  }

 private:
  const KernelPlan& plan_;
  const float* w_;
  int64_t w_stride_;
  float* panels_ = nullptr;
  int64_t p_stride_ = 0;
};

// Deterministic weight-gradient accumulation shared by both conv
// backwards. Parameter-gradient accumulation must not race AND must not
// depend on the machine: the chunk count derives from the sample count
// alone (each chunk takes ceil(N / chunks) samples), fn(dw, n0, n1)
// accumulates its sample range in order into its chunk's zeroed buffer,
// and the buffers reduce into the grad sink in chunk order —
// bit-identical for any pool size. Inside a shard session the shards
// already provide the step's parallelism, so a single in-order chunk per
// shard avoids multiplying buffers by shards * chunks. The buffers come
// from the calling thread's scratch arena, so steady-state backwards
// allocate nothing. `side(n0, n1)`, when given, is per-sample work that
// reads no dW (the integer dX); each chunk's runs as a task of its own
// beside the chunk's dW task, so a batch smaller than the pool still
// keeps two threads per chunk busy.
template <typename Fn, typename Side = std::nullptr_t>
void accumulate_dw(Parameter& w, int64_t N, Fn&& fn, Side&& side = nullptr) {
  constexpr int64_t kDwChunks = 16;
  constexpr int64_t kTasks = std::is_null_pointer_v<Side> ? 1 : 2;
  const int64_t chunks =
      sharding_active() ? 1 : std::min<int64_t>(N, kDwChunks);
  const int64_t step = (N + chunks - 1) / chunks;
  const int64_t wn = w.numel();
  ScratchArena::Scope scope(ScratchArena::thread_local_arena());
  float* dw_chunk = scope.alloc_floats(static_cast<size_t>(chunks * wn));
  ThreadPool::global().parallel_for_chunked(
      0, kTasks * chunks, kTasks * chunks,
      [&](int64_t task, int64_t, int64_t) {
        const int64_t chunk = task / kTasks;
        const int64_t n0 = std::min(N, chunk * step);
        const int64_t n1 = std::min(N, n0 + step);
        if (task % kTasks == 0) {
          float* dw = dw_chunk + chunk * wn;
          std::fill(dw, dw + wn, 0.0f);
          if (n0 < n1) fn(dw, n0, n1);
        } else if constexpr (kTasks == 2) {
          if (n0 < n1) side(n0, n1);
        }
      });
  float* sink = grad_sink(w).data();
  for (int64_t chunk = 0; chunk < chunks; ++chunk) {
    const float* dw = dw_chunk + chunk * wn;
    for (int64_t i = 0; i < wn; ++i) sink[i] += dw[i];
  }
}

}  // namespace

void im2col(const Tensor& x, int64_t n, int64_t c_begin, int64_t c_count,
            int64_t kernel, int64_t stride, int64_t padding, int64_t oh,
            int64_t ow, float* cols) {
  im2col_impl<float>(x.data(), x.dim(1), x.dim(2), x.dim(3), n, c_begin,
                     c_count, kernel, stride, padding, oh, ow, 0.0f, cols);
}

// Byte gather via a per-channel zero-padded image: the (H+2p)x(W+2p)
// staging copy (skipped outright when padding == 0) makes every output
// row one branch-free contiguous copy — no per-row edge bookkeeping —
// which is ~2.5x the fill/copy formulation on 16x16 feature maps.
void im2col_u8(const uint8_t* x, int64_t C, int64_t H, int64_t W, int64_t n,
               int64_t c_begin, int64_t c_count, int64_t kernel,
               int64_t stride, int64_t padding, int64_t oh, int64_t ow,
               uint8_t pad_code, uint8_t* cols) {
  const int64_t plane = oh * ow;
  const int64_t pw = W + 2 * padding;
  const int64_t ph = H + 2 * padding;
  ScratchArena::Scope scope(ScratchArena::thread_local_arena());
  uint8_t* padded = nullptr;
  if (padding > 0)
    padded = static_cast<uint8_t*>(
        scope.alloc_bytes(static_cast<size_t>(ph * pw)));
  int64_t row = 0;
  for (int64_t c = c_begin; c < c_begin + c_count; ++c) {
    const uint8_t* chan = x + (n * C + c) * H * W;
    const uint8_t* img = chan;  // padding == 0: the image IS the staging
    if (padding > 0) {
      stage_padded(chan, 1, H, W, padding, pad_code, padded);
      img = padded;
    }
    for (int64_t kh = 0; kh < kernel; ++kh)
      for (int64_t kw = 0; kw < kernel; ++kw, ++row) {
        uint8_t* out = cols + row * plane;
        if (stride == 1) {
          const uint8_t* s = img + kh * pw + kw;
          for (int64_t y = 0; y < oh; ++y, out += ow, s += pw)
            copy_bytes(out, s, ow);
        } else {
          for (int64_t y = 0; y < oh; ++y, out += ow) {
            const uint8_t* s = img + (y * stride + kh) * pw + kw;
            for (int64_t xo = 0; xo < ow; ++xo) out[xo] = s[xo * stride];
          }
        }
      }
  }
}

void stage_padded_u8(const uint8_t* planes, int64_t c_count, int64_t H,
                     int64_t W, int64_t padding, uint8_t pad_code,
                     uint8_t* out) {
  stage_padded(planes, c_count, H, W, padding, pad_code, out);
}

namespace {

// The regions of stage_conv_image_u8's scratch space, in order: column
// sums [oh*ow], pixel channel sums over the window the taps read
// [he][we], their horizontal window sums [he][ow] (all int32), a row of
// pad codes [W] rounded up to whole words, then the image itself.
struct ImageSpace {
  int64_t oh, ow, he, we, php, pwp, phases, quads;
  int64_t colsum, pix, rows, pad_row, img, total;  // byte offsets; size

  ImageSpace(int64_t c_count, int64_t H, int64_t W, int64_t kernel,
             int64_t stride, int64_t padding) {
    oh = (H + 2 * padding - kernel) / stride + 1;
    ow = (W + 2 * padding - kernel) / stride + 1;
    he = (oh - 1) * stride + kernel;
    we = (ow - 1) * stride + kernel;
    php = oh + (kernel - 1) / stride;
    pwp = ow + (kernel - 1) / stride;
    phases = conv_image_phases(kernel, stride);
    quads = (c_count + 3) / 4;
    colsum = 0;
    pix = colsum + 4 * oh * ow;
    rows = pix + 4 * he * we;
    pad_row = rows + 4 * he * ow;
    img = pad_row + (W + 3) / 4 * 4;  // words stay 4-byte aligned
    total = img + 4 * quads * phases * phases * php * pwp;
  }
};

#if APT_X86
// The kN (16 or 8) codes row[x], row[x + stride], ... as the low kN
// bytes of a vector, for stride 1 or 2 in a row of `width` codes that
// holds them all. Stride 2 loads 2*kN codes from x or x - 1, whichever
// keeps the load inside the row (width >= 2*kN), and keeps the even or
// odd bytes.
inline __m128i load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline __m128i load8(const uint8_t* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

template <int kN>
inline __m128i load_strided(const uint8_t* row, int64_t x, int64_t stride,
                            int64_t width) {
  if (stride == 1) return kN == 16 ? load16(row + x) : load8(row + x);
  const int64_t base = std::min(x, width - 2 * kN);
  const __m128i lo = load16(row + base);
  const __m128i hi = kN == 16 ? load16(row + base + 16) : _mm_setzero_si128();
  if (x == base) {
    const __m128i even = _mm_set1_epi16(0x00ff);
    return _mm_packus_epi16(_mm_and_si128(lo, even), _mm_and_si128(hi, even));
  }
  return _mm_packus_epi16(_mm_srli_epi16(lo, 8), _mm_srli_epi16(hi, 8));
}

// The low kN bytes of the four channels' vectors v[0..3] as kN
// interleaved words at dst, XORed with vflip.
template <int kN>
inline void store_words(const __m128i* v, __m128i vflip, uint32_t* dst) {
  auto* out = reinterpret_cast<__m128i*>(dst);
  for (int h = 0; h < kN / 8; ++h) {
    const __m128i c01 = h == 0 ? _mm_unpacklo_epi8(v[0], v[1])
                               : _mm_unpackhi_epi8(v[0], v[1]);
    const __m128i c23 = h == 0 ? _mm_unpacklo_epi8(v[2], v[3])
                               : _mm_unpackhi_epi8(v[2], v[3]);
    const __m128i w0 = _mm_unpacklo_epi16(c01, c23);
    const __m128i w1 = _mm_unpackhi_epi16(c01, c23);
    _mm_storeu_si128(out + 2 * h, _mm_xor_si128(w0, vflip));
    _mm_storeu_si128(out + 2 * h + 1, _mm_xor_si128(w1, vflip));
  }
}

// kN output pixels of channel quad rows ch[0..3] from source column x as
// kN interleaved words at dst, XORed with vflip.
template <int kN>
inline void interleave_words(const uint8_t* const* ch, int64_t x,
                             int64_t stride, int64_t width, __m128i vflip,
                             uint32_t* dst) {
  __m128i v[4];
  for (int t = 0; t < 4; ++t) v[t] = load_strided<kN>(ch[t], x, stride, width);
  store_words<kN>(v, vflip, dst);
}

// Both column phases of a stride-2 row at once: the 2*kN source columns
// from x of channel quad rows ch[0..3], loaded once, the even ones as kN
// words at dst0 and the odd ones at dst1.
template <int kN>
inline void interleave_word_phases(const uint8_t* const* ch, int64_t x,
                                   __m128i vflip, uint32_t* dst0,
                                   uint32_t* dst1) {
  const __m128i even = _mm_set1_epi16(0x00ff);
  __m128i ev[4], od[4];
  for (int t = 0; t < 4; ++t) {
    const __m128i lo = load16(ch[t] + x);
    const __m128i hi = kN == 16 ? load16(ch[t] + x + 16) : _mm_setzero_si128();
    ev[t] = _mm_packus_epi16(_mm_and_si128(lo, even), _mm_and_si128(hi, even));
    od[t] = _mm_packus_epi16(_mm_srli_epi16(lo, 8), _mm_srli_epi16(hi, 8));
  }
  store_words<kN>(ev, vflip, dst0);
  store_words<kN>(od, vflip, dst1);
}

// Channel sums of kN consecutive pixels from column x of source row y,
// into out[0, kN): int16 lanes over up to 128 channels at a time (128 *
// 255 < 2^15), widened into the int32 totals.
template <int kN>
inline void pixel_sums(int64_t c_count, int64_t plane, const uint8_t* row0,
                       int64_t x, int32_t* out) {
  const __m128i zero = _mm_setzero_si128();
  __m128i tot[kN / 4];
  for (__m128i& t : tot) t = zero;
  for (int64_t c0 = 0; c0 < c_count; c0 += 128) {
    __m128i lo = zero, hi = zero;
    for (int64_t c = c0; c < std::min(c_count, c0 + 128); ++c) {
      const uint8_t* p = row0 + c * plane + x;
      if constexpr (kN == 16) {
        const __m128i v = load16(p);
        lo = _mm_add_epi16(lo, _mm_unpacklo_epi8(v, zero));
        hi = _mm_add_epi16(hi, _mm_unpackhi_epi8(v, zero));
      } else {
        const __m128i v = load8(p);
        lo = _mm_add_epi16(lo, _mm_unpacklo_epi8(v, zero));
      }
    }
    tot[0] = _mm_add_epi32(tot[0], _mm_unpacklo_epi16(lo, zero));
    tot[1] = _mm_add_epi32(tot[1], _mm_unpackhi_epi16(lo, zero));
    if constexpr (kN == 16) {
      tot[2] = _mm_add_epi32(tot[2], _mm_unpacklo_epi16(hi, zero));
      tot[3] = _mm_add_epi32(tot[3], _mm_unpackhi_epi16(hi, zero));
    }
  }
  for (int i = 0; i < kN / 4; ++i)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * i), tot[i]);
}
#endif

// Channel quad cq of the image (every phase plane): words of channels
// 4cq..4cq+3, a channel past c_count reading the pad row.
void stage_quad(const uint8_t* planes, int64_t c_count, int64_t H, int64_t W,
                int64_t stride, int64_t padding, uint8_t pad_code,
                uint8_t flip, const ImageSpace& sp, const uint8_t* pad_row,
                int64_t cq, uint8_t* img) {
  const uint32_t pad_word =
      0x01010101u * static_cast<uint8_t>(pad_code ^ flip);
  const uint32_t flip_word = 0x01010101u * flip;
  const int64_t plane = sp.php * sp.pwp;
  // Phase b's columns [*lo, *hi), whose pixel X = c*stride + b reads
  // source column c*stride + b - padding inside the row.
  auto interior = [&](int64_t b, int64_t* lo, int64_t* hi) {
    *lo = std::min(
        sp.pwp, std::max<int64_t>(0, (padding - b + stride - 1) / stride));
    *hi = std::min(sp.pwp,
                   std::max(*lo, (padding + W - b + stride - 1) / stride));
  };
  // At stride 2 the b = 0 pass stages the first `joint` interior columns
  // of both column phases from one load of the source row: source column
  // x is padded pixel x + padding, column (x + padding) / 2 of phase
  // (x + padding) % 2, so a load from x = 0 splits into the even bytes of
  // one phase and the odd bytes of the other, each from its first
  // interior column lo[b] on.
#if APT_X86
  int64_t joint = 0;
  int64_t lo[2] = {0, 0};
  const __m128i vflip = _mm_set1_epi8(static_cast<char>(flip));
  // Vector chunks read whole rows of the source: stride 1, or stride 2
  // over rows at least twice the chunk wide.
  const bool vec16 = stride == 1 || (stride == 2 && W >= 32);
  const bool vec8 = stride == 1 || (stride == 2 && W >= 16);
  if (stride == 2 && sp.phases == 2) {
    int64_t hi0, hi1;
    interior(0, &lo[0], &hi0);
    interior(1, &lo[1], &hi1);
    joint = std::min({W / 2, hi0 - lo[0], hi1 - lo[1]}) / 8 * 8;
  }
#endif
  for (int64_t a = 0; a < sp.phases; ++a)
    for (int64_t b = 0; b < sp.phases; ++b) {
      auto* dst_plane = reinterpret_cast<uint32_t*>(img) +
                        ((cq * sp.phases + a) * sp.phases + b) * plane;
      int64_t c_lo, c_hi;
      interior(b, &c_lo, &c_hi);
      for (int64_t r = 0; r < sp.php; ++r) {
        uint32_t* row = dst_plane + r * sp.pwp;
        const int64_t y = r * stride + a - padding;
        if (y < 0 || y >= H) {
          std::fill(row, row + sp.pwp, pad_word);
          continue;
        }
        const uint8_t* ch[4];
        for (int64_t t = 0; t < 4; ++t) {
          const int64_t c = 4 * cq + t;
          ch[t] = c < c_count ? planes + (c * H + y) * W : pad_row;
        }
        std::fill(row, row + c_lo, pad_word);
        int64_t c = c_lo;
#if APT_X86
        if (joint > 0 && b == 0) {
          // Even source bytes belong to phase padding % 2.
          const int64_t be = padding & 1;
          uint32_t* even = row + be * plane + lo[be];
          uint32_t* odd = row + (1 - be) * plane + lo[1 - be];
          int64_t m = 0;
          for (; m + 16 <= joint; m += 16)
            interleave_word_phases<16>(ch, 2 * m, vflip, even + m, odd + m);
          for (; m < joint; m += 8)
            interleave_word_phases<8>(ch, 2 * m, vflip, even + m, odd + m);
        }
        c += joint;
        if (vec16)
          for (; c + 16 <= c_hi; c += 16)
            interleave_words<16>(ch, c * stride + b - padding, stride, W,
                                 vflip, row + c);
        if (vec8)
          for (; c + 8 <= c_hi; c += 8)
            interleave_words<8>(ch, c * stride + b - padding, stride, W,
                                vflip, row + c);
#endif
        for (; c < c_hi; ++c) {
          const int64_t x = c * stride + b - padding;
          row[c] = (static_cast<uint32_t>(ch[0][x]) |
                    static_cast<uint32_t>(ch[1][x]) << 8 |
                    static_cast<uint32_t>(ch[2][x]) << 16 |
                    static_cast<uint32_t>(ch[3][x]) << 24) ^
                   flip_word;
        }
        std::fill(row + c_hi, row + sp.pwp, pad_word);
      }
    }
}

// The channel sums of pixels [x_lo, x_hi) of the window's row for
// source row y, whose pixel x reads source column x - padding.
void row_pixel_sums(const uint8_t* planes, int64_t c_count, int64_t H,
                    int64_t W, int64_t y, int64_t padding, int64_t x_lo,
                    int64_t x_hi, int32_t* p) {
  const uint8_t* row0 = planes + y * W;
  const int64_t plane = H * W;
  int64_t x = x_lo;
#if APT_X86
  // Whole chunks, then one chunk ending at x_hi (its overlap rewrites
  // the same sums).
  const int64_t n = x_hi - x_lo;
  if (n >= 16) {
    for (; x + 16 <= x_hi; x += 16)
      pixel_sums<16>(c_count, plane, row0, x - padding, p + x);
    if (x < x_hi)
      pixel_sums<16>(c_count, plane, row0, x_hi - 16 - padding,
                     p + x_hi - 16);
    return;
  }
  if (n >= 8) {
    for (; x + 8 <= x_hi; x += 8)
      pixel_sums<8>(c_count, plane, row0, x - padding, p + x);
    if (x < x_hi)
      pixel_sums<8>(c_count, plane, row0, x_hi - 8 - padding, p + x_hi - 8);
    return;
  }
#endif
  std::fill(p + x, p + x_hi, 0);
  for (int64_t c = 0; c < c_count; ++c)
    for (int64_t i = x; i < x_hi; ++i) p[i] += row0[c * plane + i - padding];
}

// out[i] = sum over t < kernel of in[i * stride + t * step] for i < n:
// a row's horizontal window sums (step 1) or the vertical ones down a
// column of rows (step = the row length, stride 1).
void window_sums(const int32_t* in, int64_t step, int64_t stride,
                 int64_t kernel, int64_t n, int32_t* out) {
  int64_t i = 0;
#if APT_X86
  if (stride == 1) {
    for (; i + 4 <= n; i += 4) {
      auto at = [&](int64_t t) {
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(in + i + t * step));
      };
      __m128i acc = at(0);
      for (int64_t t = 1; t < kernel; ++t) acc = _mm_add_epi32(acc, at(t));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), acc);
    }
  }
#endif
  for (; i < n; ++i) {
    int32_t acc = 0;
    for (int64_t t = 0; t < kernel; ++t) acc += in[i * stride + t * step];
    out[i] = acc;
  }
}

}  // namespace

int64_t conv_image_bytes(int64_t c_count, int64_t H, int64_t W,
                         int64_t kernel, int64_t stride, int64_t padding) {
  return ImageSpace(c_count, H, W, kernel, stride, padding).total;
}

GemmS8ConvImage stage_conv_image_u8(const uint8_t* planes, int64_t c_count,
                                    int64_t H, int64_t W, int64_t kernel,
                                    int64_t stride, int64_t padding,
                                    uint8_t pad_code, uint8_t flip,
                                    void* space) {
  const ImageSpace sp(c_count, H, W, kernel, stride, padding);
  auto* base = static_cast<uint8_t*>(space);
  auto* colsum = reinterpret_cast<int32_t*>(base + sp.colsum);
  auto* pix = reinterpret_cast<int32_t*>(base + sp.pix);
  auto* rows = reinterpret_cast<int32_t*>(base + sp.rows);
  uint8_t* pad_row = base + sp.pad_row;
  uint8_t* img = base + sp.img;
  std::fill(pad_row, pad_row + W, pad_code);

  for (int64_t cq = 0; cq < sp.quads; ++cq)
    stage_quad(planes, c_count, H, W, stride, padding, pad_code, flip, sp,
               pad_row, cq, img);

  // Column code sums of the codes before the flip: per-pixel channel
  // sums over the window the taps read, then K x K window sums of those
  // (exact integers, so the summation order is free).
  const int32_t pad_sum = static_cast<int32_t>(c_count) * pad_code;
  const int64_t x_lo = std::min(sp.we, padding);
  const int64_t x_hi = std::min(sp.we, padding + W);
  for (int64_t yy = 0; yy < sp.he; ++yy) {
    int32_t* p = pix + yy * sp.we;
    const int64_t y = yy - padding;
    if (y < 0 || y >= H) {
      std::fill(p, p + sp.we, pad_sum);
      continue;
    }
    std::fill(p, p + x_lo, pad_sum);
    row_pixel_sums(planes, c_count, H, W, y, padding, x_lo, x_hi, p);
    std::fill(p + x_hi, p + sp.we, pad_sum);
  }
  for (int64_t yy = 0; yy < sp.he; ++yy)
    window_sums(pix + yy * sp.we, 1, stride, kernel, sp.ow,
                rows + yy * sp.ow);
  for (int64_t y = 0; y < sp.oh; ++y)
    window_sums(rows + y * stride * sp.ow, sp.ow, 1, kernel, sp.ow,
                colsum + y * sp.ow);

  GemmS8ConvImage ci;
  ci.img = img;
  ci.colsum = colsum;
  ci.channels = c_count;
  ci.kernel = kernel;
  ci.stride = stride;
  ci.oh = sp.oh;
  ci.ow = sp.ow;
  ci.php = sp.php;
  ci.pwp = sp.pwp;
  ci.flip = flip;
  return ci;
}

void col2im_reference(const float* cols, int64_t n, int64_t c_begin,
                      int64_t c_count, int64_t kernel, int64_t stride,
                      int64_t padding, int64_t oh, int64_t ow, Tensor& dx) {
  const int64_t C = dx.dim(1), H = dx.dim(2), W = dx.dim(3);
  int64_t row = 0;
  for (int64_t c = c_begin; c < c_begin + c_count; ++c) {
    float* chan = dx.data() + (n * C + c) * H * W;
    for (int64_t kh = 0; kh < kernel; ++kh)
      for (int64_t kw = 0; kw < kernel; ++kw, ++row) {
        const float* in = cols + row * (oh * ow);
        int64_t xo_lo, xo_hi;
        valid_x_range(kw, stride, padding, W, ow, &xo_lo, &xo_hi);
        for (int64_t y = 0; y < oh; ++y, in += ow) {
          const int64_t in_y = y * stride - padding + kh;
          if (in_y < 0 || in_y >= H) continue;
          float* dst = chan + in_y * W + (xo_lo * stride - padding + kw);
          if (stride == 1) {
            for (int64_t xo = xo_lo; xo < xo_hi; ++xo)
              dst[xo - xo_lo] += in[xo];
          } else {
            for (int64_t xo = xo_lo; xo < xo_hi; ++xo)
              dst[(xo - xo_lo) * stride] += in[xo];
          }
        }
      }
  }
}

namespace {

#if APT_X86
// Widest kernel the gather handles (its per-kw lane masks live on the
// stack); wider kernels take the reference scatter.
constexpr int64_t kGatherMaxKernel = 16;

// col2im at stride 1 as a gather. Each 8-column chunk of a dx row stays
// in one register while it adds every tap that lands on it — in the
// scatter's (kh, kw) order, so each element sees the same fp32 adds in
// the same order — and is stored once. Which lanes of a chunk tap kw
// reaches is the same for every row and channel, so it is worked out
// once per chunk. A tap that reaches only some lanes loads just those
// (a masked load reads nothing else) and blends the sum in on them
// alone: the other lanes are never added to, so a -0.0 or NaN already
// in dx stays exactly as the scatter leaves it. `dx` points at channel
// c_begin of the sample.
__attribute__((target("avx2"))) void col2im_gather_avx2(
    const float* cols, int64_t c_count, int64_t H, int64_t W, int64_t kernel,
    int64_t padding, int64_t oh, int64_t ow, float* dx) {
  const int64_t plane = oh * ow;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  enum : uint8_t { kNone, kAll, kSome };
  for (int64_t ix0 = 0; ix0 < W; ix0 += 8) {
    const int64_t nv = std::min<int64_t>(8, W - ix0);
    const __m256i in_row =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(nv)), iota);
    // Lane l of tap kw reads output column x0 + l, x0 = ix0 + padding -
    // kw; it is valid for l in [lo, hi).
    __m256i mask[kGatherMaxKernel];
    uint8_t reach[kGatherMaxKernel];
    for (int64_t kw = 0; kw < kernel; ++kw) {
      const int64_t x0 = ix0 + padding - kw;
      const int64_t lo = std::max<int64_t>(0, -x0);
      const int64_t hi = std::min(nv, ow - x0);
      reach[kw] = lo >= hi ? kNone : lo == 0 && hi == 8 ? kAll : kSome;
      mask[kw] = _mm256_and_si256(
          _mm256_cmpgt_epi32(iota, _mm256_set1_epi32(static_cast<int>(lo - 1))),
          _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), iota));
    }
    for (int64_t c = 0; c < c_count; ++c) {
      for (int64_t iy = 0; iy < H; ++iy) {
        float* d = dx + (c * H + iy) * W + ix0;
        __m256 acc = nv == 8 ? _mm256_loadu_ps(d)
                             : _mm256_maskload_ps(d, in_row);
        // Taps whose output row y = iy + padding - kh lies in [0, oh).
        const int64_t kh_lo = std::max<int64_t>(0, iy + padding - oh + 1);
        const int64_t kh_hi = std::min(kernel, iy + padding + 1);
        for (int64_t kh = kh_lo; kh < kh_hi; ++kh) {
          // Offset of lane 0 of tap (kh, kw = 0); each kw moves one
          // plane on and one column back. It never precedes `cols`
          // (x0 >= -kw while the tap starts kw planes in).
          int64_t off = ((c * kernel + kh) * kernel) * plane +
                        (iy + padding - kh) * ow + ix0 + padding;
          for (int64_t kw = 0; kw < kernel; ++kw, off += plane - 1) {
            if (reach[kw] == kAll) {
              acc = _mm256_add_ps(acc, _mm256_loadu_ps(cols + off));
            } else if (reach[kw] == kSome) {
              const __m256 sum = _mm256_add_ps(
                  acc, _mm256_maskload_ps(cols + off, mask[kw]));
              acc = _mm256_blendv_ps(acc, sum, _mm256_castsi256_ps(mask[kw]));
            }
          }
        }
        if (nv == 8) {
          _mm256_storeu_ps(d, acc);
        } else {
          _mm256_maskstore_ps(d, in_row, acc);
        }
      }
    }
  }
}
#endif  // APT_X86

}  // namespace

void col2im(const float* cols, int64_t n, int64_t c_begin, int64_t c_count,
            int64_t kernel, int64_t stride, int64_t padding, int64_t oh,
            int64_t ow, Tensor& dx) {
#if APT_X86
  if (stride == 1 && kernel <= kGatherMaxKernel && cpu_has_avx2_fma()) {
    const int64_t C = dx.dim(1), H = dx.dim(2), W = dx.dim(3);
    col2im_gather_avx2(cols, c_count, H, W, kernel, padding, oh, ow,
                       dx.data() + (n * C + c_begin) * H * W);
    return;
  }
#endif
  col2im_reference(cols, n, c_begin, c_count, kernel, stride, padding, oh, ow,
                   dx);
}

Conv2d::Conv2d(std::string name, const Conv2dOptions& opts, Rng& rng)
    : GemmLayer(std::move(name),
                Shape{opts.out_channels, opts.in_channels / opts.groups,
                      opts.kernel, opts.kernel},
                opts.out_channels, opts.bias),
      opts_(opts) {
  APT_CHECK(opts.in_channels % opts.groups == 0 &&
            opts.out_channels % opts.groups == 0)
      << name_ << ": channels not divisible by groups";
  const int64_t fan_in =
      (opts.in_channels / opts.groups) * opts.kernel * opts.kernel;
  he_normal(weight_.value, fan_in, rng);
}

PlanKey ConvS8Forward::plan_key(const Conv2dOptions& o, int64_t h,
                                int64_t w, int32_t w_max, int32_t x_max) {
  const int64_t oh = (h + 2 * o.padding - o.kernel) / o.stride + 1;
  const int64_t ow = (w + 2 * o.padding - o.kernel) / o.stride + 1;
  return PlanKey::conv_s8(
      o.out_channels / o.groups, oh * ow,
      o.in_channels / o.groups * o.kernel * o.kernel,
      static_cast<int32_t>(o.kernel), static_cast<int32_t>(o.stride),
      static_cast<int32_t>(o.padding), w_max, x_max);
}

namespace {

// The weight row length the forward's A operand has under `plan`: the
// code layout's icg*kernel^2, or whole channel quads in the image's k
// order.
int64_t forward_weight_row(const KernelPlan& plan, const Conv2dOptions& o) {
  const int64_t icg = o.in_channels / o.groups;
  if (plan.strategy == PlanStrategy::kS8ConvDirect) return icg;
  return (icg + 3) / 4 * 4 * o.kernel * o.kernel;
}

// An integer conv's dX is itself a stride-1 conv over dY, its
// transposed conv:
//
//   dX[c][y][x] = sum over (o, kh, kw) of Wf[c][o][kh][kw] *
//                 dY'[o][y + kh][x + kw],
//
// Wf the weight codes flipped in (kh, kw) with input and output channels
// swapped (flip_weights), and dY' dY padded by k-1-p with the gradient
// grid's zero-point. A strided conv, or one padded by a kernel or more,
// instead reads dY zero-inserted (insert_zeros): codes at multiples of
// the stride, the zero-point elsewhere, in a plane sized so the
// unpadded stride-1 conv lands exactly on H x W.
//
// An unpadded strided 1x1 conv skips the inserted plane (`scattered`):
// its transposed conv is the 1x1 conv over dY's own OH x OW plane, whose
// outputs land at the stride-s pixels of dX (scatter_strided). Every
// other pixel of dX sees only zero-point codes, so its exact sum T is 0
// and the inserted route writes float(Sa*Sb*0) = +0.0 there: the
// zero-initialised dX holds the same bits.
struct TransposedConv {
  Conv2dOptions o;  // OC input channels, IC output channels, stride 1
  int64_t h, w;     // its input plane: dY, or the zero-inserted plane
  bool inserted;
  bool scattered;
};

TransposedConv transposed_conv(const Conv2dOptions& o, int64_t H,
                               int64_t W) {
  TransposedConv t;
  t.o = o;
  t.o.in_channels = o.out_channels;
  t.o.out_channels = o.in_channels;
  t.o.stride = 1;
  t.scattered = o.kernel == 1 && o.padding == 0 && o.stride > 1;
  t.inserted = !t.scattered && (o.stride > 1 || o.padding >= o.kernel);
  if (t.scattered) {
    t.h = (H - 1) / o.stride + 1;
    t.w = (W - 1) / o.stride + 1;
  } else if (t.inserted) {
    t.o.padding = 0;
    t.h = H + o.kernel - 1;
    t.w = W + o.kernel - 1;
  } else {
    t.o.padding = o.kernel - 1 - o.padding;
    t.h = H + 2 * o.padding - o.kernel + 1;
    t.w = W + 2 * o.padding - o.kernel + 1;
  }
  return t;
}

// [OC][IC/G][K][K] weight codes as the transposed conv's
// [IC][OC/G][K][K], each kernel reversed in (kh, kw).
void flip_weights(const Conv2dOptions& o, const uint8_t* w, uint8_t* dst) {
  const int64_t icg = o.in_channels / o.groups;
  const int64_t ocg = o.out_channels / o.groups;
  const int64_t kk = o.kernel * o.kernel;
  for (int64_t g = 0; g < o.groups; ++g)
    for (int64_t c = 0; c < icg; ++c)
      for (int64_t r = 0; r < ocg; ++r) {
        const uint8_t* src = w + ((g * ocg + r) * icg + c) * kk;
        uint8_t* out = dst + ((g * icg + c) * ocg + r) * kk;
        for (int64_t t = 0; t < kk; ++t) out[t] = src[kk - 1 - t];
      }
}

// One sample's [OC][oh][ow] dY codes zero-inserted into the transposed
// conv's [OC][ph][pw] input plane: dY[i][j] at (i*s + d, j*s + d),
// d = k-1-p (the plane's pixel of zero-inserted position 0), every
// other pixel `zero`. Codes that land outside the plane (padding >=
// kernel) are cropped.
void insert_zeros(const Conv2dOptions& o, const uint8_t* dy, int64_t oh,
                  int64_t ow, int64_t ph, int64_t pw, uint8_t zero,
                  uint8_t* plane) {
  const int64_t s = o.stride, d = o.kernel - 1 - o.padding;
  // dY index range [lo, hi) whose plane coordinate i*s + d lies in [0, n).
  auto range = [&](int64_t count, int64_t n, int64_t* lo, int64_t* hi) {
    *lo = d >= 0 ? 0 : (s - 1 - d) / s;
    *hi = std::max(*lo, std::min(count, n - d > 0 ? (n - 1 - d) / s + 1 : 0));
  };
  int64_t i_lo, i_hi, j_lo, j_hi;
  range(oh, ph, &i_lo, &i_hi);
  range(ow, pw, &j_lo, &j_hi);
  std::fill(plane, plane + o.out_channels * ph * pw, zero);
  for (int64_t c = 0; c < o.out_channels; ++c)
    for (int64_t i = i_lo; i < i_hi; ++i) {
      const uint8_t* src = dy + (c * oh + i) * ow;
      uint8_t* row = plane + (c * ph + i * s + d) * pw;
      for (int64_t j = j_lo; j < j_hi; ++j) row[j * s + d] = src[j];
    }
}

// One sample's [IC][oh][ow] transposed-conv output placed at the
// stride-s pixels (i*s, j*s) of its [IC][H][W] dX, whose other pixels
// stay as they are (+0.0, see TransposedConv).
void scatter_strided(const float* planes, int64_t channels, int64_t oh,
                     int64_t ow, int64_t stride, int64_t H, int64_t W,
                     float* dx) {
  for (int64_t c = 0; c < channels; ++c)
    for (int64_t i = 0; i < oh; ++i) {
      const float* src = planes + (c * oh + i) * ow;
      float* row = dx + (c * H + i * stride) * W;
      for (int64_t j = 0; j < ow; ++j) row[j * stride] = src[j];
    }
}

}  // namespace

int64_t ConvS8Forward::weight_bytes(const KernelPlan& plan,
                                    const Conv2dOptions& o) {
  if (plan.strategy == PlanStrategy::kS8ConvDirect) return 0;
  return o.out_channels * forward_weight_row(plan, o);
}

void ConvS8Forward::reorder_weights(const Conv2dOptions& o,
                                    const uint8_t* w, uint8_t* dst) {
  const int64_t icg = o.in_channels / o.groups, kk = o.kernel * o.kernel;
  const int64_t quads = (icg + 3) / 4;
  for (int64_t r = 0; r < o.out_channels; ++r) {
    const uint8_t* src = w + r * icg * kk;
    for (int64_t cq = 0; cq < quads; ++cq)
      for (int64_t tap = 0; tap < kk; ++tap)
        for (int64_t t = 0; t < 4; ++t, ++dst) {
          const int64_t c = 4 * cq + t;
          *dst = c < icg ? src[c * kk + tap] : 0;
        }
  }
}

ConvS8Forward::ConvS8Forward(const KernelPlan& plan, const Conv2dOptions& o,
                             int64_t h, int64_t w, const S8ForwardArgs& args)
    : plan_(plan),
      o_(o),
      h_(h),
      w_(w),
      direct_(plan.strategy == PlanStrategy::kS8ConvDirect),
      args_(args),
      // Weights are A here, so A carries the weight grid and ceiling.
      params_(s8_params(args.w_grid, args.x_grid)),
      c_(o.in_channels),
      icg_(o.in_channels / o.groups),
      oc_(o.out_channels),
      // The group GEMM is ocg x (oh*ow) x krows.
      ocg_(plan.key.m),
      a_row_(forward_weight_row(plan, o)),
      in_plane_(h * w),
      out_plane_(plan.key.n) {
  params_.max_a = args.w_max;
  params_.max_b = static_cast<int32_t>(quant::max_code(args.x_grid.bits));
  if (!direct_) flip_ = gemm_s8_conv_image_flip(plan, params_);
}

uint8_t* ConvS8Forward::alloc_stage(ScratchArena::Scope& scope) const {
  if (direct_) return nullptr;
  return static_cast<uint8_t*>(scope.alloc_bytes(static_cast<size_t>(
      conv_image_bytes(icg_, h_, w_, o_.kernel, o_.stride, o_.padding))));
}

void ConvS8Forward::run(int64_t n, int64_t g, uint8_t* stage, float* lo,
                        float* hi) const {
  run_on(args_.x + n * c_ * in_plane_, n, g, stage, lo, hi);
}

void ConvS8Forward::run(const uint8_t* x, int64_t n, int64_t g,
                        uint8_t* stage) const {
  run_on(x, n, g, stage, nullptr, nullptr);
}

void ConvS8Forward::run_on(const uint8_t* x, int64_t n, int64_t g,
                           uint8_t* stage, float* lo, float* hi) const {
  GemmS8ConvImage ci;
  GemmS8Args ga;
  ga.a = args_.w + g * ocg_ * a_row_;
  ga.params = params_;
  const uint8_t* plane = x + g * icg_ * in_plane_;
  if (direct_) {
    // B = the [icg, H*W] code plane itself (k = icg, n = OH*OW = H*W):
    // bit-identical to the implicit gather, zero staging.
    ga.b = plane;
  } else {
    ci = stage_conv_image_u8(
        plane, icg_, h_, w_, o_.kernel, o_.stride, o_.padding,
        static_cast<uint8_t>(args_.x_grid.zero_point), flip_, stage);
    ga.conv_image = &ci;
  }
  GemmS8Epilogue epi = args_.epi;
  epi.channel_is_row = true;
  if (epi.scale != nullptr) epi.scale += g * ocg_;
  if (epi.bias != nullptr) epi.bias += g * ocg_;
  epi.observe_lo = lo;
  epi.observe_hi = hi;
  ga.epilogue = &epi;
  const int64_t out_off = (n * oc_ + g * ocg_) * out_plane_;
  if (args_.y_codes != nullptr) {
    ga.out_codes = args_.y_codes + out_off;
  } else {
    ga.out = args_.y + out_off;
  }
  gemm_s8_ex(plan_, ga);
}

void Conv2d::check_input(const Shape& in_shape) {
  APT_CHECK(in_shape.rank() == 4 && in_shape[1] == opts_.in_channels)
      << name_ << ": bad input " << in_shape.str();
  if (current_shard() == 0) {
    // Shape-derived profile fields are identical across shards; one shard
    // writes them so concurrent forwards never race on the stores.
    const int64_t OH = out_size(in_shape[2]), OW = out_size(in_shape[3]);
    const int64_t krows =
        (opts_.in_channels / opts_.groups) * opts_.kernel * opts_.kernel;
    macs_per_sample_ = opts_.out_channels * OH * OW * krows;
    out_elems_ = opts_.out_channels * OH * OW;
  }
}

Tensor Conv2d::forward_fp32(const Tensor& x) {
  const int64_t N = x.dim(0);
  const int64_t OH = out_size(x.dim(2)), OW = out_size(x.dim(3));
  const int64_t G = opts_.groups;
  const int64_t icg = opts_.in_channels / G, ocg = opts_.out_channels / G;
  const int64_t krows = icg * opts_.kernel * opts_.kernel;
  Tensor y = Tensor::uninitialized(Shape{N, opts_.out_channels, OH, OW});
  // Y_g [ocg, OH*OW] = W_g [ocg, krows] * cols [krows, OH*OW], W_g packed
  // once for this call's samples. One task per sample; the GEMMs inside run
  // single-chunk (work below the pool's grain). The patch matrix is
  // never built: each GEMM packs it straight from the sample's padded
  // image (f32_operand), staged in the task's arena scope.
  ScratchArena::Scope wscope(ScratchArena::thread_local_arena());
  const F32Weight w(PlanKey::f32(ocg, OH * OW, krows, false, false),
                    weight_.value.data(), G, wscope);
  ThreadPool::global().parallel_for(0, N, [&](int64_t n0, int64_t n1) {
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    float* stage = padded_stage<float>(scope, opts_, x.dim(2), x.dim(3));
    for (int64_t n = n0; n < n1; ++n)
      for (int64_t g = 0; g < G; ++g)
        w.gemm(g, f32_operand(opts_, x, n, g, stage),
               y.data() + (n * opts_.out_channels + g * ocg) * OH * OW);
  });

  if (opts_.bias) {
    // Each (sample, channel) plane is independent: batch them through
    // the pool, grained so small planes do not fragment into tiny tasks.
    const float* b = bias_.value.data();
    const int64_t plane = OH * OW;
    ThreadPool::global().parallel_for(
        0, N * opts_.out_channels,
        [&](int64_t pc0, int64_t pc1) {
          for (int64_t pc = pc0; pc < pc1; ++pc) {
            float* out = y.data() + pc * plane;
            const float bc = b[pc % opts_.out_channels];
            for (int64_t i = 0; i < plane; ++i) out[i] += bc;
          }
        },
        std::max<int64_t>(1, (1 << 14) / plane));
  }
  return y;
}

Tensor Conv2d::forward_int8(const uint8_t* x, const quant::QuantParams& xq,
                            const Shape& x_shape, QuantizedActivation* qy,
                            std::pair<float, float>* observed) {
  const int64_t N = x_shape[0], H = x_shape[2], W = x_shape[3];
  const int64_t G = opts_.groups;
  Tensor y;
  S8ForwardArgs args = int8_forward_args(
      x, xq, Shape{N, opts_.out_channels, out_size(H), out_size(W)}, qy, &y);

  // Exact per-(sample, group) output-range probes, merged after the
  // parallel section (min/max is order-independent). They live in the
  // caller's scratch scope.
  ScratchArena::Scope obs_scope(ScratchArena::thread_local_arena());
  float* obs_lo = obs_scope.alloc_floats(static_cast<size_t>(2 * N * G));
  float* obs_hi = obs_lo + N * G;

  // One plan per (shape, geometry, ceilings) covers every (sample,
  // group) GEMM in the batch; after the first forward it is a pure cache
  // hit. The GEMMs run as pool tasks, one per sample, so each is planned
  // for one thread (as serving plans its requests). The weight codes are
  // reordered to the conv image's k order once per call, into the
  // caller's scratch scope, so no reordered copy outlives the call
  // (nothing to invalidate on a step).
  PlanKey key = ConvS8Forward::plan_key(
      opts_, H, W, args.w_max, static_cast<int32_t>(quant::max_code(xq.bits)));
  key.threads = 1;
  const KernelPlan& plan = plan_for(key);
  if (const int64_t wb = ConvS8Forward::weight_bytes(plan, opts_); wb > 0) {
    auto* wi = static_cast<uint8_t*>(
        obs_scope.alloc_bytes(static_cast<size_t>(wb)));
    ConvS8Forward::reorder_weights(opts_, args.w, wi);
    args.w = wi;
  }
  const ConvS8Forward fwd(plan, opts_, H, W, args);

  ThreadPool::global().parallel_for(0, N, [&](int64_t n0, int64_t n1) {
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    uint8_t* stage = fwd.alloc_stage(scope);
    for (int64_t n = n0; n < n1; ++n)
      for (int64_t g = 0; g < G; ++g)
        fwd.run(n, g, stage, obs_lo + n * G + g, obs_hi + n * G + g);
  });

  float lo = obs_lo[0], hi = obs_hi[0];
  for (int64_t i = 1; i < N * G; ++i) {
    lo = std::min(lo, obs_lo[i]);
    hi = std::max(hi, obs_hi[i]);
  }
  *observed = {lo, hi};
  return y;
}

Tensor Conv2d::backward_fp32(const Tensor& x, const Tensor& dy) {
  const int64_t OH = dy.dim(2), OW = dy.dim(3);
  const int64_t G = opts_.groups;
  const int64_t icg = opts_.in_channels / G, ocg = opts_.out_channels / G;
  const int64_t krows = icg * opts_.kernel * opts_.kernel;
  Tensor dx(x.shape());
  // dcols [krows, OH*OW] = W_g^T [krows, ocg] * dY_g, W_gᵀ packed once
  // for this call's samples (the transpose folded into the pack).
  ScratchArena::Scope wscope(ScratchArena::thread_local_arena());
  const F32Weight wt(PlanKey::f32(krows, OH * OW, ocg, true, false),
                     weight_.value.data(), G, wscope);
  // dW_g [ocg, krows] += dY_g [ocg, OH*OW] * cols^T, colsᵀ packed
  // straight from the padded image like forward's B. dY_g differs per
  // sample, so only its plan is shared.
  const KernelPlan& plan_dw =
      plan_for(PlanKey::f32(ocg, krows, OH * OW, false, true));
  accumulate_dw(weight_, x.dim(0), [&](float* dw, int64_t n0, int64_t n1) {
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    float* stage = padded_stage<float>(scope, opts_, x.dim(2), x.dim(3));
    float* dcols = scope.alloc_floats(static_cast<size_t>(krows * OH * OW));
    for (int64_t n = n0; n < n1; ++n)
      for (int64_t g = 0; g < G; ++g) {
        const float* dyg =
            dy.data() + ((n * opts_.out_channels + g * ocg) * OH * OW);
        gemm_conv_ex(plan_dw, 1.0f, dyg, f32_operand(opts_, x, n, g, stage),
                     1.0f, dw + g * ocg * krows);
        wt.gemm(g, dyg, dcols);
        col2im(dcols, n, g * icg, icg, opts_.kernel, opts_.stride,
               opts_.padding, OH, OW, dx);
      }
  });
  return dx;
}

Tensor Conv2d::backward_int8(const QuantizedActivation& x, const uint8_t* dy,
                             const quant::QuantParams& gq,
                             const Shape& dy_shape) {
  const quant::QuantParams& xq = x.params;
  const int64_t N = x.shape[0], H = x.shape[2], W = x.shape[3];
  const int64_t OH = dy_shape[2], OW = dy_shape[3];
  const int64_t G = opts_.groups;
  const int64_t icg = opts_.in_channels / G, ocg = opts_.out_channels / G;
  const int64_t krows = icg * opts_.kernel * opts_.kernel;
  const quant::QuantizedTensor* wq = int8_weights();
  const auto g_max = static_cast<int32_t>(quant::max_code(gq.bits));

  // dX = the transposed conv's forward over dY: one exact integer sum
  // and one float(Sa*Sb*T) per element. Its weights (flipped, channels
  // swapped, then in the image's k order) live in the caller's scratch
  // scope, so steady-state backwards allocate nothing. The transposed
  // conv writes every element of dX, except where it is scattered: then
  // it writes [N][IC][OH][OW] planes in that scope, and dX starts zeroed.
  ScratchArena::Scope outer(ScratchArena::thread_local_arena());
  const TransposedConv tc = transposed_conv(opts_, H, W);
  Tensor dx = tc.scattered ? Tensor(x.shape) : Tensor::uninitialized(x.shape);
  const int64_t sc_plane = opts_.in_channels * tc.h * tc.w;
  float* scattered =
      tc.scattered ? outer.alloc_floats(static_cast<size_t>(N * sc_plane))
                   : nullptr;
  S8ForwardArgs dargs;  // run() is handed each sample's input plane
  dargs.x_grid = gq;
  dargs.w_grid = wq->params();
  dargs.w_max = static_cast<int32_t>(quant::max_code(wq->bits()));
  dargs.y = tc.scattered ? scattered : dx.data();
  // The samples run as pool tasks (accumulate_dw), so their dX conv and
  // dW GEMM are planned for one thread, like the forward's.
  PlanKey dx_key =
      ConvS8Forward::plan_key(tc.o, tc.h, tc.w, dargs.w_max, g_max);
  dx_key.threads = 1;
  const KernelPlan& plan_dx = plan_for(dx_key);
  auto* wf = static_cast<uint8_t*>(
      outer.alloc_bytes(static_cast<size_t>(weight_.numel())));
  flip_weights(opts_, wq->codes_u8(), wf);
  dargs.w = wf;
  if (const int64_t wb = ConvS8Forward::weight_bytes(plan_dx, tc.o); wb > 0) {
    auto* wi = static_cast<uint8_t*>(
        outer.alloc_bytes(static_cast<size_t>(wb)));
    ConvS8Forward::reorder_weights(tc.o, wf, wi);
    dargs.w = wi;
  }
  const ConvS8Forward dx_conv(plan_dx, tc.o, tc.h, tc.w, dargs);

  // dW_g [ocg, krows] = dYq_g [ocg, OH*OW] · colsᵀ [OH*OW, krows], cols
  // the byte im2col of the cached input codes (padding = the input
  // grid's zero-point, exactly like forward). colsᵀ is never built: the
  // GEMM packs it straight from each sample's padded code image through
  // the transposed implicit operand (padded_operand; the plan's trans_b).
  GemmS8Params pw = s8_params(gq, xq);
  pw.max_a = g_max;
  pw.max_b = static_cast<int32_t>(quant::max_code(xq.bits));
  PlanKey dw_key = PlanKey::s8(ocg, krows, OH * OW, /*trans_a=*/false,
                               /*trans_b=*/true, pw.max_a, pw.max_b);
  dw_key.threads = 1;
  const KernelPlan& plan_dw = plan_for(dw_key);
  const auto pad_code = static_cast<uint8_t>(xq.zero_point);

  auto dw_samples = [&](float* dw, int64_t n0, int64_t n1) {
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    uint8_t* stage = padded_stage<uint8_t>(scope, opts_, H, W);
    float* dwg = scope.alloc_floats(static_cast<size_t>(ocg * krows));
    for (int64_t n = n0; n < n1; ++n) {
      for (int64_t g = 0; g < G; ++g) {
        // gemm_s8 overwrites: stage in dwg, accumulate in order.
        const GemmS8ConvB cb = padded_operand(
            opts_, x.codes.data() + (n * opts_.in_channels + g * icg) * H * W,
            H, W, pad_code, stage);
        GemmS8Args gw;
        gw.a = dy + (n * opts_.out_channels + g * ocg) * OH * OW;
        gw.conv_b = &cb;
        gw.params = pw;
        gw.out = dwg;
        gemm_s8_ex(plan_dw, gw);
        float* acc = dw + g * ocg * krows;
        for (int64_t i = 0; i < ocg * krows; ++i) acc[i] += dwg[i];
      }
    }
  };
  auto dx_samples = [&](int64_t n0, int64_t n1) {
    ScratchArena::Scope scope(ScratchArena::thread_local_arena());
    uint8_t* dx_stage = dx_conv.alloc_stage(scope);
    uint8_t* inserted =
        tc.inserted ? static_cast<uint8_t*>(scope.alloc_bytes(
                          static_cast<size_t>(opts_.out_channels * tc.h *
                                              tc.w)))
                    : nullptr;
    for (int64_t n = n0; n < n1; ++n) {
      const uint8_t* dyn = dy + n * opts_.out_channels * OH * OW;
      const uint8_t* dx_in = dyn;
      if (inserted != nullptr) {
        insert_zeros(opts_, dyn, OH, OW, tc.h, tc.w,
                     static_cast<uint8_t>(gq.zero_point), inserted);
        dx_in = inserted;
      }
      for (int64_t g = 0; g < G; ++g) dx_conv.run(dx_in, n, g, dx_stage);
      if (tc.scattered)
        scatter_strided(scattered + n * sc_plane, opts_.in_channels, tc.h,
                        tc.w, opts_.stride, H, W,
                        dx.data() + n * opts_.in_channels * H * W);
    }
  };
  accumulate_dw(weight_, N, dw_samples, dx_samples);
  return dx;
}

void Conv2d::backward_bias(const Tensor& dy) {
  // Each db[c] is owned by one task and the inner n-then-i order is
  // fixed, keeping the reduction deterministic for any pool size; totals
  // below the small-work floor run inline (pool dispatch costs more than
  // the reduction itself — see the train_step benches).
  const int64_t N = dy.dim(0);
  const int64_t plane = dy.dim(2) * dy.dim(3);
  float* db = grad_sink(bias_).data();
  auto reduce = [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      float acc = 0.0f;
      for (int64_t n = 0; n < N; ++n) {
        const float* g = dy.data() + ((n * opts_.out_channels + c) * plane);
        for (int64_t i = 0; i < plane; ++i) acc += g[i];
      }
      db[c] += acc;
    }
  };
  if (N * plane * opts_.out_channels < (1 << 16)) {
    reduce(0, opts_.out_channels);
  } else {
    ThreadPool::global().parallel_for(
        0, opts_.out_channels, reduce,
        std::max<int64_t>(1, (1 << 14) / (N * plane)));
  }
}

}  // namespace apt::nn
