// Scalar reference kernels: the bit-exact oracle every SIMD backend is
// pinned against. These are the historical inner loops of dct.cpp,
// quant.cpp, motion.cpp, convert.cpp and tensor/ops.cpp, moved here verbatim
// (raw-pointer arguments replacing the wrapper types) so the dispatch table
// has a scalar entry for every family. This TU is compiled with the global
// flags only — no per-file ISA options — so its codegen semantics are
// exactly what those call sites historically produced.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "simd/kernels.hpp"
#include "simd/kernels_inline.hpp"

namespace dcsr::simd {

bool scalar_fma_contraction() noexcept {
#if defined(__FMA__)
  // GCC's default -ffp-contract=fast fuses the oracle's `acc += a * b`
  // statements into FMAs whenever the target has them. Backends that mirror
  // those fused chains with FMA intrinsics are only bit-exact against the
  // oracle when the oracle itself was contracted, so the dispatcher gates
  // the float-accumulating families on this.
  return true;
#else
  return false;
#endif
}

namespace {

// Precomputed orthonormal DCT-II basis: kBasis[k*8+n] = c(k) *
// cos((2n+1)k*pi/16) — the same table dct.cpp historically built.
struct DctBasis {
  float m[64];
  float mt[64];
  DctBasis() noexcept {
    const double pi = 3.14159265358979323846;
    for (int k = 0; k < 8; ++k) {
      const double ck = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n)
        m[k * 8 + n] = static_cast<float>(
            ck * std::cos((2.0 * n + 1.0) * k * pi / 16.0));
    }
    for (int k = 0; k < 8; ++k)
      for (int n = 0; n < 8; ++n) mt[n * 8 + k] = m[k * 8 + n];
  }
};
const DctBasis kB;

void dct8x8_scalar(const float* in, float* out) {
  // Separable: rows then columns.
  float tmp[64];
  for (int y = 0; y < 8; ++y)
    for (int k = 0; k < 8; ++k) {
      float acc = 0.0f;
      for (int n = 0; n < 8; ++n) acc += kB.m[k * 8 + n] * in[y * 8 + n];
      tmp[y * 8 + k] = acc;
    }
  for (int x = 0; x < 8; ++x)
    for (int k = 0; k < 8; ++k) {
      float acc = 0.0f;
      for (int n = 0; n < 8; ++n) acc += kB.m[k * 8 + n] * tmp[n * 8 + x];
      out[k * 8 + x] = acc;
    }
}

void idct8x8_scalar(const float* in, float* out) {
  float tmp[64];
  for (int x = 0; x < 8; ++x)
    for (int n = 0; n < 8; ++n) {
      float acc = 0.0f;
      for (int k = 0; k < 8; ++k) acc += kB.m[k * 8 + n] * in[k * 8 + x];
      tmp[n * 8 + x] = acc;
    }
  for (int y = 0; y < 8; ++y)
    for (int n = 0; n < 8; ++n) {
      float acc = 0.0f;
      for (int k = 0; k < 8; ++k) acc += kB.m[k * 8 + n] * tmp[y * 8 + k];
      out[y * 8 + n] = acc;
    }
}

void dequant_idct8x8_scalar(const std::int32_t* levels, const float* steps,
                            float* out) {
  // Same op sequence as dequantize_block followed by idct8x8 — the fusion
  // only saves the intermediate Block8 round-trip, not any float op.
  float coeffs[64];
  for (int i = 0; i < 64; ++i)
    coeffs[i] = static_cast<float>(levels[i]) * steps[i];
  idct8x8_scalar(coeffs, out);
}

void quantize_block_scalar(const float* coeffs, const float* steps,
                           std::int32_t* levels) {
  for (int i = 0; i < 64; ++i)
    levels[i] = static_cast<std::int32_t>(std::lround(coeffs[i] / steps[i]));
}

void dequantize_block_scalar(const std::int32_t* levels, const float* steps,
                             float* coeffs) {
  for (int i = 0; i < 64; ++i)
    coeffs[i] = static_cast<float>(levels[i]) * steps[i];
}

constexpr int kMR = 6;   // register tile rows
constexpr int kNR = 16;  // register tile columns (two 8-lane vectors)

#if defined(__GNUC__) && !defined(DCSR_NO_VECTOR_EXT)

// 8-lane float vector (one AVX/NEON-pair register when available; GCC/Clang
// lower it to whatever the target has). Named vector variables — unlike a
// local float[4][16] — are reliably register-allocated, which is the whole
// game: the C tile must live in registers across the k loop.
typedef float Vec8 __attribute__((vector_size(32)));

inline Vec8 load8(const float* p) {
  Vec8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store8(float* p, Vec8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline Vec8 splat8(float x) { return Vec8{x, x, x, x, x, x, x, x}; }

// Full kMR x kNR tile held in registers across the k block: 12 accumulator
// vectors plus two B vectors and one broadcast fit the 16 AVX2 registers.
void gemm_tile_6x16_scalar(const float* A, std::size_t a_rs, std::size_t a_ks,
                           const float* B, std::size_t ldb, float* C,
                           std::size_t ldc, int kn) {
  Vec8 acc[kMR][2];
  for (int r = 0; r < kMR; ++r) {
    acc[r][0] = load8(C + r * ldc);
    acc[r][1] = load8(C + r * ldc + 8);
  }
  for (int kk = 0; kk < kn; ++kk) {
    const float* b = B + static_cast<std::size_t>(kk) * ldb;
    const Vec8 b0 = load8(b), b1 = load8(b + 8);
    const std::size_t ak = static_cast<std::size_t>(kk) * a_ks;
    const Vec8 a0 = splat8(A[ak]);
    acc[0][0] += a0 * b0;
    acc[0][1] += a0 * b1;
    const Vec8 a1 = splat8(A[a_rs + ak]);
    acc[1][0] += a1 * b0;
    acc[1][1] += a1 * b1;
    const Vec8 a2 = splat8(A[2 * a_rs + ak]);
    acc[2][0] += a2 * b0;
    acc[2][1] += a2 * b1;
    const Vec8 a3 = splat8(A[3 * a_rs + ak]);
    acc[3][0] += a3 * b0;
    acc[3][1] += a3 * b1;
    const Vec8 a4 = splat8(A[4 * a_rs + ak]);
    acc[4][0] += a4 * b0;
    acc[4][1] += a4 * b1;
    const Vec8 a5 = splat8(A[5 * a_rs + ak]);
    acc[5][0] += a5 * b0;
    acc[5][1] += a5 * b1;
  }
  for (int r = 0; r < kMR; ++r) {
    store8(C + r * ldc, acc[r][0]);
    store8(C + r * ldc + 8, acc[r][1]);
  }
}

#else

// Portable fallback: same tile, array accumulators.
void gemm_tile_6x16_scalar(const float* A, std::size_t a_rs, std::size_t a_ks,
                           const float* B, std::size_t ldb, float* C,
                           std::size_t ldc, int kn) {
  float acc[kMR][kNR];
  for (int r = 0; r < kMR; ++r)
    for (int c = 0; c < kNR; ++c) acc[r][c] = C[r * ldc + c];
  for (int kk = 0; kk < kn; ++kk) {
    const float* b = B + static_cast<std::size_t>(kk) * ldb;
    for (int r = 0; r < kMR; ++r) {
      const float a = A[r * a_rs + static_cast<std::size_t>(kk) * a_ks];
      for (int c = 0; c < kNR; ++c) acc[r][c] += a * b[c];
    }
  }
  for (int r = 0; r < kMR; ++r)
    for (int c = 0; c < kNR; ++c) C[r * ldc + c] = acc[r][c];
}

#endif

// Edge rows: gemm_strided's historical runtime-extent loop, one kNR-column
// tile at a time, accumulating straight into C.
void gemm_edge_rows_scalar(const float* A, std::size_t a_rs, std::size_t a_ks,
                           const float* B, std::size_t ldb, float* C,
                           std::size_t ldc, int mr, int nc, int kn) {
  for (int j0 = 0; j0 < nc; j0 += kNR)
    for (int kk = 0; kk < kn; ++kk) {
      const float* b = B + static_cast<std::size_t>(kk) * ldb + j0;
      for (int r = 0; r < mr; ++r) {
        const float a = A[r * a_rs + static_cast<std::size_t>(kk) * a_ks];
        float* c = C + static_cast<std::size_t>(r) * ldc + j0;
        for (int j = 0; j < kNR; ++j) c[j] += a * b[j];
      }
    }
}

// matmul_nt's historical dot tile (see kernels.hpp for the definition):
// each output accumulates over kDL independent lanes along k, then sums the
// lanes in order and adds the tail.
constexpr int kDR = 4;  // A rows per tile
constexpr int kDC = 2;  // B rows per tile
constexpr int kDL = 8;  // accumulation lanes

void dot_tile_4x2_scalar(const float* A, std::size_t lda, const float* B,
                         std::size_t ldb, float* C, std::size_t ldc, int mr,
                         int nr, int k) {
  float acc[kDR][kDC][kDL] = {};
  int kk = 0;
  for (; kk + kDL <= k; kk += kDL) {
    for (int r = 0; r < mr; ++r) {
      const float* a = A + static_cast<std::size_t>(r) * lda + kk;
      for (int c = 0; c < nr; ++c) {
        const float* b = B + static_cast<std::size_t>(c) * ldb + kk;
        for (int l = 0; l < kDL; ++l) acc[r][c][l] += a[l] * b[l];
      }
    }
  }
  for (int r = 0; r < mr; ++r) {
    for (int c = 0; c < nr; ++c) {
      float s = 0.0f;
      for (int l = 0; l < kDL; ++l) s += acc[r][c][l];
      const float* a = A + static_cast<std::size_t>(r) * lda;
      const float* b = B + static_cast<std::size_t>(c) * ldb;
      for (int t = kk; t < k; ++t) s += a[t] * b[t];
      C[static_cast<std::size_t>(r) * ldc + c] = s;
    }
  }
}

void im2col_row_scalar(const float* src, int H, int W, int oh, int ow,
                       int stride, int pad, int ky, int kx, float* dst) {
  for (int y = 0; y < oh; ++y) {
    const int sy = y * stride + ky - pad;
    for (int x = 0; x < ow; ++x) {
      const int sx = x * stride + kx - pad;
      dst[y * ow + x] =
          (sy >= 0 && sy < H && sx >= 0 && sx < W) ? src[sy * W + sx] : 0.0f;
    }
  }
}

// Smallest x >= 0 with x * stride >= a (stride > 0).
int first_at_least(int a, int stride) {
  return a <= 0 ? 0 : (a + stride - 1) / stride;
}

// Row-wise scatter: the in-bounds outputs of (ky, kx) form one window
// [y_lo, y_hi) x [x_lo, x_hi), added through contiguous (stride 1) or evenly
// strided image rows with no per-element bounds test.
void col2im_row_scalar(const float* src, int H, int W, int oh, int ow,
                       int stride, int pad, int ky, int kx, float* dst) {
  const int y_lo = first_at_least(pad - ky, stride);
  const int y_hi = std::min(oh, first_at_least(H + pad - ky, stride));
  const int x_lo = first_at_least(pad - kx, stride);
  const int x_hi = std::min(ow, first_at_least(W + pad - kx, stride));
  const int len = x_hi - x_lo;
  for (int y = y_lo; y < y_hi && len > 0; ++y) {
    const float* s = src + y * ow + x_lo;
    float* d = dst + (y * stride + ky - pad) * W + (x_lo * stride + kx - pad);
    for (int i = 0; i < len; ++i) d[i * stride] += s[i];
  }
}

void yuv_to_rgb_row_scalar(const float* yrow, const float* u0, const float* u1,
                           const float* v0, const float* v1, float fy, int W,
                           int cw, float* r, float* g, float* b) {
  for (int x = 0; x < W; ++x) yuv_rgb_pixel(yrow, u0, u1, v0, v1, fy, cw, x, r, g, b);
}

void rgb_to_yuv_row_scalar(const float* r, const float* g, const float* b,
                           int W, float* yrow, float* uf, float* vf) {
  for (int x = 0; x < W; ++x) rgb_yuv_pixel(r, g, b, x, yrow, uf, vf);
}

void chroma_box_row_scalar(const float* f0, const float* f1, int w,
                           float* out) {
  for (int x = 0; x < w / 2; ++x)
    out[x] = 0.25f * (f0[2 * x] + f0[2 * x + 1] + f1[2 * x] + f1[2 * x + 1]);
}

void mc_copy_block_scalar(const float* ref, float* dst, int w, int h, int bx,
                          int by, int size, int mvx, int mvy) {
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const int px = bx + x, py = by + y;
      if (px < w && py < h)
        dst[py * w + px] =
            ref[clamp_idx(py + mvy, h) * w + clamp_idx(px + mvx, w)];
    }
}

void mc_bi_block_scalar(const float* ref0, int mv0x, int mv0y,
                        const float* ref1, int mv1x, int mv1y, float* dst,
                        int w, int h, int bx, int by, int size) {
  for (int y = 0; y < size; ++y)
    for (int x = 0; x < size; ++x) {
      const int px = bx + x, py = by + y;
      if (px < w && py < h)
        dst[py * w + px] =
            0.5f * (ref0[clamp_idx(py + mv0y, h) * w + clamp_idx(px + mv0x, w)] +
                    ref1[clamp_idx(py + mv1y, h) * w + clamp_idx(px + mv1x, w)]);
    }
}

KernelTable make_scalar_table() noexcept {
  KernelTable t{};
  t.dct8x8 = &dct8x8_scalar;
  t.idct8x8 = &idct8x8_scalar;
  t.dequant_idct8x8 = &dequant_idct8x8_scalar;
  t.quantize_block = &quantize_block_scalar;
  t.dequantize_block = &dequantize_block_scalar;
  t.gemm_tile_6x16 = &gemm_tile_6x16_scalar;
  t.gemm_edge_rows = &gemm_edge_rows_scalar;
  t.dot_tile_4x2 = &dot_tile_4x2_scalar;
  t.im2col_row = &im2col_row_scalar;
  t.col2im_row = &col2im_row_scalar;
  t.yuv_to_rgb_row = &yuv_to_rgb_row_scalar;
  t.rgb_to_yuv_row = &rgb_to_yuv_row_scalar;
  t.chroma_box_row = &chroma_box_row_scalar;
  t.mc_copy_block = &mc_copy_block_scalar;
  t.mc_bi_block = &mc_bi_block_scalar;
  t.id = Backend::kScalar;
  for (int f = 0; f < kNumFamilies; ++f) t.origin[f] = Backend::kScalar;
  return t;
}

}  // namespace

const KernelTable& scalar_table() noexcept {
  static const KernelTable t = make_scalar_table();
  return t;
}

const float* dct_basis() noexcept { return kB.m; }
const float* dct_basis_t() noexcept { return kB.mt; }

}  // namespace dcsr::simd
