// Single-precision GEMM engine: cache-blocked, panel-packed, register-tiled,
// with runtime micro-kernel dispatch.
//
// Every matrix-shaped kernel in the library (Linear forward/backward, Conv2d
// forward and both backward products) routes through this engine, so there
// is exactly one place to optimise and benchmark. ModuleLayer modules reach
// it through their own layers. The Tensor-level wrappers in tensor/ops.h add
// shape checking; Conv2d calls this interface directly with raw pointers.
//
// Micro-kernel dispatch: the binary is compiled for the baseline ISA, but the
// engine picks the widest micro-kernel the executing CPU supports on first
// use (AVX2/FMA 6x16 on x86, NEON 8x8 on aarch64, portable 6x8 otherwise) —
// see tensor/gemm_kernels.h for the registry and DESIGN.md §12 for the
// architecture. Set NEBULA_FORCE_PORTABLE_KERNEL=1 to pin the portable
// kernel (CI runs the equivalence suite both ways).
//
// Layout: all operands are row-major with explicit leading dimensions, BLAS
// style. op(A) is (m, k), op(B) is (k, n), C is (m, n):
//
//   C = op(A) · op(B)            (accumulate == false)
//   C += op(A) · op(B)           (accumulate == true)
//
// See DESIGN.md "Kernel architecture & threading model" for the blocking
// scheme (MC/KC/NC, MRxNR micro-tile) and where the pack buffers live.
#pragma once

#include <cstdint>

namespace nebula {

enum class Trans : std::uint8_t { N, T };

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float* c, std::int64_t ldc, bool accumulate);

// ---- Dispatch introspection -------------------------------------------------

/// Name of the micro-kernel the dispatcher selected for this process
/// ("portable-6x8", "avx2-6x16", "neon-8x8"). Stable ids — recorded in bench
/// context and perf trajectories.
const char* gemm_kernel_name();

/// Pins the micro-kernel by name; "auto" (or "") restores runtime dispatch.
/// Returns false (and changes nothing) if the name is unknown, the executing
/// CPU lacks the kernel, or NEBULA_FORCE_PORTABLE_KERNEL is set and a
/// non-portable kernel was requested. Test/bench hook — not thread-safe
/// against concurrent GEMM calls.
bool gemm_force_kernel(const char* name);

// ---- Fused im2col -----------------------------------------------------------

/// Geometry of an im2col lowering: the virtual column matrix of a single
/// NCHW image has rows() = channels*kh*kw and cols() = out_h()*out_w();
/// element (r, c) is the input pixel under kernel tap r at output pixel c
/// (zero outside the padded image).
struct Im2colMap {
  std::int64_t channels, height, width;
  std::int64_t kh, kw;
  std::int64_t stride, pad;

  std::int64_t out_h() const { return (height + 2 * pad - kh) / stride + 1; }
  std::int64_t out_w() const { return (width + 2 * pad - kw) / stride + 1; }
  std::int64_t rows() const { return channels * kh * kw; }
  std::int64_t cols() const { return out_h() * out_w(); }
};

/// C (+)= A · op(col) where col = im2col(img, map) is never materialised:
/// the engine's B-packing stage reads straight from the image through the
/// index map. Bit-identical to materialising col and calling gemm — the
/// packed panels (and the small-problem path) are element-for-element the
/// same.
///
///   trans_col == Trans::N:  C(m, cols) (+)= A(m, rows) · col      (conv fwd)
///   trans_col == Trans::T:  C(m, rows) (+)= A(m, cols) · col^T    (conv dW)
void gemm_im2col(Trans trans_col, std::int64_t m, const float* a,
                 std::int64_t lda, const float* img, const Im2colMap& map,
                 float* c, std::int64_t ldc, bool accumulate);

}  // namespace nebula
