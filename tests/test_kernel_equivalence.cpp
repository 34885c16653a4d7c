// Equivalence properties for the blocked GEMM engine and Conv2d.
//
//  * serial vs parallel: every GEMM variant and the conv forward/backward
//    path under a 1-thread and an N-thread pool, against a double-precision
//    reference — the partition must not change the result beyond float
//    re-association noise;
//  * SIMD vs portable: the dispatched micro-kernel against the pinned
//    portable kernel across remainder shapes around every tile boundary
//    (tolerance-compared — FMA contraction is the only permitted difference);
//  * fused im2col vs explicit: gemm_im2col against materialise-then-gemm,
//    bit-identical.
//
// CTest runs this binary twice (label `kernels`): once with runtime dispatch
// and once under NEBULA_FORCE_PORTABLE_KERNEL=1, where the SIMD comparisons
// skip and everything else must still hold on the pure portable path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/batchnorm.h"
#include "nn/conv.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace nebula {
namespace {

// Swaps the global pool for the duration of a scope.
class ScopedPool {
 public:
  explicit ScopedPool(std::size_t threads) : pool_(threads) {
    prev_ = ThreadPool::set_global(&pool_);
  }
  ~ScopedPool() { ThreadPool::set_global(prev_); }

 private:
  ThreadPool pool_;
  ThreadPool* prev_;
};

void fill_random(Tensor& t, Rng& rng) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[static_cast<std::size_t>(i)] = rng.normal();
  }
}

// C = A(M,K)·B(K,N) in double precision (the ground truth for all variants).
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < a.dim(1); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, float tol,
                  const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float g = got[static_cast<std::size_t>(i)];
    const float w = want[static_cast<std::size_t>(i)];
    ASSERT_NEAR(g, w, tol * (1.0f + std::fabs(w))) << what << " at " << i;
  }
}

void expect_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what << " is not bit-identical";
}

// Odd, deliberately non-multiple-of-tile sizes so every pack/store edge path
// is exercised; includes sizes straddling the naive/packed threshold and the
// KC/MC/NC block boundaries.
std::int64_t odd_dim(Rng& rng) {
  static const std::int64_t sizes[] = {1, 3, 5, 7, 9, 13, 17, 31, 65, 97, 129};
  return sizes[rng.uniform_int(sizeof(sizes) / sizeof(sizes[0]))];
}

TEST(GemmEquivalence, AllVariantsSerialVsParallelRandomShapes) {
  Rng rng(20240805);
  for (int iter = 0; iter < 25; ++iter) {
    const std::int64_t m = odd_dim(rng), k = odd_dim(rng), n = odd_dim(rng);
    Tensor a({m, k}), b({k, n}), c0({m, n});
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(c0, rng);  // initial C for the accumulate variants
    const Tensor ab = reference_matmul(a, b);
    const Tensor at = transpose(a);
    const Tensor bt = transpose(b);
    const float tol =
        1e-4f * std::sqrt(static_cast<float>(std::max<std::int64_t>(
                    {m, k, n})));

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ScopedPool scope(threads);
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " m=" << m
                                      << " k=" << k << " n=" << n);

      Tensor c({m, n});
      matmul(a, b, c);
      expect_close(c, ab, tol, "matmul");

      // matmul_tn_acc: C(K',N) += A'(M',K')^T·B'(M',N) with A' = at^T = a...
      // use A'=at (shape (k,m) -> transposed product = a·b) so the reference
      // is the same ab plus the initial C.
      Tensor cacc = c0;
      matmul_tn_acc(at, b, cacc);
      Tensor want_acc = ab;
      add_inplace(want_acc, c0);
      expect_close(cacc, want_acc, tol, "matmul_tn_acc");

      Tensor ctn({m, n});
      matmul_tn(at, b, ctn);
      expect_close(ctn, ab, tol, "matmul_tn");

      Tensor cnt({m, n});
      matmul_nt(a, bt, cnt);
      expect_close(cnt, ab, tol, "matmul_nt");

      Tensor cnt_acc = c0;
      matmul_nt_acc(a, bt, cnt_acc);
      expect_close(cnt_acc, want_acc, tol, "matmul_nt_acc");
    }
  }
}

TEST(GemmEquivalence, LargeSquareCrossesAllBlockBoundaries) {
  // 300 > MC (96), NC not hit, K > KC (256): exercises the multi-pass
  // K-accumulation and parallel row-block sweep together.
  Rng rng(7);
  const std::int64_t s = 300;
  Tensor a({s, s}), b({s, s});
  fill_random(a, rng);
  fill_random(b, rng);
  Tensor serial({s, s}), parallel({s, s});
  {
    ScopedPool scope(1);
    matmul(a, b, serial);
  }
  {
    ScopedPool scope(4);
    matmul(a, b, parallel);
  }
  expect_close(parallel, serial, 1e-5f, "matmul 300x300");
}

TEST(MatmulShapeCheck, RejectsTransposedB) {
  // Regression: a (n, k) B with k != n has the right volume but the wrong
  // layout; the volume-only check used to leave this class of bug to the
  // inner-dimension check alone. It must throw, never compute.
  Tensor a({4, 6}), b_t({9, 6}), c({4, 9});
  EXPECT_THROW(matmul(a, b_t, c), std::runtime_error);
  Tensor flat({54, 1});  // right volume, wrong rank-2 layout
  EXPECT_THROW(matmul(a, flat, c), std::runtime_error);
}

struct ConvCase {
  std::int64_t in_c, out_c, h, w, k, stride, pad, batch;
};

TEST(ConvEquivalence, ForwardBackwardSerialVsParallel) {
  const ConvCase cases[] = {
      {3, 5, 9, 9, 3, 1, 1, 5},   // odd channels, pad
      {1, 7, 11, 7, 3, 2, 0, 3},  // stride 2, rectangular
      {5, 3, 7, 13, 5, 2, 2, 4},  // 5x5 kernel, stride+pad
      {2, 4, 8, 8, 1, 1, 0, 7},   // 1x1 kernel, odd batch
  };
  Rng rng(99);
  for (const auto& cc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "conv in_c=" << cc.in_c << " out_c=" << cc.out_c
                 << " h=" << cc.h << " w=" << cc.w << " k=" << cc.k
                 << " stride=" << cc.stride << " pad=" << cc.pad);
    Conv2d conv(cc.in_c, cc.out_c, cc.k, cc.stride, cc.pad);
    Tensor x({cc.batch, cc.in_c, cc.h, cc.w});
    fill_random(x, rng);
    const auto os = conv.out_shape(x.shape());
    Tensor gy(os);
    fill_random(gy, rng);

    Tensor y1, dx1, dw1, db1;
    {
      ScopedPool scope(1);
      conv.zero_grad();
      y1 = conv.forward(x, true);
      dx1 = conv.backward(gy);
      dw1 = conv.params()[0]->grad;
      db1 = conv.params()[1]->grad;
    }
    // Backward's dW/db reduction goes through the chunk-indexed
    // reduce_ordered arena, so — like the disjoint-write forward — every
    // pool size must reproduce the serial bits exactly.
    for (std::size_t workers : {2u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      ScopedPool scope(workers);
      conv.zero_grad();
      Tensor yn = conv.forward(x, true);
      Tensor dxn = conv.backward(gy);
      expect_bits(yn, y1, "conv forward");
      expect_bits(dxn, dx1, "conv dx");
      expect_bits(conv.params()[0]->grad, dw1, "conv dW");
      expect_bits(conv.params()[1]->grad, db1, "conv db");
    }
  }
}

TEST(BatchNormEquivalence, BackwardSerialVsParallelBitIdentical) {
  // The backward's cross-batch sums ride the same deterministic reduction as
  // conv's dW/db; rank-2 and rank-4 layouts, odd sizes, every pool size.
  struct Case {
    std::vector<std::int64_t> shape;
  };
  const Case cases[] = {{{9, 5}}, {{4, 3, 5, 7}}, {{17, 6}}, {{3, 8, 4, 4}}};
  Rng rng(123);
  for (const auto& cc : cases) {
    SCOPED_TRACE(testing::Message() << "rank=" << cc.shape.size());
    const std::int64_t features = cc.shape[1];
    BatchNorm bn(features);
    Tensor x(cc.shape), gy(cc.shape);
    fill_random(x, rng);
    fill_random(gy, rng);

    Tensor dx1, dgamma1, dbeta1;
    {
      ScopedPool scope(1);
      bn.zero_grad();
      bn.forward(x, true);
      dx1 = bn.backward(gy);
      dgamma1 = bn.params()[0]->grad;
      dbeta1 = bn.params()[1]->grad;
    }
    for (std::size_t workers : {2u, 4u, 7u}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers);
      ScopedPool scope(workers);
      bn.zero_grad();
      bn.forward(x, true);
      Tensor dxn = bn.backward(gy);
      expect_bits(dxn, dx1, "bn dx");
      expect_bits(bn.params()[0]->grad, dgamma1, "bn dgamma");
      expect_bits(bn.params()[1]->grad, dbeta1, "bn dbeta");
    }
  }
}

// Restores runtime dispatch even if an assertion unwinds the test body.
class ScopedKernel {
 public:
  explicit ScopedKernel(const char* name) : ok_(gemm_force_kernel(name)) {}
  ~ScopedKernel() { gemm_force_kernel("auto"); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

void expect_bits_equal(const float* got, const float* want, std::int64_t n,
                       const char* what) {
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " differs at " << i << ": got " << got[i] << " want "
        << want[i];
  }
}

TEST(KernelDispatch, ForceAndRestore) {
  const std::string initial = gemm_kernel_name();
  EXPECT_FALSE(initial.empty());
  {
    ScopedKernel pin("portable-6x8");
    ASSERT_TRUE(pin.ok());
    EXPECT_STREQ(gemm_kernel_name(), "portable-6x8");
    EXPECT_FALSE(gemm_force_kernel("no-such-kernel"));
    EXPECT_STREQ(gemm_kernel_name(), "portable-6x8");  // unchanged on failure
  }
  EXPECT_EQ(gemm_kernel_name(), initial);
}

TEST(KernelDispatch, SimdVsPortableAcrossRemainderShapes) {
  if (std::string(gemm_kernel_name()) == "portable-6x8") {
    GTEST_SKIP() << "no SIMD kernel dispatched on this host/configuration";
  }
  // Every value straddles a tile boundary of at least one registered kernel:
  // 1..9 covers MR±1 for MR ∈ {6, 8}, 15..17 covers NR±1 for NR = 16, and
  // 129/255 cross the MC/KC cache blocks with a remainder. The portable
  // result (no FMA) is the baseline; SIMD may differ only by fused rounding.
  const std::int64_t dims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 129,
                               255};
  Rng rng(20260808);
  for (const std::int64_t m : dims) {
    for (const std::int64_t k : dims) {
      for (const std::int64_t n : dims) {
        Tensor a({m, k}), b({k, n});
        fill_random(a, rng);
        fill_random(b, rng);
        Tensor c_simd({m, n}), c_port({m, n});
        gemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n,
             c_simd.data(), n, false);
        {
          ScopedKernel pin("portable-6x8");
          ASSERT_TRUE(pin.ok());
          gemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n,
               c_port.data(), n, false);
        }
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n);
        const float tol = 1e-5f * std::sqrt(static_cast<float>(k));
        expect_close(c_simd, c_port, tol, "simd vs portable");
      }
    }
  }
}

// gemm_im2col must produce exactly the bits of materialise-col-then-gemm:
// the packed panels (and the naive paths) read identical elements in
// identical order, so this is equality, not tolerance.
TEST(FusedIm2col, BitIdenticalToExplicitLowering) {
  const ConvCase cases[] = {
      {3, 5, 9, 9, 3, 1, 1, 1},    // small: naive path
      {1, 4, 7, 5, 3, 2, 0, 1},    // stride 2, no pad
      {4, 6, 17, 13, 5, 2, 2, 1},  // 5x5 taps, rectangular
      {8, 16, 19, 19, 3, 1, 1, 1},  // blocked path (beats the flop threshold)
  };
  Rng rng(4242);
  for (const auto& cc : cases) {
    const Im2colMap map{cc.in_c, cc.h, cc.w, cc.k, cc.k, cc.stride, cc.pad};
    const std::int64_t rows = map.rows(), cols = map.cols();
    Tensor x({cc.in_c, cc.h, cc.w}), wgt({cc.out_c, rows}), gy({cc.out_c,
                                                                cols});
    fill_random(x, rng);
    fill_random(wgt, rng);
    fill_random(gy, rng);
    Tensor col({rows, cols});
    im2col(x.data(), cc.in_c, cc.h, cc.w, cc.k, cc.k, cc.stride, cc.pad,
           col.data());
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ScopedPool scope(threads);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " in_c=" << cc.in_c
                   << " k=" << cc.k << " stride=" << cc.stride
                   << " pad=" << cc.pad);
      // Forward product: C(out_c, cols) = W · col.
      Tensor want({cc.out_c, cols}), got({cc.out_c, cols});
      gemm(Trans::N, Trans::N, cc.out_c, cols, rows, wgt.data(), rows,
           col.data(), cols, want.data(), cols, false);
      gemm_im2col(Trans::N, cc.out_c, wgt.data(), rows, x.data(), map,
                  got.data(), cols, false);
      expect_bits_equal(got.data(), want.data(), got.numel(), "fused fwd");
      // Weight-gradient product: C(out_c, rows) += gy · col^T.
      Tensor want_t({cc.out_c, rows}), got_t({cc.out_c, rows});
      fill_random(want_t, rng);
      std::memcpy(got_t.data(), want_t.data(),
                  static_cast<std::size_t>(want_t.numel()) * sizeof(float));
      gemm(Trans::N, Trans::T, cc.out_c, rows, cols, gy.data(), cols,
           col.data(), cols, want_t.data(), rows, true);
      gemm_im2col(Trans::T, cc.out_c, gy.data(), cols, x.data(), map,
                  got_t.data(), rows, true);
      expect_bits_equal(got_t.data(), want_t.data(), got_t.numel(),
                        "fused dW");
    }
  }
}

}  // namespace
}  // namespace nebula
