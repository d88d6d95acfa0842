// Differential fuzz of the vector kernel backends against the portable
// scalar table: every kernel, every compiled-and-runnable level, the
// paper's three moduli plus a 61-bit prime that stresses the AVX2
// sign-bias compares (and the IFMA q-gate), and span lengths chosen to
// exercise both the vector body and the scalar tail (lengths not
// divisible by any lane width). Also checks the Harvey lazy-reduction
// range invariants the NTT sweeps rely on, and that full transforms are
// bit-identical across tables.
//
// Oracle selection: kernels whose outputs are fully reduced produce the
// canonical representative and must be bit-exact with the 64-bit scalar
// table at EVERY level. Kernels that return Harvey-lazy values are
// bit-exact with the reference sharing their limb semantics — the
// 64-bit scalar table for scalar/avx2/avx512, the 52-bit scalar52 table
// for avx512ifma below the q-gate (whose quotient estimate can differ by
// one, shifting lazy representatives by q) — and additionally must agree
// with the 64-bit scalar table modulo q.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "nt/modulus.h"
#include "nt/ntt.h"
#include "obs/metrics.h"
#include "reference/cg_ntt.h"
#include "reference/kernel_tables.h"
#include "ring/poly_ops.h"
#include "simd/kernels.h"
#include "simd/kernels_scalar52.h"

namespace cham {
namespace {

using simd::Kernels;
using simd::Level;

// Paper working moduli (Table II) + a 61-bit prime: values with the top
// bit of the 62-bit budget set catch backends that compare or reduce
// with signed arithmetic, and sit above kIfmaQBound so they exercise the
// IFMA table's 64-bit delegation path.
constexpr u64 kQ0 = (1ULL << 34) + (1ULL << 27) + 1;
constexpr u64 kQ1 = (1ULL << 34) + (1ULL << 19) + 1;
constexpr u64 kP = (1ULL << 38) + (1ULL << 23) + 1;
constexpr u64 kQbig = 2305843009213693951ULL;  // 2^61 - 1 (Mersenne)

const u64 kModuli[] = {kQ0, kQ1, kP, kQbig};

// 1 and W-1/W/W+1 neighbours for both lane widths, plus lengths with a
// nonzero tail for every width, plus a pow2 transform size.
const std::size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 30, 256, 1001};

// NTT pass sizes: the schedule's floor (32), one above it, and the two
// served ring dimensions.
const std::size_t kPassLengths[] = {32, 64, 4096, 8192};

// NTT pass moduli: the paper primes, q just below the IFMA single-word
// bound 2^50 (largest lazy values in its 52-bit window), q just above it
// (the double-word path) and 2^61 - 1.
const u64 kNttModuli[] = {kQ0,
                          kQ1,
                          kP,
                          (1ULL << 50) - 27,
                          (1ULL << 50) + 1179649,
                          kQbig};

std::vector<Level> compiled_levels() {
  std::vector<Level> levels;
  for (Level l : {Level::kScalar, Level::kAvx2, Level::kAvx512,
                  Level::kAvx512Ifma}) {
    if (simd::table_for(l) != nullptr) levels.push_back(l);
  }
  return levels;
}

u64 shoup_quotient(u64 w, u64 q) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

std::vector<u64> random_below(Rng& rng, std::size_t n, u64 bound) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.uniform(bound);
  return v;
}

class KernelsFuzzTest : public ::testing::TestWithParam<Level> {
 protected:
  const Kernels& k() const { return *simd::table_for(GetParam()); }
  const Kernels& ref() const { return *simd::table_for(Level::kScalar); }

  // True when the level under test runs 52-bit limbs for this modulus.
  bool ifma52(u64 q) const {
    return GetParam() == Level::kAvx512Ifma && q < simd::kIfmaQBound;
  }
  // Reference with the same limb semantics as the level under test:
  // lazy (not fully reduced) outputs are bit-exact only against this.
  // The IFMA double-word path has its own (64-bit-exact) reference.
  const Kernels& lazy_ref(u64 q) const {
    if (ifma52(q)) return *simd::scalar52_table();
    if (GetParam() == Level::kAvx512Ifma) return *simd::scalar104_table();
    return ref();
  }

  // One NTT pass (`pass(table, a)`) on random inputs below `bound` with
  // every third one at bound - 1, then on all bound - 1: bit-exact with
  // the limb-width reference, congruent with the 64-bit one on the
  // 52-bit path, and every output below `out_bound`.
  template <typename Pass>
  void CheckPass(Rng& rng, std::size_t n, u64 q, u64 bound, u64 out_bound,
                 const std::string& what, const Pass& pass) const {
    for (bool all_top : {false, true}) {
      auto a = random_below(rng, n, bound);
      for (std::size_t j = 0; j < n; ++j) {
        if (all_top || j % 3 == 0) a[j] = bound - 1;
      }
      auto want = a;
      auto want64 = a;
      pass(k(), a.data());
      pass(lazy_ref(q), want.data());
      ASSERT_EQ(a, want) << what << " n=" << n << " q=" << q;
      if (ifma52(q)) {
        pass(ref(), want64.data());
        ExpectCongruent(a, want64, q, what.c_str());
      }
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(a[j], out_bound) << what << " left its range at j=" << j;
      }
    }
  }

  // Twiddle planes of length n (operands < q, Shoup quotients).
  static void RandomPlanes(Rng& rng, std::size_t n, u64 q,
                           std::vector<u64>* op, std::vector<u64>* quo) {
    *op = random_below(rng, n, q);
    quo->resize(n);
    for (std::size_t i = 0; i < n; ++i) (*quo)[i] = shoup_quotient((*op)[i], q);
  }
  // Largest admissible Shoup multiplicand: the 52-bit product window
  // narrows the "any 64-bit x" contract at the IFMA level.
  u64 max_x(u64 q) const {
    return ifma52(q) ? (1ULL << 52) - 1 : ~u64{0};
  }

  // got must equal want64 modulo q (lazy representatives may differ by a
  // multiple of q across limb widths).
  static void ExpectCongruent(const std::vector<u64>& got,
                              const std::vector<u64>& want64, u64 q,
                              const char* what) {
    ASSERT_EQ(got.size(), want64.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j] % q, want64[j] % q)
          << what << " diverged mod q at j=" << j << " q=" << q;
    }
  }
};

TEST_P(KernelsFuzzTest, ElementwiseOpsMatchScalar) {
  Rng rng(0x51D0001);
  for (u64 q : kModuli) {
    for (std::size_t n : kLengths) {
      const auto a = random_below(rng, n, q);
      const auto b = random_below(rng, n, q);
      std::vector<u64> got(n), want(n);

      k().add(a.data(), b.data(), got.data(), n, q);
      ref().add(a.data(), b.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "add n=" << n << " q=" << q;

      k().sub(a.data(), b.data(), got.data(), n, q);
      ref().sub(a.data(), b.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "sub n=" << n << " q=" << q;

      k().negate(a.data(), got.data(), n, q);
      ref().negate(a.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "negate n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, ShoupProductsMatchScalar) {
  Rng rng(0x51D0002);
  for (u64 q : kModuli) {
    for (std::size_t n : kLengths) {
      // The Shoup product contract covers ANY x up to the level's domain
      // bound (full 64-bit range, or 2^52 on the IFMA 52-bit path), not
      // just x < q: feed extreme values on top of reduced ones. Outputs
      // are fully reduced, so every level must match the canonical
      // scalar table bit-for-bit.
      auto x = random_below(rng, n, q);
      for (std::size_t i = 0; i < n; i += 3) x[i] = rng.next_u64() & max_x(q);
      if (n > 1) x[n - 1] = max_x(q);
      const auto w = random_below(rng, n, q);
      std::vector<u64> quo(n);
      for (std::size_t i = 0; i < n; ++i) quo[i] = shoup_quotient(w[i], q);
      const auto acc0 = random_below(rng, n, q);

      std::vector<u64> got(n), want(n);
      k().mul_shoup(x.data(), w.data(), quo.data(), got.data(), n, q);
      ref().mul_shoup(x.data(), w.data(), quo.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_shoup n=" << n << " q=" << q;

      got = acc0;
      want = acc0;
      k().mul_shoup_acc(x.data(), w.data(), quo.data(), got.data(), n, q);
      ref().mul_shoup_acc(x.data(), w.data(), quo.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_shoup_acc n=" << n << " q=" << q;

      const u64 c = rng.uniform(q);
      const u64 cq = shoup_quotient(c, q);
      k().mul_scalar_shoup(x.data(), c, cq, got.data(), n, q);
      ref().mul_scalar_shoup(x.data(), c, cq, want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_scalar_shoup n=" << n << " q=" << q;

      got = acc0;
      want = acc0;
      k().mul_scalar_shoup_acc(x.data(), c, cq, got.data(), n, q);
      ref().mul_scalar_shoup_acc(x.data(), c, cq, want.data(), n, q);
      EXPECT_EQ(got, want) << "mul_scalar_shoup_acc n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, BarrettReduceMatchesScalarForAnyInput) {
  Rng rng(0x51D000E);
  // Every tail length from 1 to 17 (past both lane widths and the 2x
  // unroll) on top of the standard lengths: the digit-lift spans in
  // key-switching are powers of two, but the kernel contract is any n.
  std::vector<std::size_t> lengths(std::begin(kLengths),
                                   std::end(kLengths));
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (u64 q : kModuli) {
    const u64 q_barrett =
        static_cast<u64>((static_cast<u128>(1) << 64) / q);
    for (std::size_t n : lengths) {
      // The contract covers ANY 64-bit x at every level (the reduction
      // always runs on the 64-bit mulhi, even on the 52-bit IFMA table):
      // feed the full range plus the boundary cases.
      std::vector<u64> x(n);
      for (auto& v : x) v = rng.next_u64();
      if (n >= 1) x[0] = ~u64{0};
      if (n >= 2) x[1] = 0;
      if (n >= 3) x[2] = q;
      if (n >= 4) x[3] = q - 1;
      if (n >= 5) x[4] = 2 * q - 1;
      std::vector<u64> got(n), want(n);
      k().barrett_reduce(x.data(), got.data(), n, q, q_barrett);
      ref().barrett_reduce(x.data(), want.data(), n, q, q_barrett);
      EXPECT_EQ(got, want) << "barrett_reduce n=" << n << " q=" << q;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(got[j], q) << "must fully reduce, j=" << j;
        ASSERT_EQ(got[j], x[j] % q) << "wrong residue at j=" << j;
      }
    }
  }
}

// The lazy dot product against a per-term Modulus::mul/add reference.
// Term counts straddle 64, where a u128 sum of products near (2^61)^2
// first overflows, and each body's flush interval F (F-1, F, F+1, and
// 2F+1, which folds twice). Operands all at q-1 are the worst case for
// the u128 sums; the 52-bit body's low lanes are worst off when every
// product's low 52 bits are large, which q-1 does not give, so a third
// fill draws only such pairs (every test modulus has q^2 > 2^52). Span
// lengths leave vector tails, and the stride is larger than the span.
TEST_P(KernelsFuzzTest, DotMatchesPerTermReference) {
  enum class Fill { kRandom, kAllMax, kHeavyLow52 };
  Rng rng(0x51D0010);
  for (u64 qv : {kQ0, kQ1, kP, u64{(1ULL << 50) - 27}, kQbig}) {
    const Modulus q(qv);
    const u64 q_barrett = static_cast<u64>((static_cast<u128>(1) << 64) / qv);
    const u64 r64 = static_cast<u64>((static_cast<u128>(1) << 64) % qv);
    const u64 r64_quo = shoup_quotient(r64, qv);
    std::vector<std::size_t> term_counts = {1, 2, 63, 64, 65};
    for (std::size_t flush : {simd::dot_flush_u128(qv), simd::kDotFlush52}) {
      if (flush > 8192) continue;  // no real span reaches it
      for (std::size_t t : {flush - 1, flush, flush + 1, 2 * flush + 1}) {
        term_counts.push_back(t);
      }
    }
    for (std::size_t terms : term_counts) {
      const std::vector<std::size_t> lens =
          terms > 1000 ? std::vector<std::size_t>{9, 64}
                       : std::vector<std::size_t>{1, 7, 8, 9, 17, 64, 71};
      for (std::size_t len : lens) {
        for (Fill fill : {Fill::kRandom, Fill::kAllMax, Fill::kHeavyLow52}) {
          const std::size_t stride = len + 3;
          std::vector<u64> x(terms * stride), w(terms * stride);
          for (std::size_t i = 0; i < x.size(); ++i) {
            if (fill == Fill::kAllMax) {
              x[i] = w[i] = qv - 1;
              continue;
            }
            do {
              x[i] = rng.uniform(qv);
              w[i] = rng.uniform(qv);
            } while (fill == Fill::kHeavyLow52 &&
                     (static_cast<u128>(x[i]) * w[i] % (u128{1} << 52)) <
                         (u128{3} << 50));
          }
          std::vector<u64> got(len);
          k().dot(x.data(), w.data(), got.data(), terms, len, stride, qv,
                  q_barrett, r64, r64_quo);
          for (std::size_t s = 0; s < len; ++s) {
            u64 want = 0;
            for (std::size_t t = 0; t < terms; ++t) {
              want = q.add(want, q.mul(x[t * stride + s], w[t * stride + s]));
            }
            ASSERT_LT(got[s], qv) << "must fully reduce, s=" << s;
            ASSERT_EQ(got[s], want)
                << "dot terms=" << terms << " len=" << len << " s=" << s
                << " q=" << qv << " fill=" << static_cast<int>(fill);
          }
        }
      }
    }
  }
}

// dot_pair against the per-term reference at the bodies' extremes: up to
// 16 terms (within every flush bound), with and without the addend c, at
// a prime just below 2^50 (the widest IFMA fold words) and at q = 4093,
// whose Barrett ratio does not fit 52 bits, so the IFMA table falls back
// to the u128 body. Distinct strides for x and the key planes; span
// lengths leave vector tails.
TEST_P(KernelsFuzzTest, DotPairMatchesPerTermReference) {
  Rng rng(0x51D0011);
  for (u64 qv : {kQ0, kP, u64{(1ULL << 50) - 27}, u64{4093}, kQbig}) {
    const Modulus q(qv);
    const u64 q_barrett = static_cast<u64>((static_cast<u128>(1) << 64) / qv);
    const u64 r64 = static_cast<u64>((static_cast<u128>(1) << 64) % qv);
    const u64 r64_quo = shoup_quotient(r64, qv);
    for (std::size_t terms : {0, 1, 2, 3, 16}) {
      for (std::size_t len : {1, 7, 8, 9, 31, 32, 33, 64, 71}) {
        for (bool all_max : {false, true}) {
          for (bool with_c : {false, true}) {
            const std::size_t xs = len + 5, ws = len + 2;
            const auto draw = [&](std::size_t count) {
              std::vector<u64> v(count);
              for (u64& e : v) e = all_max ? qv - 1 : rng.uniform(qv);
              return v;
            };
            const auto x = draw(terms * xs + 1);
            const auto wb = draw(terms * ws + 1);
            const auto wa = draw(terms * ws + 1);
            const auto c = draw(len);
            std::vector<u64> got_b(len), got_a(len);
            k().dot_pair(x.data(), xs, with_c ? c.data() : nullptr, wb.data(),
                         wa.data(), ws, got_b.data(), got_a.data(), terms,
                         len, qv, q_barrett, r64, r64_quo);
            for (std::size_t s = 0; s < len; ++s) {
              u64 want_b = with_c ? c[s] : 0, want_a = 0;
              for (std::size_t t = 0; t < terms; ++t) {
                want_b = q.add(want_b, q.mul(x[t * xs + s], wb[t * ws + s]));
                want_a = q.add(want_a, q.mul(x[t * xs + s], wa[t * ws + s]));
              }
              ASSERT_EQ(got_b[s], want_b)
                  << "b terms=" << terms << " len=" << len << " s=" << s
                  << " q=" << qv << " c=" << with_c;
              ASSERT_EQ(got_a[s], want_a)
                  << "a terms=" << terms << " len=" << len << " s=" << s
                  << " q=" << qv;
            }
          }
        }
      }
    }
  }
}

// The pass entries at every stride they accept: outputs stay in [0, 4q)
// and match the reference bit for bit.
TEST_P(KernelsFuzzTest, ForwardButterfliesMatchScalarAndStayLazy) {
  Rng rng(0x51D0003);
  for (u64 q : kNttModuli) {
    for (std::size_t n : kPassLengths) {
      std::vector<u64> w, wq;
      RandomPlanes(rng, n, q, &w, &wq);
      for (std::size_t t = n / 2; t >= 1; t >>= 1) {
        CheckPass(rng, n, q, q << 2, q << 2,
                  "ntt_fwd_bfly t=" + std::to_string(t),
                  [&](const Kernels& kt, u64* a) {
                    kt.ntt_fwd_bfly(a, n, t, w.data(), wq.data(), q);
                  });
      }
      for (std::size_t t = n / 2; t >= 2; t >>= 1) {
        CheckPass(rng, n, q, q << 2, q << 2,
                  "ntt_fwd_radix4 t=" + std::to_string(t),
                  [&](const Kernels& kt, u64* a) {
                    kt.ntt_fwd_radix4(a, n, t, w.data(), wq.data(), q);
                  });
      }
    }
  }
}

TEST_P(KernelsFuzzTest, InverseButterfliesMatchScalarAndStayLazy) {
  Rng rng(0x51D0004);
  for (u64 q : kNttModuli) {
    for (std::size_t n : kPassLengths) {
      std::vector<u64> w, wq;
      RandomPlanes(rng, n, q, &w, &wq);
      for (std::size_t t = 1; t <= n / 2; t <<= 1) {
        CheckPass(rng, n, q, q << 1, q << 1,
                  "ntt_inv_bfly t=" + std::to_string(t),
                  [&](const Kernels& kt, u64* a) {
                    kt.ntt_inv_bfly(a, n, t, w.data(), wq.data(), q);
                  });
      }
      for (std::size_t t = 1; 4 * t <= n; t <<= 1) {
        CheckPass(rng, n, q, q << 1, q << 1,
                  "ntt_inv_radix4 t=" + std::to_string(t),
                  [&](const Kernels& kt, u64* a) {
                    kt.ntt_inv_radix4(a, n, t, w.data(), wq.data(), q);
                  });
      }
    }
  }
  // The fused last stage sweeps two spans of any length (vector body and
  // scalar tail); its outputs are fully reduced.
  for (u64 q : kModuli) {
    const u64 two_q = q << 1;
    for (std::size_t n : kLengths) {
      const u64 ninv = rng.uniform(q), nw = rng.uniform(q);
      auto x = random_below(rng, n, two_q);
      auto y = random_below(rng, n, two_q);
      if (n > 0) x[0] = y[0] = two_q - 1;
      auto xs = x, ys = y;
      k().ntt_inv_last(x.data(), y.data(), n, ninv, shoup_quotient(ninv, q),
                       nw, shoup_quotient(nw, q), q);
      ref().ntt_inv_last(xs.data(), ys.data(), n, ninv,
                         shoup_quotient(ninv, q), nw, shoup_quotient(nw, q),
                         q);
      EXPECT_EQ(x, xs) << "ntt_inv_last x n=" << n << " q=" << q;
      EXPECT_EQ(y, ys) << "ntt_inv_last y n=" << n << " q=" << q;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_LT(x[j], q) << "fused last stage must fully reduce";
        ASSERT_LT(y[j], q) << "fused last stage must fully reduce";
      }
    }
  }
}

// The group passes (strides 8..1 in registers). The forward one corrects
// to [0, q), so every level — 52-bit limbs included — must match the
// canonical scalar table exactly.
TEST_P(KernelsFuzzTest, NttFwdGroup16MatchesScalarAndFullyReduces) {
  Rng rng(0x51D000A);
  for (u64 q : kNttModuli) {
    for (std::size_t n : kPassLengths) {
      std::vector<u64> w, wq;
      RandomPlanes(rng, n, q, &w, &wq);
      CheckPass(rng, n, q, q << 2, q, "ntt_fwd_group16",
                [&](const Kernels& kt, u64* a) {
                  kt.ntt_fwd_group16(a, n, w.data(), wq.data(), q);
                });
    }
  }
}

TEST_P(KernelsFuzzTest, NttInvGroup16MatchesScalarAndStaysLazy) {
  Rng rng(0x51D000B);
  for (u64 q : kNttModuli) {
    for (std::size_t n : kPassLengths) {
      std::vector<u64> w, wq;
      RandomPlanes(rng, n, q, &w, &wq);
      CheckPass(rng, n, q, q << 1, q << 1, "ntt_inv_group16",
                [&](const Kernels& kt, u64* a) {
                  kt.ntt_inv_group16(a, n, w.data(), wq.data(), q);
                });
    }
  }
}

TEST_P(KernelsFuzzTest, PermuteAndNegRevMatchScalar) {
  Rng rng(0x51D0006);
  for (u64 q : kModuli) {
    for (std::size_t n : kLengths) {
      auto a = random_below(rng, n, q);
      // Sprinkle zeros: negation of 0 must stay 0, not become q.
      for (std::size_t i = 0; i < n; i += 5) a[i] = 0;
      std::vector<u64> idx(n), flip(n);
      for (std::size_t i = 0; i < n; ++i) {
        idx[i] = rng.uniform(static_cast<u64>(n));
        flip[i] = rng.uniform(2) ? ~u64{0} : 0;
      }
      std::vector<u64> got(n), want(n);
      k().permute(a.data(), idx.data(), flip.data(), got.data(), n, q);
      ref().permute(a.data(), idx.data(), flip.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "permute n=" << n << " q=" << q;

      k().neg_rev(a.data(), got.data(), n, q);
      ref().neg_rev(a.data(), want.data(), n, q);
      EXPECT_EQ(got, want) << "neg_rev n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, RescaleRoundMatchesScalar) {
  Rng rng(0x51D0007);
  // Dropped modulus p above and below the limb modulus, matching both
  // BFV modulus switching directions.
  for (u64 q : {kQ0, kQ1, kQbig}) {
    const u64 pv = kP;
    const u64 q_barrett =
        static_cast<u64>((static_cast<u128>(1) << 64) / q);
    const u64 pinv = rng.uniform(q);
    const u64 pinv_quo = shoup_quotient(pinv, q);
    for (std::size_t n : kLengths) {
      const auto xl = random_below(rng, n, q);
      auto xp = random_below(rng, n, pv);
      // Force boundary residues: 0, p/2 (round-down edge), p-1.
      if (n >= 3) {
        xp[0] = 0;
        xp[1] = pv >> 1;
        xp[2] = pv - 1;
      }
      std::vector<u64> got(n), want(n);
      k().rescale_round(xl.data(), xp.data(), got.data(), n, pv, q,
                        q_barrett, pinv, pinv_quo);
      ref().rescale_round(xl.data(), xp.data(), want.data(), n, pv, q,
                          q_barrett, pinv, pinv_quo);
      EXPECT_EQ(got, want) << "rescale_round n=" << n << " q=" << q;
    }
  }
}

TEST_P(KernelsFuzzTest, FullTransformsBitExactWithScalarTable) {
  Rng rng(0x51D0008);
  for (u64 qv : {kQ0, kQ1, kP}) {
    const Modulus q(qv);
    for (std::size_t n : {8u, 64u, 256u}) {
      const NttTables tables(n, q);
      auto a = random_below(rng, n, qv);
      auto b = a;
      tables.forward_with(k(), a.data());
      tables.forward_with(ref(), b.data());
      EXPECT_EQ(a, b) << "forward NTT diverged n=" << n << " q=" << qv;
      tables.inverse_with(k(), a.data());
      tables.inverse_with(ref(), b.data());
      EXPECT_EQ(a, b) << "inverse NTT diverged n=" << n << " q=" << qv;

      // The constant-geometry model (paper Alg. 4) computes the same
      // bit-reversed transform with its own scalar stages.
      const CgNtt cg(n, q);
      auto c = random_below(rng, n, qv);
      auto d = c;
      const auto orig = c;
      tables.forward_with(k(), c.data());
      cg.forward(d);
      EXPECT_EQ(c, d) << "CG forward diverged n=" << n << " q=" << qv;
      tables.inverse_with(k(), c.data());
      cg.inverse(d);
      EXPECT_EQ(c, d) << "CG inverse diverged n=" << n << " q=" << qv;
      EXPECT_EQ(d, orig) << "CG round trip failed n=" << n << " q=" << qv;
    }
  }
}

TEST_P(KernelsFuzzTest, AutomorphTableMatchesModularIndexForm) {
  Rng rng(0x51D0009);
  const Modulus q(kQ0);
  for (std::size_t n : {8u, 256u}) {
    for (u64 kk = 1; kk < 2 * n; kk += 2 * n / 4 + 1) {
      if (kk % 2 == 0) continue;
      const AutomorphTable table = make_automorph_table(n, kk);
      const auto a = random_below(rng, n, q.value());
      std::vector<u64> want(n), got(n);
      poly_automorph(a.data(), want.data(), n, kk, q);
      k().permute(a.data(), table.src_idx.data(), table.flip.data(),
                  got.data(), n, q.value());
      EXPECT_EQ(got, want) << "automorph table n=" << n << " k=" << kk;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, KernelsFuzzTest, ::testing::ValuesIn(compiled_levels()),
    [](const ::testing::TestParamInfo<Level>& info) {
      return simd::level_name(info.param);
    });

// The 52-bit scalar reference itself must satisfy the lazy-range
// invariants the IFMA vector kernels inherit from it: for q < 2^50 and
// x < 2^52, the lazy product lands in [0, 2q) (hence < 2^51, safely
// inside the mod-2^52 window) and always agrees with the true product
// modulo q — even though its quotient estimate can differ from the
// 64-bit one.
TEST(Scalar52Test, LazyShoupStaysInRangeAndCongruent) {
  Rng rng(0x51D000C);
  for (u64 q : {kQ0, kQ1, kP, u64{(1ULL << 50) - 27}}) {
    ASSERT_LT(q, simd::kIfmaQBound);
    for (int iter = 0; iter < 2000; ++iter) {
      const u64 w = rng.uniform(q);
      const u64 quo = shoup_quotient(w, q);
      // Cover the whole admissible domain, including the extremes.
      u64 x = rng.next_u64() & ((1ULL << 52) - 1);
      if (iter == 0) x = (1ULL << 52) - 1;
      if (iter == 1) x = 0;
      const u64 r = simd::scalar52::shoup_mul_lazy(x, w, quo, q);
      ASSERT_LT(r, 2 * q) << "lazy range x=" << x << " w=" << w;
      ASSERT_LT(r, 1ULL << 52) << "must fit the 52-bit window";
      const u64 true_mod =
          static_cast<u64>(static_cast<u128>(x) * w % q);
      ASSERT_EQ(r % q, true_mod) << "congruence x=" << x << " w=" << w;
      // The corrected product is canonical, so it must equal the 64-bit
      // reference exactly.
      ASSERT_EQ(simd::scalar52::shoup_mul(x, w, quo, q),
                simd::scalar::shoup_mul(x, w, quo, q));
    }
  }
}

// quo52 = quo64 >> 12 must be exactly floor(w·2^52/q) — the identity the
// in-register quotient prep relies on.
TEST(Scalar52Test, QuotientShiftIdentity) {
  Rng rng(0x51D000D);
  for (u64 q : {kQ0, kQ1, kP}) {
    for (int iter = 0; iter < 1000; ++iter) {
      const u64 w = rng.uniform(q);
      const u64 quo64 = shoup_quotient(w, q);
      const u64 quo52 =
          static_cast<u64>((static_cast<u128>(w) << 52) / q);
      ASSERT_EQ(quo64 >> 12, quo52) << "w=" << w << " q=" << q;
    }
  }
}

TEST(SimdDispatchTest, ScalarTableAlwaysAvailable) {
  ASSERT_NE(simd::table_for(Level::kScalar), nullptr);
  EXPECT_TRUE(simd::cpu_supports(Level::kScalar));
}

TEST(SimdDispatchTest, ActiveTableIsUsable) {
  const Level level = simd::active_level();
  EXPECT_EQ(simd::table_for(level), &simd::active());
  EXPECT_TRUE(simd::cpu_supports(level));
}

// The simd.level gauge mirrors the dispatched level: observability must
// report exactly what dispatch picked (including after CHAM_SIMD_LEVEL
// overrides or fallbacks — the gauge is set from the same Dispatch).
TEST(SimdDispatchTest, MetricsGaugeReportsActiveLevel) {
  (void)simd::active();  // force dispatch
  const double v =
      obs::MetricsRegistry::global().gauge("simd.level").value();
  EXPECT_EQ(static_cast<int>(v),
            static_cast<int>(simd::active_level()));
}

TEST(SimdDispatchTest, ParseLevelRoundTrips) {
  Level l;
  ASSERT_TRUE(simd::parse_level("scalar", &l));
  EXPECT_EQ(l, Level::kScalar);
  ASSERT_TRUE(simd::parse_level("avx2", &l));
  EXPECT_EQ(l, Level::kAvx2);
  ASSERT_TRUE(simd::parse_level("avx512", &l));
  EXPECT_EQ(l, Level::kAvx512);
  ASSERT_TRUE(simd::parse_level("avx512ifma", &l));
  EXPECT_EQ(l, Level::kAvx512Ifma);
  EXPECT_FALSE(simd::parse_level("sse9", &l));
  EXPECT_FALSE(simd::parse_level("", &l));
  EXPECT_FALSE(simd::parse_level(nullptr, &l));
  for (Level lvl : {Level::kScalar, Level::kAvx2, Level::kAvx512,
                    Level::kAvx512Ifma}) {
    Level back;
    ASSERT_TRUE(simd::parse_level(simd::level_name(lvl), &back));
    EXPECT_EQ(back, lvl);
  }
}

TEST(SimdDispatchTest, ResolveLevelHonoursUsableRequest) {
  std::string warning = "sentinel";
  // Scalar is always compiled and runnable, so the request is honoured
  // and any previous warning text is cleared.
  EXPECT_EQ(simd::resolve_level("scalar", &warning), Level::kScalar);
  EXPECT_TRUE(warning.empty()) << warning;
}

TEST(SimdDispatchTest, ResolveLevelNoOverrideAutodetectsSilently) {
  std::string warning = "sentinel";
  const Level l = simd::resolve_level(nullptr, &warning);
  EXPECT_TRUE(warning.empty()) << warning;
  EXPECT_NE(simd::table_for(l), nullptr);
  std::string warning2 = "sentinel";
  EXPECT_EQ(simd::resolve_level("", &warning2), l);
  EXPECT_TRUE(warning2.empty()) << warning2;
}

TEST(SimdDispatchTest, ResolveLevelWarnsOnUnknownName) {
  std::string warning;
  const Level l = simd::resolve_level("avx9000", &warning);
  EXPECT_NE(simd::table_for(l), nullptr) << "fallback must be runnable";
  ASSERT_FALSE(warning.empty());
  // The message must name the bad value so a typo is diagnosable from
  // the one stderr line.
  EXPECT_NE(warning.find("avx9000"), std::string::npos) << warning;
  EXPECT_NE(warning.find(simd::level_name(l)), std::string::npos) << warning;
  // A null warning sink is allowed (fire-and-forget callers).
  EXPECT_EQ(simd::resolve_level("avx9000", nullptr), l);
}

TEST(SimdDispatchTest, IfmaEligibilityTracksQBound) {
  EXPECT_TRUE(simd::ifma_eligible(2));
  EXPECT_TRUE(simd::ifma_eligible((1ULL << 34) + (1ULL << 27) + 1));
  EXPECT_TRUE(simd::ifma_eligible(simd::kIfmaQBound - 1));
  EXPECT_FALSE(simd::ifma_eligible(simd::kIfmaQBound));
  EXPECT_FALSE(simd::ifma_eligible((1ULL << 61) - 1));
}

TEST(SimdDispatchTest, IfmaWideContextPredicate) {
  const u64 small = (1ULL << 34) + (1ULL << 27) + 1;
  const u64 wide = (1ULL << 61) - 1;
  const u64 all_wide[] = {wide, wide - 2};
  const u64 mixed[] = {wide, small};
  // Only the IFMA level has a limb-width split to report on.
  for (Level lvl : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    EXPECT_FALSE(simd::ifma_context_all_wide(lvl, all_wide, 2));
  }
  EXPECT_TRUE(simd::ifma_context_all_wide(Level::kAvx512Ifma, all_wide, 2));
  // One single-word modulus is enough to keep the fast path in play.
  EXPECT_FALSE(simd::ifma_context_all_wide(Level::kAvx512Ifma, mixed, 2));
  EXPECT_FALSE(simd::ifma_context_all_wide(Level::kAvx512Ifma, &small, 1));
  EXPECT_FALSE(simd::ifma_context_all_wide(Level::kAvx512Ifma, nullptr, 0));
}

TEST(SimdDispatchTest, NoteIfmaWideContextRespectsActiveLevel) {
  const u64 small = (1ULL << 34) + (1ULL << 27) + 1;
  const u64 wide = (1ULL << 61) - 1;
  // Small moduli never trip the note, whatever level dispatch picked.
  EXPECT_FALSE(simd::note_ifma_wide_context(&small, 1));
  if (simd::active_level() != Level::kAvx512Ifma) {
    EXPECT_FALSE(simd::note_ifma_wide_context(&wide, 1));
  } else {
    // Counter ticks on every all-wide context; the stderr note is
    // once-per-process, so a second call must report not-noted.
    obs::Counter& c =
        obs::MetricsRegistry::global().counter("simd.ifma.wide_context");
    const u64 before = c.value();
    (void)simd::note_ifma_wide_context(&wide, 1);
    EXPECT_FALSE(simd::note_ifma_wide_context(&wide, 1));
    EXPECT_EQ(c.value(), before + 2);
  }
}

TEST(SimdDispatchTest, ResolveLevelWarnsOnUnusableLevel) {
  // Find a known level this build/CPU can't run (compiled out or no CPU
  // support). On machines where every level is usable there is nothing
  // to exercise.
  for (Level lvl : {Level::kAvx2, Level::kAvx512, Level::kAvx512Ifma}) {
    if (simd::table_for(lvl) != nullptr) continue;
    std::string warning;
    const Level got = simd::resolve_level(simd::level_name(lvl), &warning);
    EXPECT_NE(simd::table_for(got), nullptr);
    EXPECT_FALSE(warning.empty());
    EXPECT_NE(warning.find(simd::level_name(lvl)), std::string::npos)
        << warning;
  }
}

}  // namespace
}  // namespace cham
