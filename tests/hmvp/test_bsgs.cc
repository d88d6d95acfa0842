// Hoisted-rotation BSGS HMVP coverage, plus the strawman baselines of
// bench/reference that share its slot layout and key set.
//
// The equivalence fuzz (HoistedRotationBitExact*) asserts
// rotate_rows_hoisted ≡ rotate_rows bit for bit over shared digits, for
// every Galois element a BSGS plan needs, at threads 1 and 8. CI re-runs
// this binary at every compiled SIMD dispatch level (default, forced
// scalar, SDE-emulated IFMA) and under TSan, so the identity is pinned
// per backend.
#include "hmvp/bsgs.h"

#include <gtest/gtest.h>

#include <set>

#include "hmvp/hmvp.h"
#include "hmvp/mvp.h"
#include "nt/bitops.h"
#include "obs/metrics.h"
#include "reference/reference.h"

namespace cham {
namespace {

struct BsgsFixture {
  explicit BsgsFixture(std::size_t n = 128, u64 seed = 33)
      : rng(seed),
        ctx(BfvContext::create(BfvParams::test(n))),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        encryptor(ctx, &pk, nullptr, rng),
        decryptor(ctx, keygen.secret_key()) {}

  GaloisKeys keys_for(const std::vector<u64>& elements) {
    return keygen.make_galois_keys(0, elements);
  }

  std::vector<u64> random_vector(std::size_t len) {
    std::vector<u64> v(len);
    for (auto& x : v) x = rng.uniform(ctx->params().t);
    return v;
  }

  Rng rng;
  BfvContextPtr ctx;
  KeyGenerator keygen;
  PublicKey pk;
  Encryptor encryptor;
  Decryptor decryptor;
};

void expect_poly_eq(const RnsPoly& x, const RnsPoly& y) {
  ASSERT_EQ(x.limbs(), y.limbs());
  ASSERT_EQ(x.is_ntt(), y.is_ntt());
  EXPECT_TRUE(x.raw() == y.raw());
}

void expect_ct_eq(const Ciphertext& x, const Ciphertext& y) {
  expect_poly_eq(x.b, y.b);
  expect_poly_eq(x.a, y.a);
}

// The hybrid plan of an m×n matrix, from its definition: D extended
// diagonals (m padded to a power of two, at most n), b baby steps taken
// from the column count, D/b giant steps and log2(n/D) folds. With
// b >= 2 the plan fills both slot rows: h = b/2 baby terms per giant
// step, h - 1 of them hoisted rotations, D/2 plaintext products, and
// three more rotations (rot_h, the row swap, the swap-fold).
struct Plan {
  std::size_t diags, baby, giants, folds;

  bool two_rows() const { return baby >= 2; }
  std::size_t terms() const { return two_rows() ? baby / 2 : baby; }
  std::size_t hoisted() const { return terms() - 1; }
  std::size_t plain_mults() const {
    return two_rows() ? diags / 2 : diags;
  }
  std::size_t rotations() const {
    return hoisted() + (giants - 1) + folds + (two_rows() ? 3 : 0);
  }
  // Distinct keys: the row swap serves the lead and the swap-fold.
  std::size_t keys() const { return rotations() - (two_rows() ? 1 : 0); }
};

Plan plan_for(std::size_t m, std::size_t n) {
  std::size_t d = 1;
  while (d < m) d <<= 1;
  d = std::min(d, n);
  const std::size_t b = std::min(BsgsHmvp::baby_steps(n), d);
  return {d, b, d / b, static_cast<std::size_t>(log2_exact(n / d))};
}

// rotate_rows_hoisted over one shared decomposition must reproduce
// rotate_rows (which decomposes fresh per call) bit for bit, for every
// element of the BSGS plan — this is what lets the baby steps share one
// decomposition without changing any downstream bit.
TEST(Bsgs, HoistedRotationBitExactAcrossPlanElements) {
  BsgsFixture f(128);
  const std::size_t n_cols = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n_cols));
  Evaluator eval(f.ctx);

  auto v = f.random_vector(n_cols);
  BsgsHmvp engine(f.ctx, &gk);
  Ciphertext ct_q = eval.rescale(engine.encrypt_vector(v, f.encryptor));

  std::vector<RnsPoly> digits(f.ctx->dnum(),
                              RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, digits);

  const std::size_t b = BsgsHmvp::baby_steps(n_cols);
  std::vector<std::size_t> rotations;
  for (std::size_t i = 1; i < b; ++i) rotations.push_back(i);
  for (std::size_t j = 1; j < (n_cols + b - 1) / b; ++j) {
    rotations.push_back(j * b);
  }
  for (std::size_t r : rotations) {
    SCOPED_TRACE(r);
    Ciphertext fresh = eval.rotate_rows(ct_q, r, gk);
    Ciphertext hoisted = eval.rotate_rows_hoisted(ct_q, digits, r, gk);
    expect_ct_eq(fresh, hoisted);
  }
}

// The lazy inner product over base_qp, brought down by p and added to
// φ(b), must be rotate_hoisted bit for bit for every Galois element any
// row count's plan uses — baby, giant and fold rotations alike — whatever
// its output polynomials held before.
TEST(Bsgs, LazyKeySwitchRoundsDownToRotateHoisted) {
  BsgsFixture f(128);
  const std::size_t n_cols = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n_cols));
  Evaluator eval(f.ctx);
  BsgsHmvp engine(f.ctx, &gk);
  Ciphertext ct_q = eval.rescale(
      engine.encrypt_vector(f.random_vector(n_cols), f.encryptor));
  std::vector<RnsPoly> digits(f.ctx->dnum(),
                              RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, digits);

  for (u64 k : probe.required_galois_elements(n_cols)) {
    SCOPED_TRACE(k);
    const auto coeff = eval.evk().automorph_table(k);
    const auto ntt = eval.evk().automorph_table_ntt(k);
    const auto fksk = eval.evk().frozen(gk.get(k));
    Ciphertext lazy;
    lazy.b = RnsPoly(f.ctx->base_qp(), false);
    lazy.a = RnsPoly(f.ctx->base_qp(), false);
    std::fill(lazy.b.raw().begin(), lazy.b.raw().end(), 1);
    std::fill(lazy.a.raw().begin(), lazy.a.raw().end(), 2);
    eval.keyswitch_hoisted_qp(digits, *ntt, *fksk, lazy);
    ASSERT_TRUE(lazy.b.is_ntt() && lazy.a.is_ntt());
    lazy.from_ntt();
    Ciphertext got = eval.rescale(lazy);
    got.b.add_inplace(ct_q.b.automorph(*coeff));
    expect_ct_eq(got, eval.rotate_hoisted(ct_q, digits, *coeff, *ntt, *fksk));
  }
}

TEST(Bsgs, HoistedRotationBitExactThreadedDigits) {
  // The shared decomposition must be bit-exact however many lanes build
  // it, so hoisted rotations stay deterministic under the pool.
  BsgsFixture f(128);
  const std::size_t n_cols = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n_cols));
  Evaluator eval(f.ctx);
  BsgsHmvp engine(f.ctx, &gk);
  Ciphertext ct_q =
      eval.rescale(engine.encrypt_vector(f.random_vector(n_cols),
                                         f.encryptor));

  std::vector<RnsPoly> d1(f.ctx->dnum(), RnsPoly(f.ctx->base_qp(), false));
  std::vector<RnsPoly> d8(f.ctx->dnum(), RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, d1, 1);
  eval.decompose_ntt_digits(ct_q.a, d8, 8);
  for (std::size_t j = 0; j < d1.size(); ++j) expect_poly_eq(d1[j], d8[j]);

  Ciphertext r1 = eval.rotate_rows_hoisted(ct_q, d1, 3, gk);
  Ciphertext r8 = eval.rotate_rows_hoisted(ct_q, d8, 3, gk);
  expect_ct_eq(r1, r8);
}

TEST(Bsgs, RotateRowsZeroIsIdentityWithoutKeys) {
  BsgsFixture f(64);
  Evaluator eval(f.ctx);
  GaloisKeys empty;
  auto v = f.random_vector(8);
  BatchEncoder enc(f.ctx);
  std::vector<u64> slots(f.ctx->n(), 0);
  std::copy(v.begin(), v.end(), slots.begin());
  Ciphertext ct = f.encryptor.encrypt(enc.encode(slots));
  Ciphertext ct_q = eval.rescale(ct);
  std::vector<RnsPoly> digits(f.ctx->dnum(),
                              RnsPoly(f.ctx->base_qp(), false));
  eval.decompose_ntt_digits(ct_q.a, digits);
  expect_ct_eq(eval.rotate_rows(ct_q, 0, empty),
               eval.rotate_rows_hoisted(ct_q, digits, 0, empty));
}

struct Shape {
  std::size_t m, n, ring = 128;
};

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.m << "x" << s.n << " at N=" << s.ring;
}

class BsgsShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(BsgsShapeTest, MatchesReferenceAndStats) {
  const auto [m, n, ring] = GetParam();
  BsgsFixture f(ring, m * 257 + n);
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp engine(f.ctx, &gk);

  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  BaselineStats stats;
  auto ct = engine.multiply(a, engine.encrypt_vector(v, f.encryptor), &stats);
  EXPECT_EQ(engine.decrypt_result(ct, m, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
  const Plan plan = plan_for(m, n);
  EXPECT_EQ(stats.rotations, plan.rotations());
  EXPECT_EQ(stats.rotations_hoisted, plan.hoisted());
  EXPECT_EQ(stats.plain_mults, plan.plain_mults());
}

// Square, tall and wide shapes; the wide ones include row counts that
// are not a power of two, down to one row (1×64 folds six times). From
// 2×8 on, plans at b = 1, 2, 4 and 16 with rows at 1, 2, D/2 ± 1 and
// N/2: on two slot rows h = b/2 ranges over 1 (no hoisted baby, only the
// lead rotations), 2 and 8.
INSTANTIATE_TEST_SUITE_P(
    Shapes, BsgsShapeTest,
    ::testing::Values(Shape{4, 4}, Shape{16, 16}, Shape{8, 64},
                      Shape{64, 64}, Shape{10, 16}, Shape{64, 8},
                      Shape{1, 2}, Shape{1, 64}, Shape{3, 64}, Shape{5, 16},
                      Shape{33, 64},
                      // b = 2 (n = 8, D = 8; and D = 2 at n = 64)
                      Shape{2, 8}, Shape{3, 8}, Shape{5, 8}, Shape{2, 64},
                      // b = 4 (n = 16, D = 16)
                      Shape{1, 16}, Shape{2, 16}, Shape{7, 16},
                      Shape{9, 16}, Shape{64, 16},
                      // b = 16 (n = 256 at N = 1024, D = 256)
                      Shape{1, 256, 1024}, Shape{2, 256, 1024},
                      Shape{127, 256, 1024}, Shape{129, 256, 1024},
                      Shape{512, 256, 1024}));

TEST(Bsgs, ThreadCountInvariance) {
  BsgsFixture f(128);
  const std::size_t m = 32, n = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp engine(f.ctx, &gk);
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto ct_v = engine.encrypt_vector(f.random_vector(n), f.encryptor);
  Ciphertext t1 = engine.multiply(a, ct_v, nullptr, 1);
  Ciphertext t8 = engine.multiply(a, ct_v, nullptr, 8);
  expect_ct_eq(t1, t8);
}

TEST(Bsgs, MatchesDiagonalBaselineDecryption) {
  // Same decomposition, same decrypt convention — the hoisted engine is
  // a faster implementation of the same math.
  BsgsFixture f(128);
  const std::size_t m = 24, n = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp bsgs(f.ctx, &gk);
  DiagonalHmvp diag(f.ctx, &gk);
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  auto ct_b = bsgs.multiply(a, bsgs.encrypt_vector(v, f.encryptor));
  auto ct_d = diag.multiply(a, bsgs.encrypt_vector(v, f.encryptor));
  EXPECT_EQ(bsgs.decrypt_result(ct_b, m, f.decryptor),
            bsgs.decrypt_result(ct_d, m, f.decryptor));
}

TEST(RotateSum, MatchesReference) {
  BsgsFixture f(128, 21);
  RotateSumHmvp rs(f.ctx, nullptr);
  auto gk = f.keys_for(rs.required_galois_elements());
  RotateSumHmvp engine(f.ctx, &gk);

  const std::size_t m = 9, n = f.ctx->n() / 2;
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  auto ct_v = engine.encrypt_vector(v, f.encryptor);
  BaselineStats stats;
  auto cts = engine.multiply(a, ct_v, &stats);
  auto got = engine.decrypt_result(cts, f.decryptor);
  EXPECT_EQ(got, HmvpEngine::reference(a, v, f.ctx->params().t));
  // O(m log(N/2)) rotations — the complexity the paper quotes.
  EXPECT_EQ(stats.rotations, m * log2_exact(f.ctx->n() / 2));
  EXPECT_EQ(stats.plain_mults, m);
}

TEST(RotateSum, ShortVectorZeroPadded) {
  BsgsFixture f(128, 21);
  RotateSumHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements());
  RotateSumHmvp engine(f.ctx, &gk);
  auto a = DenseMatrix::random(4, 10, f.ctx->params().t, f.rng);
  auto v = f.random_vector(10);
  auto cts = engine.multiply(a, engine.encrypt_vector(v, f.encryptor));
  EXPECT_EQ(engine.decrypt_result(cts, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
}

class DiagonalShapeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(DiagonalShapeTest, MatchesReference) {
  const auto [m, n] = GetParam();
  BsgsFixture f(128, m * 131 + n);
  BsgsHmvp layout(f.ctx, nullptr);
  auto gk = f.keys_for(layout.required_galois_elements(n));
  DiagonalHmvp engine(f.ctx, &gk);

  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  auto v = f.random_vector(n);
  BaselineStats stats;
  auto ct = engine.multiply(a, layout.encrypt_vector(v, f.encryptor), &stats);
  EXPECT_EQ(layout.decrypt_result(ct, m, f.decryptor),
            HmvpEngine::reference(a, v, f.ctx->params().t));
  // BSGS rotation count: (b-1) baby + (n/b - 1) giant.
  const std::size_t b = BsgsHmvp::baby_steps(n);
  EXPECT_EQ(stats.rotations, (b - 1) + (n + b - 1) / b - 1);
  EXPECT_EQ(stats.plain_mults, n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DiagonalShapeTest,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(4, 4),
                      std::make_pair<std::size_t, std::size_t>(16, 16),
                      std::make_pair<std::size_t, std::size_t>(8, 64),
                      std::make_pair<std::size_t, std::size_t>(64, 64),
                      std::make_pair<std::size_t, std::size_t>(10, 16),
                      std::make_pair<std::size_t, std::size_t>(64, 8)));

TEST(Bsgs, RequiredElementsSortedAndUnique) {
  BsgsFixture f(128);
  BsgsHmvp bsgs(f.ctx, nullptr);
  RotateSumHmvp rotsum(f.ctx, nullptr);
  for (std::size_t n : {2u, 4u, 16u, 64u}) {
    const auto elems = bsgs.required_galois_elements(n);
    EXPECT_FALSE(elems.empty());
    EXPECT_TRUE(std::is_sorted(elems.begin(), elems.end()));
    EXPECT_TRUE(std::adjacent_find(elems.begin(), elems.end()) ==
                elems.end());
  }
  auto rs = rotsum.required_galois_elements();
  EXPECT_TRUE(std::is_sorted(rs.begin(), rs.end()));
  EXPECT_TRUE(std::adjacent_find(rs.begin(), rs.end()) == rs.end());
}

// Every plan a row count can pick for an n-column matrix freezes only
// keys from required_galois_elements(n), the set a client uploads at
// hello, and exactly one key per distinct rotation of the plan. A plan
// that strayed outside the set would otherwise show up only as an
// ingest-time kBadRequest. Row counts 1, 2, 3 and 2^k ± 1 up to N/2 reach
// every D = 1, 2, .., n.
TEST(Bsgs, HelloKeySetCoversEveryPlan) {
  const auto freezes = [] {
    return obs::MetricsRegistry::global().counter("evk.freezes").value();
  };
  for (std::size_t ring : {256, 8192}) {
    SCOPED_TRACE(ring);
    BsgsFixture f(ring, 70 + ring);
    const std::size_t half = ring / 2;
    std::vector<std::size_t> row_counts = {1, 2, 3};
    for (std::size_t p = 4; p <= half; p *= 2) {
      row_counts.push_back(p - 1);
      if (p + 1 <= half) row_counts.push_back(p + 1);
    }
    BsgsHmvp probe(f.ctx, nullptr);
    for (std::size_t n = 1; n <= half; n *= 2) {
      SCOPED_TRACE(n);
      const std::vector<u64> hello = probe.required_galois_elements(n);
      const GaloisKeys gk = f.keys_for(hello);
      std::set<std::size_t> seen;  // D picks the plan
      for (std::size_t m : row_counts) {
        const Plan plan = plan_for(m, n);
        if (!seen.insert(plan.diags).second) continue;
        SCOPED_TRACE(m);
        // A fresh session starts cold, so it freezes this plan's keys.
        Evaluator eval(f.ctx, "hello-cover-" + std::to_string(ring) + "-" +
                                  std::to_string(n) + "-" +
                                  std::to_string(m));
        const u64 before = freezes();
        const auto keys =
            eval.evk().bsgs_keys(gk, n, plan.diags, plan.baby);
        std::set<u64> used;
        for (const auto* steps :
             {&keys->lead, &keys->babies, &keys->giants, &keys->folds}) {
          for (const BsgsKeys::Rot& rot : *steps) {
            EXPECT_TRUE(
                std::binary_search(hello.begin(), hello.end(), rot.element))
                << "element " << rot.element << " (r = " << rot.r
                << ") is not in the hello key set";
            used.insert(rot.element);
          }
        }
        EXPECT_EQ(keys->rotations(), plan.rotations());
        EXPECT_EQ(used.size(), plan.keys());
        EXPECT_EQ(freezes() - before, plan.keys());
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(log2_exact(n)) + 1);
    }
  }
}

TEST(Bsgs, RejectsNonPowerOfTwoCols) {
  BsgsFixture f(128, 21);
  BsgsHmvp probe(f.ctx, nullptr);
  auto v = f.random_vector(12);
  EXPECT_THROW(probe.encrypt_vector(v, f.encryptor), CheckError);
}

TEST(Bsgs, BabySteps) {
  EXPECT_EQ(BsgsHmvp::baby_steps(4), 2u);
  EXPECT_EQ(BsgsHmvp::baby_steps(16), 4u);
  EXPECT_EQ(BsgsHmvp::baby_steps(64), 8u);
  EXPECT_EQ(BsgsHmvp::baby_steps(128), 8u);   // 8*8=64 < 128 <= 16*16
  EXPECT_EQ(BsgsHmvp::baby_steps(1), 1u);
}

TEST(Bsgs, EncodeVectorTilesRowZeroWithPeriodOfV) {
  // The slot layout every BSGS client sends: v repeated across the N/2
  // row-0 slots, row 1 left zero.
  BsgsFixture f(128);
  const std::size_t half = f.ctx->n() / 2;
  BsgsHmvp engine(f.ctx, nullptr);
  BatchEncoder encoder(f.ctx);
  for (std::size_t len : {1, 8, 64}) {
    SCOPED_TRACE(len);
    const auto v = f.random_vector(len);
    std::vector<u64> want(f.ctx->n(), 0);
    for (std::size_t s = 0; s < half; ++s) want[s] = v[s % len];
    EXPECT_EQ(encoder.decode(engine.encode_vector(v)), want);
  }
}

TEST(Bsgs, EncodedMatchesStreamingBitExact) {
  // The frozen diagonal set must reproduce the streaming multiply bit for
  // bit — the serving layer's frozen operands depend on it.
  BsgsFixture f(128);
  for (auto [m, n] : {std::pair<std::size_t, std::size_t>{32, 64},
                      std::pair<std::size_t, std::size_t>{10, 16},
                      std::pair<std::size_t, std::size_t>{64, 8}}) {
    SCOPED_TRACE(m);
    SCOPED_TRACE(n);
    BsgsHmvp probe(f.ctx, nullptr);
    auto gk = f.keys_for(probe.required_galois_elements(n));
    BsgsHmvp engine(f.ctx, &gk);
    auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
    auto ct_v = engine.encrypt_vector(f.random_vector(n), f.encryptor);
    BsgsEncodedMatrix enc = engine.encode_matrix(a, 4);
    EXPECT_EQ(enc.rows(), m);
    EXPECT_EQ(enc.cols(), n);
    EXPECT_EQ(enc.diagonals(), plan_for(m, n).diags);
    Ciphertext streaming = engine.multiply(a, ct_v);
    Ciphertext encoded = engine.multiply_encoded(enc, ct_v);
    expect_ct_eq(streaming, encoded);
  }
}

TEST(Bsgs, BatchedMatchesSingleShotPerSession) {
  // A cross-session batch must give every request exactly the bits its
  // own single-shot run produces: per-session sub-batches share only the
  // diagonal operands, never key material.
  BsgsFixture f(128);
  const std::size_t m = 32, n = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto elements = probe.required_galois_elements(n);
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  BsgsHmvp encode_engine(f.ctx, nullptr);
  BsgsEncodedMatrix enc = encode_engine.encode_matrix(a);

  const std::size_t k = 4;
  std::vector<GaloisKeys> gks;
  std::vector<std::unique_ptr<Evaluator>> evals;
  std::vector<Ciphertext> cts;
  std::vector<std::vector<u64>> vs;
  gks.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    gks.push_back(f.keys_for(elements));
    evals.push_back(std::make_unique<Evaluator>(
        f.ctx, "bsgs-batch-session-" + std::to_string(s)));
    vs.push_back(f.random_vector(n));
    cts.push_back(probe.encrypt_vector(vs.back(), f.encryptor));
  }
  std::vector<Ciphertext> want;
  for (std::size_t s = 0; s < k; ++s) {
    BsgsHmvp single(f.ctx, &gks[s]);
    want.push_back(single.multiply(a, cts[s]));
    EXPECT_EQ(single.decrypt_result(want[s], m, f.decryptor),
              HmvpEngine::reference(a, vs[s], f.ctx->params().t));
  }
  // One request per session, then a mixed composition that repeats
  // sessions out of order, at 1 and 4 lanes.
  const Plan plan = plan_for(m, n);
  for (const std::vector<std::size_t>& sessions :
       {std::vector<std::size_t>{0, 1, 2, 3},
        std::vector<std::size_t>{2, 0, 2, 3, 1, 0}}) {
    std::vector<MvpRequest> batch;
    for (std::size_t s : sessions) {
      batch.push_back(MvpRequest{{&cts[s], 1}, evals[s].get(), &gks[s]});
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      BaselineStats stats;
      auto results =
          encode_engine.multiply_encoded_batch(enc, batch, &stats, threads);
      ASSERT_EQ(results.size(), sessions.size());
      EXPECT_EQ(stats.rotations, sessions.size() * plan.rotations());
      EXPECT_EQ(stats.rotations_hoisted, sessions.size() * plan.hoisted());
      EXPECT_EQ(stats.plain_mults, sessions.size() * plan.plain_mults());
      for (std::size_t r = 0; r < sessions.size(); ++r) {
        SCOPED_TRACE(r);
        expect_ct_eq(want[sessions[r]], results[r]);
      }
    }
  }
}

// Oracle: the double-hoisted sweep from whole-polynomial primitives, over
// the hybrid plan's D extended diagonals. On two slot rows (b >= 2) ct(v)
// first becomes ct + swap(rot_h(ct)) through rotate_rows and a hoisted
// row swap. Each baby rotation is a whole base_qp polynomial with no
// mod-down (permuted digits against the frozen key, plus p·φ(b)), frozen
// to Shoup form; every plaintext (diagonals j·b + i and j·b + h + i in
// rows 0 and 1) is one fully reduced multiply_plain_ntt /
// multiply_plain_ntt_acc over base_qp into the giant step's inner sum,
// re-encoded here from the diagonals' definition. A giant step rounds
// down only its a-side to decompose it; the sum stays over base_qp and
// is rescaled once. The swap-fold adds the row swap back, and the folds
// go through rotate_rows, which looks up its own keys.
Ciphertext shoup_sweep_oracle(const BfvContextPtr& ctx, const Evaluator& eval,
                              const GaloisKeys& gk, const DenseMatrix& a,
                              const Ciphertext& ct_v) {
  const std::size_t n = a.cols();
  const std::size_t half = ctx->n() / 2;
  const Plan plan = plan_for(a.rows(), n);
  const std::size_t d_count = plan.diags, b = plan.baby, h = plan.terms();
  const std::size_t slot_rows = plan.two_rows() ? 2 : 1;
  const u64 t = ctx->params().t;
  const RnsBasePtr& qp = ctx->base_qp();
  BatchEncoder encoder(ctx);
  const auto keys = eval.evk().bsgs_keys(gk, n, d_count, b);
  const auto decompose = [&](const RnsPoly& c) {
    std::vector<RnsPoly> digits(ctx->dnum(), RnsPoly(qp, false));
    eval.decompose_ntt_digits(c, digits);
    return digits;
  };
  const auto swap_rows = [&](const Ciphertext& x) {
    return eval.apply_galois_hoisted(x, decompose(x.a),
                                     ctx->row_swap_galois_element(), gk);
  };
  // (Σ_k φ(d_k) ∘ ksk_k, with φ(b) added on the b side) over base_qp.
  const auto rotate_qp = [&](const std::vector<RnsPoly>& digits,
                             const RnsPoly& b_side, const AutomorphTable& ntt,
                             const FrozenKsk& ksk) {
    Ciphertext out;
    out.b = RnsPoly(qp, true);
    out.a = RnsPoly(qp, true);
    RnsPoly perm(qp, true);
    for (std::size_t k = 0; k < digits.size(); ++k) {
      digits[k].automorph_into(ntt, perm);
      ksk.b[k].mul_pointwise_acc(perm, out.b);
      ksk.a[k].mul_pointwise_acc(perm, out.a);
    }
    b_side.automorph_into(ntt, perm);
    out.b.add_inplace(perm);
    return out;
  };

  Ciphertext ct_q = eval.rescale(ct_v);
  if (plan.two_rows()) {
    eval.add_inplace(ct_q, swap_rows(eval.rotate_rows(ct_q, h, gk)));
  }
  const std::vector<RnsPoly> digits = decompose(ct_q.a);
  // p·ct_q over base_qp: zero on the special prime.
  const auto times_p = [&](const RnsPoly& x) {
    RnsPoly out(qp, false);
    for (std::size_t l = 0; l < x.limbs(); ++l) {
      std::copy_n(x.limb(l), x.n(), out.limb(l));
    }
    out.mul_scalar_inplace(qp->modulus(qp->size() - 1).value());
    out.to_ntt();
    return out;
  };
  Ciphertext p_ct;
  p_ct.b = times_p(ct_q.b);
  p_ct.a = times_p(ct_q.a);
  // Baby rotations from the session's Galois keys, in NTT order: the
  // engine's slot-order baby keys are not read here.
  std::vector<ShoupCiphertext> baby(h);
  for (std::size_t i = 0; i < h; ++i) {
    const u64 element = ctx->rotation_galois_element(i);
    baby[i] = ShoupCiphertext(
        i == 0 ? p_ct
               : rotate_qp(digits, p_ct.b,
                           *eval.evk().automorph_table_ntt(element),
                           *eval.evk().frozen(gk.get(element))));
  }

  std::vector<std::vector<u64>> rows(a.rows(), std::vector<u64>(n));
  for (std::size_t r = 0; r < a.rows(); ++r) a.row(r, rows[r].data());
  Ciphertext sum;
  for (std::size_t j = 0; j < plan.giants; ++j) {
    Ciphertext acc;
    acc.b = RnsPoly(qp, true);
    acc.a = RnsPoly(qp, true);
    for (std::size_t i = 0; i < h; ++i) {
      std::vector<u64> rotated(slot_rows * half, 0);
      for (std::size_t row = 0; row < slot_rows; ++row) {
        const std::size_t d = j * b + row * h + i;
        // Slot s of diagonal d holds A[s mod D][(s + d) mod n] for every
        // s < n whose row s mod D exists (every s < m when tall).
        for (std::size_t s = 0; s < std::max(n, a.rows()); ++s) {
          const std::size_t r = d_count < n ? s % d_count : s;
          if (r < a.rows()) {
            rotated[row * half + (s + j * b) % half] =
                rows[r][(s + d) % n] % t;
          }
        }
      }
      RnsPoly pt_ntt(qp, false);
      eval.transform_plain_ntt_into(encoder.encode(rotated), pt_ntt);
      if (i == 0) {
        eval.multiply_plain_ntt(baby[i], pt_ntt, acc);
      } else {
        eval.multiply_plain_ntt_acc(baby[i], pt_ntt, acc);
      }
    }
    if (j > 0) {
      RnsPoly a_coeff = acc.a;
      a_coeff.from_ntt();
      RnsPoly a_q(ctx->base_q(), false);
      divide_round_by_last_into(a_coeff, a_q);
      const BsgsKeys::Rot& rot = keys->giants[j - 1];
      eval.add_inplace(sum,
                       rotate_qp(decompose(a_q), acc.b, *rot.ntt, *rot.ksk));
    } else {
      sum = acc;
    }
  }
  sum.from_ntt();
  Ciphertext out = eval.rescale(sum);
  if (plan.two_rows()) eval.add_inplace(out, swap_rows(out));
  for (std::size_t r = n / 2; r >= d_count; r /= 2) {
    eval.add_inplace(out, eval.rotate_rows(out, r, gk));
  }
  return out;
}

TEST(Bsgs, BatchedMatchesShoupSweepOracle) {
  // N=64 is a single MultPoly tile per limb, N=128 two; at N=2048 each
  // tile's 512 two-row plaintexts span two storage chunks. Per ring, one
  // shape has D = n diagonals and a wide one (m = n/4 - 3) sweeps D = n/4
  // and folds twice. Batches of 1, 3 and 8 alternate between two
  // sessions, at 1 and 8 lanes.
  for (std::size_t ring : {64, 128, 2048}) {
    SCOPED_TRACE(ring);
    BsgsFixture f(ring, 900 + ring);
    const std::size_t n = ring / 2;
    for (std::size_t m : {n - 5, n / 4 - 3}) {
      SCOPED_TRACE(m);
      BsgsHmvp engine(f.ctx, nullptr);
      const auto elements = engine.required_galois_elements(n);
      const auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
      const BsgsEncodedMatrix enc = engine.encode_matrix(a, 2);

      std::vector<GaloisKeys> gks;
      std::vector<std::unique_ptr<Evaluator>> evals;
      for (int s = 0; s < 2; ++s) {
        gks.push_back(f.keys_for(elements));
        evals.push_back(std::make_unique<Evaluator>(
            f.ctx, "bsgs-oracle-" + std::to_string(ring) + "-" +
                       std::to_string(m) + "-" + std::to_string(s)));
      }
      std::vector<Ciphertext> cts;
      std::vector<Ciphertext> want;
      for (std::size_t r = 0; r < 8; ++r) {
        cts.push_back(engine.encrypt_vector(f.random_vector(n), f.encryptor));
        want.push_back(shoup_sweep_oracle(f.ctx, *evals[r % 2], gks[r % 2], a,
                                          cts.back()));
      }
      for (std::size_t k : {1, 3, 8}) {
        std::vector<MvpRequest> batch(k);
        for (std::size_t r = 0; r < k; ++r) {
          batch[r] =
              MvpRequest{{&cts[r], 1}, evals[r % 2].get(), &gks[r % 2]};
        }
        for (int threads : {1, 8}) {
          SCOPED_TRACE(k);
          SCOPED_TRACE(threads);
          const auto got =
              engine.multiply_encoded_batch(enc, batch, nullptr, threads);
          ASSERT_EQ(got.size(), k);
          for (std::size_t r = 0; r < k; ++r) expect_ct_eq(got[r], want[r]);
        }
      }
    }
  }
}

TEST(Bsgs, BatchedThreadCountInvariance) {
  BsgsFixture f(128);
  const std::size_t m = 24, n = 64;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp engine(f.ctx, &gk);
  auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
  BsgsEncodedMatrix enc = engine.encode_matrix(a, 1);
  BsgsEncodedMatrix enc8 = engine.encode_matrix(a, 8);
  std::vector<Ciphertext> cts;
  for (int i = 0; i < 3; ++i) {
    cts.push_back(engine.encrypt_vector(f.random_vector(n), f.encryptor));
  }
  std::vector<MvpRequest> batch(cts.size());
  for (std::size_t i = 0; i < cts.size(); ++i) batch[i].ct_v = {&cts[i], 1};
  auto r1 = engine.multiply_encoded_batch(enc, batch, nullptr, 1);
  auto r8 = engine.multiply_encoded_batch(enc8, batch, nullptr, 8);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) expect_ct_eq(r1[i], r8[i]);
}

TEST(Bsgs, FoldChainsDecryptAtServedRing) {
  // The served ring (N=8192) under the key set servebench's clients
  // upload, every rotation of a 4096-column shape. One row takes the
  // deepest fold chain (D = 1, 12 folds); 1000 rows pad to D = 1024 and
  // fold twice. Both must still decrypt to the plaintext reference.
  BsgsFixture f(8192, 61);
  const std::size_t n = 4096;
  BsgsHmvp probe(f.ctx, nullptr);
  auto gk = f.keys_for(probe.required_galois_elements(n));
  BsgsHmvp engine(f.ctx, &gk);
  for (std::size_t m : {1, 1000}) {
    SCOPED_TRACE(m);
    const auto a = DenseMatrix::random(m, n, f.ctx->params().t, f.rng);
    const auto v = f.random_vector(n);
    BaselineStats stats;
    const Ciphertext ct =
        engine.multiply(a, engine.encrypt_vector(v, f.encryptor), &stats, 4);
    EXPECT_EQ(engine.decrypt_result(ct, m, f.decryptor),
              HmvpEngine::reference(a, v, f.ctx->params().t));
    EXPECT_EQ(stats.rotations, plan_for(m, n).rotations());
    // Reported in the XML output (--gtest_output=xml) for DESIGN.md §6h.
    const double budget = f.decryptor.noise_budget_bits(ct);
    RecordProperty("noise_budget_bits_" + std::to_string(m),
                   std::to_string(budget));
    EXPECT_GT(budget, 8.0);
  }
}

TEST(Bsgs, AlgorithmChooser) {
  const std::size_t ring = 8192;
  // These picks pin the fitted cost model in mvp.cc, not measured
  // winners: bench/baseline.json has streaming BSGS ahead of the
  // coefficient engine at every bench_bsgs shape, 64x256 (0.080 vs
  // 0.263 s) and 256x1024 (0.284 vs 0.884 s) included. ROADMAP item 2
  // refits the model or replaces it with a rule.
  // Tall/square shapes: the model prices BSGS below coefficient.
  EXPECT_EQ(choose_mvp_algorithm(1024, 4096, ring), MvpAlgorithm::kBsgs);
  EXPECT_EQ(choose_mvp_algorithm(2048, 4096, ring), MvpAlgorithm::kBsgs);
  EXPECT_EQ(choose_mvp_algorithm(1024, 2048, ring), MvpAlgorithm::kBsgs);
  // Short or column-heavy shapes: the model prices coefficient lower.
  EXPECT_EQ(choose_mvp_algorithm(64, 256, ring),
            MvpAlgorithm::kCoefficient);
  EXPECT_EQ(choose_mvp_algorithm(256, 1024, ring),
            MvpAlgorithm::kCoefficient);
  EXPECT_EQ(choose_mvp_algorithm(8, 4096, ring),
            MvpAlgorithm::kCoefficient);
  EXPECT_EQ(choose_mvp_algorithm(16, 4096, ring),
            MvpAlgorithm::kCoefficient);
  // Shapes the diagonal method cannot express fall back.
  EXPECT_EQ(choose_mvp_algorithm(64, 100, ring),
            MvpAlgorithm::kCoefficient);  // non-power-of-two cols
  EXPECT_EQ(choose_mvp_algorithm(64, 8192, ring),
            MvpAlgorithm::kCoefficient);  // cols > N/2
  EXPECT_EQ(choose_mvp_algorithm(8192, 4096, ring),
            MvpAlgorithm::kCoefficient);  // rows > N/2
  EXPECT_STREQ(mvp_algorithm_name(MvpAlgorithm::kBsgs), "bsgs");
  EXPECT_STREQ(mvp_algorithm_name(MvpAlgorithm::kCoefficient),
               "coefficient");
}

}  // namespace
}  // namespace cham
