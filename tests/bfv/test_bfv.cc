#include <gtest/gtest.h>

#include "bfv/decryptor.h"
#include "bfv/encoder.h"
#include "bfv/encryptor.h"
#include "bfv/evaluator.h"
#include "bfv/keygen.h"
#include "common/random.h"
#include "reference/reference.h"

namespace cham {
namespace {

struct BfvFixture {
  explicit BfvFixture(std::size_t n = 256, u64 t = 65537, u64 seed = 123)
      : rng(seed),
        ctx(BfvContext::create(BfvParams::test(n, t))),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        encryptor(ctx, &pk, &keygen.secret_key(), rng),
        decryptor(ctx, keygen.secret_key()),
        evaluator(ctx),
        encoder(ctx) {}

  Rng rng;
  BfvContextPtr ctx;
  KeyGenerator keygen;
  PublicKey pk;
  Encryptor encryptor;
  Decryptor decryptor;
  Evaluator evaluator;
  CoeffEncoder encoder;

  std::vector<u64> random_message(std::size_t len) {
    std::vector<u64> m(len);
    for (auto& v : m) v = rng.uniform(ctx->params().t);
    return m;
  }
};

TEST(BfvContext, ValidatesParams) {
  BfvParams p = BfvParams::test();
  p.t = 65536;  // even
  EXPECT_THROW(BfvContext::create(p), CheckError);
  p = BfvParams::test();
  p.q_primes.clear();
  EXPECT_THROW(BfvContext::create(p), CheckError);
  p = BfvParams::test();
  p.q_primes[0] = 1ULL << 34;  // not prime
  EXPECT_THROW(BfvContext::create(p), CheckError);
  p = BfvParams::test();
  p.n = 100;  // not a power of two
  EXPECT_THROW(BfvContext::create(p), CheckError);
}

TEST(BfvContext, PaperParams) {
  auto ctx = BfvContext::create(BfvParams::paper());
  EXPECT_EQ(ctx->n(), 4096u);
  EXPECT_EQ(ctx->base_q()->size(), 2u);
  EXPECT_EQ(ctx->base_qp()->size(), 3u);
  // Paper Sec. II-F: ~109-bit total with special modulus, ~70-bit q.
  EXPECT_NEAR(ctx->base_qp()->total_modulus_log2(), 108.0, 2.0);
  EXPECT_NEAR(ctx->base_q()->total_modulus_log2(), 69.0, 2.0);
}

TEST(Bfv, EncryptDecryptRoundTrip) {
  BfvFixture f;
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  auto back = f.decryptor.decrypt(ct);
  EXPECT_EQ(back.coeffs, m);
}

TEST(Bfv, SymmetricEncryptDecrypt) {
  BfvFixture f;
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt_symmetric(f.encoder.encode_vector(m));
  EXPECT_EQ(f.decryptor.decrypt(ct).coeffs, m);
}

TEST(Bfv, FreshNoiseBudgetIsLarge) {
  BfvFixture f;
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(f.random_message(8)));
  // Noise is measured after the decryptor's internal mod-switch to base_q:
  // Δ_q ~ 2^52 for t=2^16 and the switched fresh noise is near the
  // rounding floor, leaving a large budget.
  EXPECT_GT(f.decryptor.noise_budget_bits(ct), 30.0);
}

TEST(Bfv, EncryptZeroDecryptsToZero) {
  BfvFixture f;
  auto ct = f.encryptor.encrypt_zero();
  auto pt = f.decryptor.decrypt(ct);
  for (u64 c : pt.coeffs) EXPECT_EQ(c, 0u);
}

TEST(Bfv, AdditionHomomorphism) {
  BfvFixture f;
  auto m1 = f.random_message(f.ctx->n());
  auto m2 = f.random_message(f.ctx->n());
  auto ct1 = f.encryptor.encrypt(f.encoder.encode_vector(m1));
  auto ct2 = f.encryptor.encrypt(f.encoder.encode_vector(m2));
  auto sum = f.evaluator.add(ct1, ct2);
  auto diff = f.evaluator.sub(ct1, ct2);
  const u64 t = f.ctx->params().t;
  auto s = f.decryptor.decrypt(sum);
  auto d = f.decryptor.decrypt(diff);
  for (std::size_t i = 0; i < f.ctx->n(); ++i) {
    EXPECT_EQ(s.coeffs[i], (m1[i] + m2[i]) % t);
    EXPECT_EQ(d.coeffs[i], (m1[i] + t - m2[i]) % t);
  }
}

TEST(Bfv, NegateHomomorphism) {
  BfvFixture f;
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  f.evaluator.negate_inplace(ct);
  auto d = f.decryptor.decrypt(ct);
  const u64 t = f.ctx->params().t;
  for (std::size_t i = 0; i < f.ctx->n(); ++i)
    EXPECT_EQ(d.coeffs[i], (t - m[i]) % t);
}

TEST(Bfv, AddPlain) {
  BfvFixture f;
  auto m1 = f.random_message(f.ctx->n());
  auto m2 = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m1));
  f.evaluator.add_plain_inplace(ct, f.encoder.encode_vector(m2));
  auto d = f.decryptor.decrypt(ct);
  const u64 t = f.ctx->params().t;
  for (std::size_t i = 0; i < f.ctx->n(); ++i)
    EXPECT_EQ(d.coeffs[i], (m1[i] + m2[i]) % t);
}

// Negacyclic convolution of messages mod t — reference for multiply_plain.
std::vector<u64> negacyclic_mod_t(const std::vector<u64>& a,
                                  const std::vector<u64>& b, u64 t) {
  const std::size_t n = a.size();
  std::vector<u64> out(n, 0);
  Modulus mt(t);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      u64 prod = mt.mul(a[i] % t, b[j] % t);
      std::size_t k = i + j;
      if (k < n) {
        out[k] = mt.add(out[k], prod);
      } else {
        out[k - n] = mt.sub(out[k - n], prod);
      }
    }
  }
  return out;
}

TEST(Bfv, MultiplyPlainMatchesConvolution) {
  BfvFixture f(128);
  // Keep plaintext multiplier small so noise stays manageable pre-rescale.
  std::vector<u64> m = f.random_message(f.ctx->n());
  std::vector<u64> w(f.ctx->n());
  for (auto& v : w) v = f.rng.uniform(256);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  auto prod = f.evaluator.multiply_plain(ct, f.encoder.encode_vector(w));
  auto expect = negacyclic_mod_t(m, w, f.ctx->params().t);
  EXPECT_EQ(f.decryptor.decrypt(prod).coeffs, expect);
}

TEST(Bfv, RescalePreservesMessageAndCutsNoise) {
  BfvFixture f(128);
  auto m = f.random_message(f.ctx->n());
  std::vector<u64> w(f.ctx->n());
  for (auto& v : w) v = f.rng.uniform(1024);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  auto prod = f.evaluator.multiply_plain(ct, f.encoder.encode_vector(w));
  auto rescaled = f.evaluator.rescale(prod);
  EXPECT_EQ(rescaled.base(), f.ctx->base_q());
  auto expect = negacyclic_mod_t(m, w, f.ctx->params().t);
  EXPECT_EQ(f.decryptor.decrypt(rescaled).coeffs, expect);
  // The rescale's purpose (pipeline stage 4): the multiplication noise
  // (~log2(e·||w||_1) ≈ 21 bits here) is divided by the 39-bit special
  // modulus, landing near the rounding floor; ample budget remains.
  EXPECT_LT(f.decryptor.noise_bits(rescaled), 16.0);
  EXPECT_GT(f.decryptor.noise_budget_bits(rescaled), 20.0);
  // Explicit rescale and the decryptor's internal mod-switch agree.
  EXPECT_EQ(f.decryptor.decrypt(prod).coeffs, expect);
}

TEST(Bfv, MultiplyMonomialShiftsCoefficients) {
  BfvFixture f(64);
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  const std::size_t s = 5;
  auto shifted = f.evaluator.multiply_monomial(ct, s);
  auto d = f.decryptor.decrypt(shifted);
  const u64 t = f.ctx->params().t;
  for (std::size_t i = 0; i < f.ctx->n(); ++i) {
    const std::size_t j = (i + s) % f.ctx->n();
    const bool wrap = i + s >= f.ctx->n();
    EXPECT_EQ(d.coeffs[j], wrap ? (t - m[i]) % t : m[i]);
  }
}

TEST(Bfv, MultiplyMonomialFullRotationNegates) {
  BfvFixture f(64);
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  auto rot = f.evaluator.multiply_monomial(ct, 2 * f.ctx->n() - 1);
  rot = f.evaluator.multiply_monomial(rot, 1);  // total X^{2N} = identity
  EXPECT_EQ(f.decryptor.decrypt(rot).coeffs, m);
}

TEST(Bfv, MultiplyScalar) {
  BfvFixture f(64);
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  f.evaluator.multiply_scalar_inplace(ct, 7);
  auto d = f.decryptor.decrypt(ct);
  const u64 t = f.ctx->params().t;
  for (std::size_t i = 0; i < f.ctx->n(); ++i)
    EXPECT_EQ(d.coeffs[i], (m[i] * 7) % t);
}

TEST(Bfv, ApplyGaloisMatchesPlaintextAutomorphism) {
  BfvFixture f(64);
  auto m = f.random_message(f.ctx->n());
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  auto ct_q = f.evaluator.rescale(ct);
  const u64 k = 5;
  auto gk = f.keygen.make_galois_keys(0, {k});
  auto rotated = f.evaluator.apply_galois(ct_q, k, gk);
  auto d = f.decryptor.decrypt(rotated);

  // Expected: m(X^k) mod t.
  const std::size_t n = f.ctx->n();
  Modulus mt(f.ctx->params().t);
  std::vector<u64> expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 j = (i * k) % (2 * n);
    if (j < n) {
      expect[j] = m[i] % mt.value();
    } else {
      expect[j - n] = mt.negate(m[i] % mt.value());
    }
  }
  EXPECT_EQ(d.coeffs, expect);
}

TEST(Bfv, GaloisKeyRequired) {
  BfvFixture f(64);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(f.random_message(8)));
  auto ct_q = f.evaluator.rescale(ct);
  GaloisKeys empty;
  empty.context = f.ctx;
  EXPECT_THROW(f.evaluator.apply_galois(ct_q, 3, empty), CheckError);
}

TEST(Bfv, DotProductViaEq1Encoding) {
  // The core Eq. 2 property: constant coefficient of the product is the
  // inner product <A_i, v>.
  BfvFixture f(256);
  const std::size_t n = f.ctx->n();
  const u64 t = f.ctx->params().t;
  auto v = f.random_message(n);
  auto row = f.random_message(n);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(v));
  auto prod =
      f.evaluator.multiply_plain(ct, f.encoder.encode_matrix_row(row, 1));
  auto rescaled = f.evaluator.rescale(prod);
  Modulus mt(t);
  u64 expect = 0;
  for (std::size_t j = 0; j < n; ++j)
    expect = mt.add(expect, mt.mul(row[j] % t, v[j] % t));
  EXPECT_EQ(f.decryptor.decrypt_coeff(rescaled, 0), expect);
}

TEST(Bfv, EncoderRejectsEmptyRow) {
  BfvFixture f(64);
  EXPECT_THROW(f.encoder.encode_matrix_row({}, 1), CheckError);
  EXPECT_THROW(f.encoder.encode_matrix_row(std::vector<u64>(65, 1), 1),
               CheckError);
}

TEST(Bfv, RotateRowsByZeroIsIdentity) {
  BfvFixture f(64);
  BatchEncoder be(f.ctx);
  auto slots = f.random_message(f.ctx->n());
  auto ct = f.evaluator.rescale(f.encryptor.encrypt(be.encode(slots)));
  GaloisKeys empty;
  empty.context = f.ctx;
  auto same = f.evaluator.rotate_rows(ct, 0, empty);  // no key needed
  EXPECT_EQ(be.decode(f.decryptor.decrypt(same)), slots);
  EXPECT_EQ(be.rotation_galois_element(0), 1u);
}

TEST(Bfv, DecryptRejectsNttForm) {
  BfvFixture f(64);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(f.random_message(8)));
  ct.to_ntt();
  EXPECT_THROW(f.decryptor.decrypt(ct), CheckError);
}

TEST(BfvContext, DeltaIsModulusOverTRounddown) {
  auto ctx = BfvContext::create(BfvParams::paper());
  const u64 t = ctx->params().t;
  EXPECT_EQ(ctx->plain_modulus().value(), t);
  const struct {
    const RnsBasePtr& base;
    const std::vector<u64>& delta;
    u128 total;
  } levels[] = {{ctx->base_q(), ctx->delta_q(), ctx->q_total()},
                {ctx->base_qp(), ctx->delta_qp(), ctx->qp_total()}};
  for (const auto& lv : levels) {
    EXPECT_TRUE(lv.total == lv.base->total_modulus());
    ASSERT_EQ(lv.delta.size(), lv.base->size());
    const u128 delta = lv.total / t;
    for (std::size_t l = 0; l < lv.base->size(); ++l) {
      const u64 q = lv.base->modulus(l).value();
      EXPECT_EQ(lv.delta[l], static_cast<u64>(delta % q)) << l;
    }
  }
}

TEST(BfvContext, KeySwitchGadgetIsSpecialPrimeTimesCrtBasis) {
  // g_j = p·(Q/q_j)·[(Q/q_j)^{-1}]_{q_j} is p mod q_j, 0 mod every other
  // q_i and 0 mod p.
  auto ctx = BfvContext::create(BfvParams::paper());
  const auto& base = ctx->base_qp();
  const u64 p = ctx->params().special_prime;
  const auto& gadget = ctx->ks_gadget();
  ASSERT_EQ(gadget.size(), ctx->dnum());
  for (std::size_t j = 0; j < ctx->dnum(); ++j) {
    ASSERT_EQ(gadget[j].size(), base->size());
    for (std::size_t i = 0; i < ctx->dnum(); ++i) {
      const u64 q = base->modulus(i).value();
      EXPECT_EQ(gadget[j][i], i == j ? p % q : 0u) << j << "," << i;
    }
    EXPECT_EQ(gadget[j][ctx->dnum()], 0u) << j;
  }
}

TEST(Bfv, PlainNttMultiplyMatchesMultiplyPlain) {
  // The precomputed-operand path: transform a plaintext once, multiply an
  // NTT-form ciphertext by it, and land bit-exactly on multiply_plain.
  BfvFixture f(128);
  const std::size_t n = f.ctx->n();
  auto m = f.random_message(n);
  std::vector<u64> w(n / 2);
  for (auto& v : w) v = f.rng.uniform(256);
  const auto pt_w = f.encoder.encode_vector(w);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(m));
  const auto want = f.evaluator.multiply_plain(ct, pt_w);

  const auto w_ntt = f.evaluator.transform_plain_ntt(pt_w, f.ctx->base_qp());
  EXPECT_TRUE(w_ntt.is_ntt());
  Plaintext short_w;
  short_w.coeffs = w;  // the _into form accepts a plaintext shorter than N
  RnsPoly w_into(f.ctx->base_qp());
  f.evaluator.transform_plain_ntt_into(short_w, w_into);
  EXPECT_EQ(w_into.raw(), w_ntt.raw());

  auto got = ct;
  got.to_ntt();
  f.evaluator.multiply_plain_ntt_inplace(got, w_ntt);
  got.from_ntt();
  EXPECT_EQ(got.b.raw(), want.b.raw());
  EXPECT_EQ(got.a.raw(), want.a.raw());
  w.resize(n, 0);
  EXPECT_EQ(f.decryptor.decrypt(got).coeffs,
            negacyclic_mod_t(m, w, f.ctx->params().t));
  EXPECT_THROW(f.evaluator.multiply_plain_ntt_inplace(ct, w_ntt), CheckError);
}

TEST(Bfv, PlainLiftMatchesCenteredFormulaOnEveryResidue) {
  // transform_plain_ntt_into lifts without division; on every limb of
  // base_qp it must agree with from_signed(to_centered(c % t)) for every
  // residue c < t and for inputs at and far above t.
  const auto ctx = BfvContext::create(BfvParams::test(4096));
  const Evaluator eval(ctx);
  const Modulus& t = ctx->plain_modulus();
  const RnsBasePtr& base = ctx->base_qp();
  std::vector<u64> inputs;
  for (u64 c = 0; c < t.value(); ++c) inputs.push_back(c);
  for (u64 c : {t.value(), t.value() + 1, 2 * t.value() - 1, 2 * t.value(),
                u64{1} << 40, (u64{1} << 63) + 5, ~u64{0}}) {
    inputs.push_back(c);
  }
  RnsPoly out(base);
  for (std::size_t start = 0; start < inputs.size(); start += base->n()) {
    Plaintext pt;
    pt.coeffs.assign(
        inputs.begin() + start,
        inputs.begin() + std::min(inputs.size(), start + base->n()));
    eval.transform_plain_ntt_into(pt, out);
    ASSERT_TRUE(out.is_ntt());
    out.from_ntt();
    for (std::size_t l = 0; l < base->size(); ++l) {
      const Modulus& q = base->modulus(l);
      for (std::size_t i = 0; i < base->n(); ++i) {
        const u64 want =
            i < pt.n() ? q.from_signed(t.to_centered(pt.coeffs[i] % t.value()))
                       : 0;
        ASSERT_EQ(out.limb(l)[i], want) << "limb " << l << " input "
                                        << (i < pt.n() ? pt.coeffs[i] : 0);
      }
    }
  }
}

TEST(Bfv, RescaleIntoMatchesRescale) {
  BfvFixture f(64);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(f.random_message(64)));
  const auto want = f.evaluator.rescale(ct);
  Ciphertext out;
  out.b = RnsPoly(f.ctx->base_q());
  out.a = RnsPoly(f.ctx->base_q());
  f.evaluator.rescale_into(ct, out);
  EXPECT_EQ(out.b.raw(), want.b.raw());
  EXPECT_EQ(out.a.raw(), want.a.raw());
  EXPECT_THROW(f.evaluator.rescale_into(want, out), CheckError);
}

TEST(Bfv, HoistedGaloisDecryptsLikeApplyGalois) {
  // Digits decomposed once before the automorphism serve any Galois
  // element; the result differs in bits from apply_galois (digits are
  // permuted after the lift) but carries the same message and noise scale.
  BfvFixture f(64);
  auto m = f.random_message(f.ctx->n());
  auto ct_q =
      f.evaluator.rescale(f.encryptor.encrypt(f.encoder.encode_vector(m)));
  const std::vector<u64> ks{5, 2 * f.ctx->n() - 1};
  auto gk = f.keygen.make_galois_keys(0, ks);
  std::vector<RnsPoly> digits(f.ctx->dnum(), RnsPoly(f.ctx->base_qp()));
  f.evaluator.decompose_ntt_digits(ct_q.a, digits);
  for (u64 k : ks) {
    const auto direct = f.evaluator.apply_galois(ct_q, k, gk);
    const auto hoisted = f.evaluator.apply_galois_hoisted(ct_q, digits, k, gk);
    EXPECT_EQ(hoisted.base(), f.ctx->base_q());
    EXPECT_EQ(f.decryptor.decrypt(hoisted).coeffs,
              f.decryptor.decrypt(direct).coeffs)
        << k;
    EXPECT_LT(f.decryptor.noise_bits(hoisted),
              f.decryptor.noise_bits(direct) + 2.0)
        << k;
  }
  EXPECT_THROW(f.evaluator.apply_galois_hoisted(ct_q, digits, 3, gk),
               CheckError);
}

TEST(Bfv, KeySwitchMovesCiphertextToAnotherSecret) {
  // ct under s2; keyswitch_poly(ct.a) with a KSK from s2 to s1 gives
  // (b', a') with b' + a'·s1 ≈ ct.a·s2, so (ct.b + b', a') decrypts
  // under s1 to the same message.
  BfvFixture f(64);
  Rng rng2(99);
  KeyGenerator other(f.ctx, rng2);
  Encryptor enc2(f.ctx, nullptr, &other.secret_key(), rng2);
  Decryptor dec2(f.ctx, other.secret_key());
  auto m = f.random_message(f.ctx->n());
  auto ct =
      f.evaluator.rescale(enc2.encrypt_symmetric(f.encoder.encode_vector(m)));
  ASSERT_EQ(dec2.decrypt(ct).coeffs, m);
  EXPECT_NE(f.decryptor.decrypt(ct).coeffs, m);

  const auto ksk = f.keygen.make_keyswitch_key(other.secret_key().s_ntt);
  auto [b, a] = keyswitch_poly(f.evaluator, ct.a, ksk);
  Ciphertext switched;
  switched.b = std::move(b);
  switched.b.add_inplace(ct.b);
  switched.a = std::move(a);
  EXPECT_EQ(f.decryptor.decrypt(switched).coeffs, m);
  EXPECT_NE(dec2.decrypt(switched).coeffs, m);
  EXPECT_GT(f.decryptor.noise_budget_bits(switched), 10.0);
}

TEST(CoeffEncoder, RowIntoMatchesRowAndDecodeReadsCoefficients) {
  BfvFixture f(64);
  const u64 t = f.ctx->params().t;
  auto row = f.random_message(40);
  const u64 scale = 12345;
  const auto want = f.encoder.encode_matrix_row(row, scale);
  Plaintext pt;
  pt.coeffs.assign(3, 7);  // stale contents are overwritten and resized
  f.encoder.encode_matrix_row_into(row.data(), row.size(), scale, pt);
  EXPECT_EQ(pt.coeffs, want.coeffs);
  Modulus mt(t);
  EXPECT_EQ(f.encoder.decode_coeff(pt, 0), mt.mul(row[0], scale));
  EXPECT_EQ(f.encoder.decode_coeff(pt, f.ctx->n() - 1),
            mt.negate(mt.mul(row[1], scale)));
  EXPECT_EQ(f.encoder.decode_coeff(pt, 1), 0u);  // beyond the row's reach
  EXPECT_THROW(f.encoder.decode_coeff(pt, f.ctx->n()), CheckError);
}

// --- parameterized over ring dimension and plaintext modulus ---

struct BfvParamCase {
  std::size_t n;
  u64 t;
};

class BfvParamTest : public ::testing::TestWithParam<BfvParamCase> {};

TEST_P(BfvParamTest, EndToEndDotProduct) {
  const auto [n, t] = GetParam();
  BfvFixture f(n, t, /*seed=*/n + t);
  auto v = f.random_message(n);
  auto row = f.random_message(n);
  auto ct = f.encryptor.encrypt(f.encoder.encode_vector(v));
  auto prod =
      f.evaluator.multiply_plain(ct, f.encoder.encode_matrix_row(row, 1));
  auto rescaled = f.evaluator.rescale(prod);
  Modulus mt(t);
  u64 expect = 0;
  for (std::size_t j = 0; j < n; ++j)
    expect = mt.add(expect, mt.mul(row[j] % t, v[j] % t));
  EXPECT_EQ(f.decryptor.decrypt_coeff(rescaled, 0), expect);
  EXPECT_GT(f.decryptor.noise_budget_bits(rescaled), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BfvParamTest,
    ::testing::Values(BfvParamCase{64, 65537}, BfvParamCase{256, 65537},
                      BfvParamCase{1024, 65537}, BfvParamCase{4096, 65537},
                      BfvParamCase{256, 40961}, BfvParamCase{256, 12289},
                      BfvParamCase{64, 257}, BfvParamCase{4096, 786433}));

TEST(BatchEncoder, EncodeDecodeRoundTrip) {
  BfvFixture f(256);
  BatchEncoder be(f.ctx);
  auto slots = f.random_message(f.ctx->n());
  auto pt = be.encode(slots);
  EXPECT_EQ(be.decode(pt), slots);
}

TEST(BatchEncoder, EncryptedSlotwiseProduct) {
  BfvFixture f(256);
  BatchEncoder be(f.ctx);
  auto s1 = f.random_message(f.ctx->n());
  std::vector<u64> s2(f.ctx->n());
  for (auto& v : s2) v = f.rng.uniform(512);
  auto ct = f.encryptor.encrypt(be.encode(s1));
  auto prod = f.evaluator.multiply_plain(ct, be.encode(s2));
  auto slots = be.decode(f.decryptor.decrypt(f.evaluator.rescale(prod)));
  Modulus mt(f.ctx->params().t);
  for (std::size_t i = 0; i < f.ctx->n(); ++i) {
    EXPECT_EQ(slots[i], mt.mul(s1[i], s2[i]));
  }
}

TEST(BatchEncoder, RotationRotatesRows) {
  BfvFixture f(64);
  BatchEncoder be(f.ctx);
  const std::size_t n = f.ctx->n();
  auto slots = f.random_message(n);
  auto ct = f.evaluator.rescale(f.encryptor.encrypt(be.encode(slots)));
  const std::size_t r = 3;
  auto gk = f.keygen.make_galois_keys(0, {be.rotation_galois_element(r)});
  auto rot = f.evaluator.rotate_rows(ct, r, gk);
  auto out = be.decode(f.decryptor.decrypt(rot));
  const std::size_t half = n / 2;
  for (std::size_t j = 0; j < half; ++j) {
    EXPECT_EQ(out[j], slots[(j + r) % half]) << j;
    EXPECT_EQ(out[half + j], slots[half + (j + r) % half]) << j;
  }
}

TEST(BatchEncoder, RowSwap) {
  BfvFixture f(64);
  BatchEncoder be(f.ctx);
  const std::size_t n = f.ctx->n();
  auto slots = f.random_message(n);
  auto ct = f.evaluator.rescale(f.encryptor.encrypt(be.encode(slots)));
  const u64 k = be.row_swap_galois_element();
  auto gk = f.keygen.make_galois_keys(0, {k});
  auto swapped = f.evaluator.apply_galois(ct, k, gk);
  auto out = be.decode(f.decryptor.decrypt(swapped));
  const std::size_t half = n / 2;
  for (std::size_t j = 0; j < half; ++j) {
    EXPECT_EQ(out[j], slots[half + j]);
    EXPECT_EQ(out[half + j], slots[j]);
  }
}

// The premise of BSGS MultPoly in slot order: an NTT-domain rotation by
// r (Galois element 3^r) is the cyclic shift by r within each row of the
// context's slot map, and 2N - 1 exchanges the two rows. A pure routing
// property of the ring, so it holds at every N.
TEST(BfvContext, NttRotationsAreRowShiftsInSlotOrder) {
  for (std::size_t n : {64, 256, 4096, 8192}) {
    SCOPED_TRACE(n);
    const auto ctx = BfvContext::create(BfvParams::test(n));
    const std::vector<u64>& slot = ctx->slot_to_index();
    const std::size_t half = n / 2;
    ASSERT_EQ(slot.size(), n);
    std::vector<bool> seen(n, false);  // a permutation of the NTT indices
    for (u64 i : slot) {
      ASSERT_LT(i, n);
      ASSERT_FALSE(seen[i]) << i;
      seen[i] = true;
    }
    for (std::size_t r : {std::size_t{1}, std::size_t{2}, std::size_t{31},
                          n / 8, half - 1}) {
      SCOPED_TRACE(r);
      const AutomorphTable table =
          make_automorph_table_ntt(n, ctx->rotation_galois_element(r));
      for (std::size_t row = 0; row < 2; ++row) {
        for (std::size_t j = 0; j < half; ++j) {
          ASSERT_EQ(table.src_idx[slot[row * half + j]],
                    slot[row * half + (j + r) % half])
              << "row " << row << " slot " << j;
          ASSERT_EQ(table.flip[slot[row * half + j]], 0u);
        }
      }
    }
    const AutomorphTable swap =
        make_automorph_table_ntt(n, ctx->row_swap_galois_element());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(swap.src_idx[slot[j]], slot[(j + half) % n]) << j;
    }
  }
}

TEST(BatchEncoder, RequiresCompatibleT) {
  // t = 257: 2N = 128 does not divide 256? It does for n=64... use n=256:
  // 2N = 512 does not divide 256.
  auto ctx = BfvContext::create(BfvParams::test(256, 257));
  EXPECT_THROW(BatchEncoder be(ctx), CheckError);
}

}  // namespace
}  // namespace cham
