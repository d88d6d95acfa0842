// A/B-times the matrix-vector algorithms against each other per shape:
// the naive diagonal method (fresh key-switch per rotation, NTT round
// trip per diagonal product), the double-hoisted BSGS engine (one shared
// digit decomposition, baby rotations fused into MultPoly over base_qp,
// one mod-down per request), its frozen-diagonal steady state
// (pre-encoded matrix) single-shot and as one batched sweep of 8
// requests on one lane (the serving runtime's hot path), and the paper's
// coefficient-encoding engine. Every run is self-checked bit-exact
// against the plaintext reference (the batched arm against 8 single-shot
// frozen products), and the 1024x4096 shape gates the headline hoisting
// claim (BSGS >= 1.5x over the naive diagonal).
//
// Usage: bench_bsgs [MxN,MxN,...] [threads]
//
// Runs at N=8192 (the 4096-column shapes need N/2 = 4096 slots — the
// paper fixture's N=4096 ring is one dimension too small).
#include <cstdio>
#include <limits>

#include "bench_util.h"
#include "hmvp/bsgs.h"
#include "hmvp/hmvp.h"
#include "hmvp/mvp.h"
#include "nt/bitops.h"
#include "reference/reference.h"

using namespace cham;
using namespace cham::bench;

namespace {

// N=8192 fixture: same paper moduli, doubled ring so 4096-column
// diagonals fit in the slot rows.
struct BsgsBenchFixture {
  explicit BsgsBenchFixture(u64 seed = 2026)
      : rng(seed),
        ctx(BfvContext::create(BfvParams::test(8192))),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        encryptor(ctx, &pk, nullptr, rng),
        decryptor(ctx, keygen.secret_key()) {}

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

std::vector<std::pair<std::size_t, std::size_t>> parse_shapes(
    const char* arg) {
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  unsigned long m = 0, n = 0;
  int consumed = 0;
  while (std::sscanf(arg, "%lux%lu%n", &m, &n, &consumed) == 2) {
    shapes.emplace_back(m, n);
    arg += consumed;
    if (*arg == ',') ++arg;
  }
  return shapes;
}

int pack_levels(std::size_t rows, std::size_t ring_n) {
  std::size_t cap = std::min(rows, ring_n);
  int lv = 0;
  while ((std::size_t{1} << lv) < cap) ++lv;
  return lv;
}

bool same_bits(const Ciphertext& x, const Ciphertext& y) {
  return x.is_ntt() == y.is_ntt() && x.b.raw() == y.b.raw() &&
         x.a.raw() == y.a.raw();
}

// Best-of-`reps` wall clock (the engines are deterministic, so the
// minimum is the least-perturbed run).
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== HMVP algorithm crossover: naive diagonal vs hoisted "
               "BSGS vs coefficient ===\n\n";
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {64, 256}, {256, 1024}, {1024, 2048}, {1024, 4096}, {2048, 4096}};
  if (argc > 1) shapes = parse_shapes(argv[1]);
  int threads = argc > 2 ? std::atoi(argv[2]) : 1;
  if (threads <= 0) threads = 1;
  bench_check(!shapes.empty(), "shape list parses to at least one MxN");

  BsgsBenchFixture f;
  const std::size_t n_ring = f.ctx->n();
  const u64 t = f.ctx->params().t;

  TablePrinter table({"shape", "naive diag", "hoisted BSGS", "frozen BSGS",
                      "batched/req", "coefficient", "BSGS vs naive",
                      "BSGS vs coeff", "chooser"});
  for (const auto& [m, n] : shapes) {
    std::cout << "--- " << m << "x" << n << " (threads=" << threads
              << ") ---\n";
    const std::string shape =
        std::to_string(m) + "x" + std::to_string(n);

    // One Galois-key set per shape, scoped to this iteration so the
    // frozen rotation/pack operands in the EvkManager registry are
    // released before the next (bigger) shape starts.
    BsgsHmvp probe(f.ctx, nullptr);
    GaloisKeys gk = f.keygen.make_galois_keys(
        pack_levels(m, n_ring), probe.required_galois_elements(n));
    HmvpEngine coeff(f.ctx, &gk);
    DiagonalHmvp diag(f.ctx, &gk);
    BsgsHmvp bsgs(f.ctx, &gk);

    GeneratedMatrix a(m, n, t, m * 31 + n);
    const auto v = f.random_vector(n);
    const auto expect = HmvpEngine::reference(a, v, t);

    // Diagonal and BSGS share the same input convention (v tiled across
    // the slot rows), so one ciphertext feeds both.
    const Ciphertext ct_diag = bsgs.encrypt_vector(v, f.encryptor);
    const auto ct_chunks = coeff.encrypt_vector(v, f.encryptor);

    // Warmup runs double as the correctness self-check and freeze the
    // key-switch operands, so the timed runs below see the steady state.
    BaselineStats bsgs_st;
    bench_check(bsgs.decrypt_result(diag.multiply(a, ct_diag), m,
                                    f.decryptor) == expect,
                "naive diagonal (" + shape + ") == plaintext reference");
    bench_check(bsgs.decrypt_result(
                    bsgs.multiply(a, ct_diag, &bsgs_st, threads), m,
                    f.decryptor) == expect,
                "hoisted BSGS (" + shape + ") == plaintext reference");
    bench_check(coeff.decrypt_result(coeff.multiply(a, ct_chunks, threads),
                                     f.decryptor) == expect,
                "coefficient (" + shape + ") == plaintext reference");

    // Frozen-diagonal steady state: the serving runtime's hot path, where
    // each matrix version is frozen once — the streaming engine minus the
    // per-call diagonal encode.
    const BsgsEncodedMatrix enc = bsgs.encode_matrix(a, threads);
    bench_check(bsgs.decrypt_result(
                    bsgs.multiply_encoded(enc, ct_diag, nullptr, threads), m,
                    f.decryptor) == expect,
                "frozen-diagonal BSGS (" + shape + ") == plaintext reference");

    // Batched frozen sweep on one lane: the serving runtime's hot path,
    // where one multiply_encoded_batch fetches each diagonal tile once
    // for all kBatch requests. Warmed and checked against single shots.
    constexpr std::size_t kBatch = 8;
    std::vector<Ciphertext> batch_cts;
    std::vector<Ciphertext> single;
    for (std::size_t r = 0; r < kBatch; ++r) {
      batch_cts.push_back(
          bsgs.encrypt_vector(f.random_vector(n), f.encryptor));
      single.push_back(bsgs.multiply_encoded(enc, batch_cts.back()));
    }
    std::vector<MvpRequest> batch(kBatch);
    for (std::size_t r = 0; r < kBatch; ++r) {
      batch[r].ct_v = {&batch_cts[r], 1};
    }

    const int reps = n <= 1024 ? 3 : 1;
    const double naive_s =
        time_best(reps, [&] { diag.multiply(a, ct_diag); });
    const double bsgs_s = time_best(
        reps, [&] { bsgs.multiply(a, ct_diag, nullptr, threads); });
    const double enc_s = time_best(
        reps, [&] { bsgs.multiply_encoded(enc, ct_diag, nullptr, threads); });
    std::vector<Ciphertext> batched;
    const double batch_s =
        time_best(reps, [&] {
          batched = bsgs.multiply_encoded_batch(enc, batch, nullptr, 1);
        }) /
        kBatch;
    bool batch_exact = batched.size() == kBatch;
    for (std::size_t r = 0; batch_exact && r < kBatch; ++r) {
      batch_exact = same_bits(batched[r], single[r]);
    }
    bench_check(batch_exact, "batched frozen BSGS (" + shape +
                                 ") == 8 single-shot frozen products");
    const double coeff_s =
        time_best(reps, [&] { coeff.multiply(a, ct_chunks, threads); });

    const double vs_naive = naive_s / bsgs_s;
    const double vs_coeff = coeff_s / bsgs_s;
    const MvpAlgorithm pick = choose_mvp_algorithm(m, n, n_ring);
    table.add_row({shape, fmt_seconds(naive_s), fmt_seconds(bsgs_s),
                   fmt_seconds(enc_s), fmt_seconds(batch_s),
                   fmt_seconds(coeff_s),
                   fmt_speedup(vs_naive), fmt_speedup(vs_coeff),
                   mvp_algorithm_name(pick)});

    // The headline hoisting claim: at the paper's tall 1024x4096 shape
    // the shared-decomposition BSGS must beat the naive diagonal by at
    // least 1.5x (it pays 1 NTT round trip per rotation instead of one
    // per diagonal product).
    if (m == 1024 && n == 4096) {
      bench_check(vs_naive >= 1.5,
                  "hoisted BSGS >= 1.5x over naive diagonal at 1024x4096 "
                  "(measured " + fmt_speedup(vs_naive) + ")");
    }
    // The op counts are deterministic per shape: the hybrid plan sweeps
    // D = min(next_pow2(m), n) extended diagonals with
    // b = min(baby_steps(n), D) baby steps and D/b giant steps, then folds
    // log2(n/D) times. With b >= 2 it fills both slot rows: h = b/2 terms
    // per giant step (h - 1 hoisted babies), two diagonals per plaintext
    // product, and three more rotations (rot_h, the row swap and the
    // swap-fold). With b = 1 row 1 stays empty.
    std::size_t d = 1;
    while (d < m) d <<= 1;
    d = std::min(d, n);
    const std::size_t b = std::min(BsgsHmvp::baby_steps(n), d);
    const std::size_t slot_rows = b >= 2 ? 2 : 1;
    const std::size_t h = b / slot_rows;
    const std::size_t folds = static_cast<std::size_t>(log2_exact(n / d));
    bench_check(bsgs_st.rotations ==
                    (h - 1) + (d / b - 1) + folds + (slot_rows == 2 ? 3 : 0),
                "BSGS (" + shape + ") rotates (h-1) + (D/b-1) + log2(n/D) "
                "+ 3 times, h = b/2");
    bench_check(bsgs_st.rotations_hoisted == h - 1,
                "BSGS (" + shape + ") hoists every baby step");
    bench_check(bsgs_st.plain_mults == d / slot_rows,
                "BSGS (" + shape + ") multiplies one plaintext per two "
                "padded rows");

    // Wall clock per algorithm is noisy; the hoisted-vs-naive ratio is
    // same-process, so noise mostly cancels, and it gates losing the
    // hoisting win; the rotation and product counts are deterministic
    // per shape.
    const Gate time = lower_is_better(0.75);
    BenchLine("bsgs/bsgs_vs_naive/" + shape + "@t" + std::to_string(threads))
        .gated("naive_s", naive_s, time)
        .gated("bsgs_s", bsgs_s, time)
        .gated("bsgs_enc_s", enc_s, time)
        .gated("bsgs_batch_s", batch_s, time)
        .gated("coeff_s", coeff_s, time)
        .gated("speedup_vs_naive", vs_naive, higher_is_better(0.4))
        .gated("rotations", bsgs_st.rotations, kExact)
        .gated("rotations_hoisted", bsgs_st.rotations_hoisted, kExact)
        .gated("plain_mults", bsgs_st.plain_mults, kExact)
        .field("chosen", mvp_algorithm_name(pick))
        .emit();
  }

  std::cout << "\n";
  table.print();
  std::cout << "\nThe chooser column is choose_mvp_algorithm()'s pick "
               "between BSGS and the\ncoefficient engine (the naive "
               "diagonal is never picked — BSGS computes the\nsame "
               "decomposition strictly faster).\n";

  BenchLine("bsgs/summary/all@t" + std::to_string(threads))
      .gated("peak_rss_mb", peak_rss_mb(), kPeakRss)
      .emit();
  emit_cham_metrics("bench_bsgs", true);
  return bench_exit_code();
}
