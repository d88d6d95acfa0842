// Summarises the paper's three headline claims against this
// reproduction's measurements/models:
//   * HMVP:   up to 1800x vs the CPU baseline (Sec. V-B3)
//   * LR:     2x–36x end-to-end (Sec. V-B3)
//   * Beaver: 49x–144x vs the Delphi baseline (Sec. V-B4)
#include "bench_util.h"

using namespace cham;
using namespace cham::bench;

int main() {
  std::cout << "=== Headline speed-ups (paper Sec. V) ===\n\n";
  PaperFixture f;
  CpuHmvpCost cpu(f);
  sim::PipelineConfig cham;
  const std::size_t n_ring = f.ctx->n();
  const u64 t = f.ctx->params().t;

  TablePrinter table({"Benchmark", "Shape", "Baseline", "CHAM", "Speed-up",
                      "Paper"});
  // Machine-readable mirror of each row, scraped by CI ("CHAM-BENCH {...}").
  // cham_s comes from the device model, which is deterministic, so it is
  // gated tightly; the speed-up's baseline side is measured wall clock,
  // so it is only an order-of-magnitude sanity floor.
  auto emit_json = [](const std::string& benchmark, const std::string& shape,
                      double baseline_s, double cham_s) {
    BenchLine("headline/" + benchmark + "/" + shape)
        .field("baseline_s", baseline_s)
        .gated("cham_s", cham_s, lower_is_better(0.1))
        .gated("speedup", baseline_s / cham_s, higher_is_better(0.9))
        .emit();
  };

  // Self-check: the software pipeline every baseline below is derived
  // from must produce correct results at a spot-check shape.
  {
    const std::size_t m = 32;
    GeneratedMatrix a(m, n_ring, t, 2023);
    auto v = f.random_vector(n_ring);
    auto ct_v = f.engine.encrypt_vector(v, f.encryptor);
    auto res = f.engine.multiply(a, ct_v);
    bench_check(f.engine.decrypt_result(res, f.decryptor) ==
                    HmvpEngine::reference(a, v, t),
                "HMVP spot-check == plaintext reference");
  }

  // 1. HMVP vs software CPU baseline, largest LR shape.
  {
    const double cpu_s = cpu.estimate(8192, 8192, n_ring);
    const double dev_s = sim::hmvp_seconds(cham, 8192, 8192);
    table.add_row({"HMVP (matvec)", "8192x8192", fmt_seconds(cpu_s),
                   fmt_seconds(dev_s), fmt_speedup(cpu_s / dev_s),
                   "30x-1800x"});
    emit_json("hmvp", "8192x8192", cpu_s, dev_s);
  }

  // 2. HeteroLR end-to-end (all four steps) on the largest dataset.
  {
    // Step costs as in bench_fig7ab (B/FV CPU vs B/FV+CHAM).
    CoeffEncoder encoder(f.ctx);
    auto msg = f.random_vector(n_ring);
    Timer timer;
    auto ct = f.encryptor.encrypt(encoder.encode_vector(msg));
    const double enc_chunk = timer.seconds();
    const double chunks = 2, groups = 2;  // 8192 samples & features
    const double host = chunks * enc_chunk * 2 + groups * enc_chunk;
    const double cpu_total = host + cpu.estimate(8192, 8192, n_ring);
    const double dev_total = host + sim::hmvp_seconds(cham, 8192, 8192);
    table.add_row({"HeteroLR (end-to-end)", "8192x8192",
                   fmt_seconds(cpu_total), fmt_seconds(dev_total),
                   fmt_speedup(cpu_total / dev_total), "2x-36x"});
    emit_json("heterolr", "8192x8192", cpu_total, dev_total);
  }

  // 3. Beaver triples vs a batch-encoded (diagonal/BSGS) Delphi-style
  // baseline — the stronger of the two software baselines in
  // bench_fig7c (the paper's 49x-144x sits between the two).
  {
    CoeffEncoder encoder(f.ctx);
    auto msg = f.random_vector(n_ring);
    auto ct = f.encryptor.encrypt(encoder.encode_vector(msg));
    auto ct_ntt = ct;
    ct_ntt.to_ntt();
    auto pt = f.evaluator.transform_plain_ntt(encoder.encode_vector(msg),
                                              f.ctx->base_qp());
    Timer timer;
    for (int i = 0; i < 32; ++i) {
      Ciphertext prod = ct_ntt;
      f.evaluator.multiply_plain_ntt_inplace(prod, pt);
    }
    const double mult_sec = timer.seconds() / 32;
    auto ct_q = f.evaluator.rescale(ct);
    timer.reset();
    for (int i = 0; i < 8; ++i) {
      auto r = f.evaluator.apply_galois(ct_q, 3, f.gk);
    }
    const double rot_sec = timer.seconds() / 8;
    const std::size_t half = n_ring / 2;
    const std::size_t b = BsgsHmvp::baby_steps(half);
    const double block =
        half * mult_sec + ((b - 1) + (half / b - 1)) * rot_sec;
    const double base_s = 4.0 * block;  // 4096x4096 = 2x2 blocks of 2048
    const double dev_s = sim::hmvp_seconds(cham, 4096, 4096);
    table.add_row({"Beaver triples", "4096x4096", fmt_seconds(base_s),
                   fmt_seconds(dev_s), fmt_speedup(base_s / dev_s),
                   "49x-144x"});
    emit_json("beaver", "4096x4096", base_s, dev_s);
  }
  // 4. Zero-allocation steady state, with the process's peak RSS.
  steady_state_hmvp(f, 32, 77);

  table.print();
  std::cout << "\nBaselines run on this machine's software implementation; "
               "CHAM numbers come from the 300 MHz device model. Shapes of "
               "the speed-ups (growth with matrix size, ordering of "
               "backends) reproduce the paper; absolute ratios depend on "
               "the CPU baseline's implementation quality (see "
               "EXPERIMENTS.md).\n";
  emit_cham_metrics("bench_headline", true);
  return bench_exit_code();
}
