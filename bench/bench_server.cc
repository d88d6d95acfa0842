// Load test of the HMVP serving runtime: N concurrent synthetic clients
// fire seed-expanded requests at a batching HmvpServer and the bench
// publishes sustained req/s, batch occupancy and p50/p95/p99 latency —
// the CHAM-BENCH line the server-load CI job gates.
//
// Usage: bench_server [clients] [requests_per_client] [max_batch]
//   defaults: 8 clients x 4 requests, batches of up to 8.
//
// Self-checks (bench_exit_code gates them):
//  * every response decrypts to the plaintext reference A·v mod t;
//  * sampled responses are bit-exact with a local single-shot
//    evaluation of the same request ciphertexts (batched sweep ==
//    single-shot path);
//  * at least one sweep served more than one request (occupancy > 1);
//  * the seed-expanded request wire format stays under 0.6x the full
//    ciphertext serialization;
//  * admission control rejected nothing at this load.
//
// A second phase A/B-tests the stamped algorithms at the BSGS crossover
// shape (1024x4096, N=8192 ring): the same open-loop load runs once with
// the natural kBsgs stamp and once force-pinned to the coefficient
// engine, and the batched-BSGS arm must sustain >= 1.5x the req/s of the
// coefficient arm. Every BSGS response is bit-exact with a single-shot
// evaluation (streaming BsgsHmvp::multiply for the first, the frozen
// encoded path for the rest), and the server must freeze the diagonal
// set exactly once for the whole arm.
#include <algorithm>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "hmvp/bsgs.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/server.h"

namespace cham {
namespace {

using bench::bench_check;
using bench::BenchLine;

// req/s on a shared host: gates a sustained-throughput collapse.
constexpr bench::Gate kThroughput = bench::higher_is_better(0.6);
// p50/p95/p99 ms: scheduler jitter is brutal, so this gates a >2x blow-up.
constexpr bench::Gate kLatency = bench::lower_is_better(1.0);

constexpr std::size_t kRows = 128;
constexpr std::size_t kCols = 4096;
constexpr int kPackLevels = 7;  // log2(next_pow2(kRows))

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct ClientStats {
  std::vector<double> latencies_ms;
  int ok = 0;
  int failed = 0;
};

// --- algorithm A/B arm ----------------------------------------------------

constexpr std::size_t kAbRows = 1024;
constexpr std::size_t kAbCols = 4096;
constexpr int kAbPackLevels = 10;  // log2(kAbRows), coefficient arm only

struct AbArm {
  double req_s = 0.0;
  serve::HmvpServer::Counters counters;
};

// One arm of the A/B: serve `clients` x `per_client` open-loop requests
// against a 1024x4096 matrix, stamped either naturally (kBsgs) or pinned
// via ServerConfig::force_algorithm. Client setup (key generation, hello)
// and the correctness pass stay outside the timed window so the two arms
// compare pure serving throughput. `oracle` (BSGS arm only) carries the
// independently frozen diagonals for the per-request bit-exactness check.
AbArm run_ab_arm(const BfvContextPtr& ctx, const GeneratedMatrix& mat,
                 std::optional<MvpAlgorithm> force, int clients,
                 int per_client, int max_batch,
                 const BsgsEncodedMatrix* oracle) {
  using namespace serve;
  const u64 t = ctx->params().t;
  const std::string arm =
      force ? "coefficient-forced" : "bsgs-stamped";

  ServerConfig cfg;
  cfg.max_batch = static_cast<std::size_t>(max_batch);
  cfg.batch_window = std::chrono::milliseconds(1);
  cfg.threads = static_cast<int>(ThreadPool::global().max_lanes());
  cfg.force_algorithm = force;
  HmvpServer server(ctx, cfg);
  const std::uint32_t mid = server.add_matrix(mat);
  const MvpAlgorithm algo = server.matrix_algorithm(mid);
  bench_check(algo == force.value_or(MvpAlgorithm::kBsgs),
              arm + " arm stamps the expected algorithm");
  server.start();

  // Untimed setup: key material and session handshakes. The BSGS arm
  // uploads the baby/giant rotation elements instead of pack keys.
  const bool bsgs = algo == MvpAlgorithm::kBsgs;
  std::vector<u64> extra;
  if (bsgs) {
    extra = BsgsHmvp(ctx, nullptr).required_galois_elements(kAbCols);
  }
  std::vector<std::unique_ptr<ServeClient>> cs;
  for (int ci = 0; ci < clients; ++ci) {
    cs.push_back(std::make_unique<ServeClient>(
        ctx, server.connect(), "ab-" + std::to_string(ci),
        bsgs ? 0 : kAbPackLevels, 20'000 + ci, WireFormat::kPacked, extra));
    cs.back()->hello();
  }

  // Request vectors, sent ciphertexts (both shapes are one chunk at
  // N=8192) and responses, kept for the untimed verification below.
  std::vector<std::vector<std::vector<u64>>> vs(clients);
  std::vector<std::vector<Ciphertext>> sent(clients);
  std::vector<std::vector<Response>> got(clients);

  Timer wall;
  std::vector<std::thread> threads;
  for (int ci = 0; ci < clients; ++ci) {
    threads.emplace_back([&, ci] {
      Rng vr(91 * ci + 7);
      for (int k = 0; k < per_client; ++k) {
        std::vector<u64> v(kAbCols);
        for (auto& x : v) x = vr.uniform(t);
        vs[ci].push_back(std::move(v));
        std::vector<Ciphertext> out;
        cs[ci]->submit(mid, vs[ci].back(), algo, &out);
        sent[ci].push_back(std::move(out[0]));
      }
      for (int k = 0; k < per_client; ++k) {
        got[ci].push_back(cs[ci]->await());
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = wall.seconds();
  server.stop();

  // Correctness pass: every response decrypts to the plaintext
  // reference; BSGS responses are additionally bit-exact with a local
  // single-shot evaluation of the same request ciphertext.
  for (int ci = 0; ci < clients; ++ci) {
    std::unique_ptr<BsgsHmvp> single;
    if (bsgs) {
      single = std::make_unique<BsgsHmvp>(ctx, &cs[ci]->galois_keys());
    }
    for (int k = 0; k < per_client; ++k) {
      const Response& r = got[ci][k];
      const std::size_t idx = r.request_id - 1;
      const bool ok =
          r.status == Status::kOk && idx < vs[ci].size() &&
          cs[ci]->decrypt(r) == HmvpEngine::reference(mat, vs[ci][idx], t);
      bench_check(ok, arm + " response matches plaintext reference");
      if (!bsgs || !ok) continue;
      if (!bench_check(r.pack_count == 0 && r.packed.size() == 1,
                       "bsgs response carries the one-ct slot layout")) {
        continue;
      }
      // The first response replays the full streaming single-shot path
      // (independent of the frozen-diagonal code); the rest use the
      // encoded oracle, itself frozen outside the server's cache.
      Ciphertext want =
          (ci == 0 && idx == 0)
              ? single->multiply(mat, sent[ci][idx], nullptr, cfg.threads)
              : single->multiply_encoded(*oracle, sent[ci][idx], nullptr,
                                         cfg.threads);
      ByteWriter w1, w2;
      save_ciphertext(want, WireFormat::kRaw, w1);
      save_ciphertext(r.packed[0], WireFormat::kRaw, w2);
      bench_check(w1.bytes() == w2.bytes(),
                  "served bsgs response bit-exact with single-shot BsgsHmvp");
    }
  }

  AbArm out;
  out.req_s = static_cast<double>(clients * per_client) / wall_s;
  out.counters = server.counters();
  return out;
}

}  // namespace

int run(int clients, int per_client, int max_batch) {
  using namespace serve;
  std::cout << "CHAM bench: serving runtime load test (" << clients
            << " clients x " << per_client << " requests, max batch "
            << max_batch << ")\n\n";

  auto ctx = BfvContext::create(BfvParams::paper());
  const u64 t = ctx->params().t;
  Rng rng(2023);
  GeneratedMatrix mat(kRows, kCols, t, 99);

  ServerConfig cfg;
  cfg.max_batch = static_cast<std::size_t>(max_batch);
  cfg.batch_window = std::chrono::milliseconds(1);
  cfg.threads = static_cast<int>(ThreadPool::global().max_lanes());
  HmvpServer server(ctx, cfg);
  const std::uint32_t mid = server.add_matrix(mat);
  server.start();

  // Wire-format economics, measured on a real request ciphertext.
  double seeded_ratio = 0.0;
  {
    ServeClient probe(ctx, server.connect(), "probe", kPackLevels, 4242);
    Rng vr(5);
    std::vector<u64> v(kCols);
    for (auto& x : v) x = vr.uniform(t);
    probe.hello();
    std::vector<Ciphertext> sent;
    probe.submit(mid, v, &sent);
    // Ratio of what the wire carried (seed + b) to the full form.
    std::size_t full = 0, seeded = 0;
    for (const auto& ct : sent) {
      full += ciphertext_wire_bytes(ct, WireFormat::kPacked);
      seeded += ciphertext_seeded_wire_bytes(ct, 0, WireFormat::kPacked);
    }
    seeded_ratio = static_cast<double>(seeded) / static_cast<double>(full);
    Response r = probe.await();
    bench_check(r.status == Status::kOk, "probe request served");
    bench_check(probe.decrypt(r) == HmvpEngine::reference(mat, v, t),
                "probe result matches plaintext reference");
    // Bit-exactness oracle: the served packed ciphertexts must equal a
    // local single-shot evaluation of the same request ciphertexts.
    HmvpResult local = probe.engine().multiply(mat, sent, cfg.threads);
    bool exact = local.packed.size() == r.packed.size();
    for (std::size_t g = 0; exact && g < r.packed.size(); ++g) {
      ByteWriter w1, w2;
      save_ciphertext(local.packed[g], WireFormat::kRaw, w1);
      save_ciphertext(r.packed[g], WireFormat::kRaw, w2);
      exact = w1.bytes() == w2.bytes();
    }
    bench_check(exact, "served response bit-exact with single-shot hmvp");
    probe.goodbye();
  }

  // The measured load: every client submits its whole window up front
  // (open loop), so the queue holds cross-session same-matrix requests
  // and the server can coalesce them into batched sweeps.
  std::vector<ClientStats> stats(clients);
  Timer wall;
  std::vector<std::thread> threads;
  for (int ci = 0; ci < clients; ++ci) {
    threads.emplace_back([&, ci] {
      ServeClient c(ctx, server.connect(), "bench-" + std::to_string(ci),
                    kPackLevels, 10'000 + ci);
      c.hello();
      std::vector<std::vector<u64>> vs;
      std::vector<std::uint64_t> t0(per_client + 1, 0);
      Rng vr(77 * ci + 1);
      for (int k = 0; k < per_client; ++k) {
        std::vector<u64> v(kCols);
        for (auto& x : v) x = vr.uniform(t);
        vs.push_back(std::move(v));
        const u64 rid = c.submit(mid, vs.back());
        t0[rid] = obs::TraceRecorder::now_ns();
      }
      for (int k = 0; k < per_client; ++k) {
        Response r = c.await();
        const double ms =
            static_cast<double>(obs::TraceRecorder::now_ns() -
                                t0[r.request_id]) /
            1e6;
        const std::size_t idx = r.request_id - 1;
        if (r.status == Status::kOk && idx < vs.size() &&
            c.decrypt(r) == HmvpEngine::reference(mat, vs[idx], t)) {
          stats[ci].ok++;
          stats[ci].latencies_ms.push_back(ms);
        } else {
          stats[ci].failed++;
        }
      }
      c.goodbye();
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = wall.seconds();
  server.stop();

  std::vector<double> lat;
  int ok = 0, failed = 0;
  for (const auto& s : stats) {
    ok += s.ok;
    failed += s.failed;
    lat.insert(lat.end(), s.latencies_ms.begin(), s.latencies_ms.end());
  }
  const auto counters = server.counters();
  const double req_s = static_cast<double>(ok) / wall_s;
  const double p50 = percentile(lat, 0.50);
  const double p95 = percentile(lat, 0.95);
  const double p99 = percentile(lat, 0.99);

  bench_check(failed == 0 && ok == clients * per_client,
              "every load-test response ok and correct");
  bench_check(counters.batch_occupancy > 1.0,
              "request coalescing observed (batch occupancy > 1)");
  bench_check(seeded_ratio < 0.6,
              "seed-expanded requests under 0.6x full serialization");
  bench_check(counters.rejected == 0, "no admission rejections at this load");

  TablePrinter table({"metric", "value"});
  table.add_row({"sustained req/s", TablePrinter::num(req_s, 2)});
  table.add_row({"p50 latency", bench::fmt_seconds(p50 / 1e3)});
  table.add_row({"p95 latency", bench::fmt_seconds(p95 / 1e3)});
  table.add_row({"p99 latency", bench::fmt_seconds(p99 / 1e3)});
  table.add_row({"batch occupancy", TablePrinter::num(counters.batch_occupancy, 2)});
  table.add_row({"batches", TablePrinter::num(counters.batches, 0)});
  table.add_row({"seeded wire ratio", TablePrinter::num(seeded_ratio, 3)});
  table.print(std::cout);

  // Occupancy gates a loss of request coalescing. The seeded wire ratio
  // is format-determined, so any drift is a serializer change.
  const std::string shape = std::to_string(kRows) + "x" + std::to_string(kCols);
  BenchLine("server/hmvp_serve/" + shape + "@c" + std::to_string(clients))
      .field("requests", ok)
      .gated("req_s", req_s, kThroughput)
      .gated("p50_ms", p50, kLatency)
      .gated("p95_ms", p95, kLatency)
      .gated("p99_ms", p99, kLatency)
      .gated("batch_occupancy", counters.batch_occupancy,
             bench::higher_is_better(0.6))
      .gated("seeded_wire_ratio", seeded_ratio, bench::lower_is_better(0.05))
      .gated("peak_rss_mb", bench::peak_rss_mb(), bench::kPeakRss)
      .emit();

  // --- Phase 2: stamped-algorithm A/B at the BSGS crossover shape ---------
  // Same load, two servers in sequence: one stamps 1024x4096 naturally
  // (kBsgs), one pins the coefficient engine. The batched-BSGS arm pays
  // the diagonal freeze once (at add_matrix) and must sustain >= 1.5x the
  // coefficient arm's req/s.
  const int ab_clients = std::min(clients, 2);
  const int ab_per_client = std::min(per_client, 4);
  std::cout << "\n=== algorithm A/B: bsgs-stamped vs coefficient-forced ("
            << kAbRows << "x" << kAbCols << ", " << ab_clients << " clients x "
            << ab_per_client << " requests) ===\n\n";
  auto ctx8k = BfvContext::create(BfvParams::test(8192));
  GeneratedMatrix ab_mat(kAbRows, kAbCols, ctx8k->params().t, 2026);

  const AbArm coeff_arm =
      run_ab_arm(ctx8k, ab_mat, MvpAlgorithm::kCoefficient, ab_clients,
                 ab_per_client, max_batch, nullptr);
  // The bit-exactness oracle's diagonals, frozen independently of the
  // server's operand.
  BsgsHmvp keyless(ctx8k, nullptr);
  const BsgsEncodedMatrix oracle = keyless.encode_matrix(ab_mat, cfg.threads);
  const AbArm bsgs_arm = run_ab_arm(ctx8k, ab_mat, std::nullopt, ab_clients,
                                    ab_per_client, max_batch, &oracle);

  const double ab_ratio = bsgs_arm.req_s / coeff_arm.req_s;
  bench_check(bsgs_arm.counters.batches_bsgs > 0 &&
                  bsgs_arm.counters.batches_coeff == 0,
              "bsgs arm runs only the bsgs engine");
  bench_check(coeff_arm.counters.batches_coeff > 0 &&
                  coeff_arm.counters.batches_bsgs == 0,
              "coefficient arm runs only the coefficient engine");
  bench_check(bsgs_arm.counters.encode_cache_misses == 1,
              "the diagonal set is frozen exactly once across every batch");
  bench_check(ab_ratio >= 1.5,
              "batched bsgs >= 1.5x coefficient req/s at 1024x4096 "
              "(measured " + bench::fmt_speedup(ab_ratio) + ")");

  TablePrinter ab_table({"arm", "req/s", "batches"});
  ab_table.add_row({"bsgs-stamped", TablePrinter::num(bsgs_arm.req_s, 3),
                    TablePrinter::num(bsgs_arm.counters.batches, 0)});
  ab_table.add_row({"coefficient-forced",
                    TablePrinter::num(coeff_arm.req_s, 3),
                    TablePrinter::num(coeff_arm.counters.batches, 0)});
  ab_table.add_row({"bsgs vs coeff", bench::fmt_speedup(ab_ratio), ""});
  ab_table.print(std::cout);

  // Both arms run in one process, so noise mostly cancels in their ratio,
  // which gates losing the algorithm-dispatch win. The miss count is
  // deterministic (one diagonal freeze per matrix version); hit counts
  // depend on where the batch window lands, so they are not reported.
  const std::string ab_shape =
      std::to_string(kAbRows) + "x" + std::to_string(kAbCols);
  BenchLine("server/hmvp_serve_ab/" + ab_shape + "@c" +
            std::to_string(ab_clients))
      .field("requests", ab_clients * ab_per_client)
      .gated("bsgs_req_s", bsgs_arm.req_s, kThroughput)
      .gated("coeff_req_s", coeff_arm.req_s, kThroughput)
      .gated("bsgs_vs_coeff", ab_ratio, bench::higher_is_better(0.4))
      .gated("encode_cache_miss",
             static_cast<u64>(bsgs_arm.counters.encode_cache_misses),
             bench::kExact)
      .gated("peak_rss_mb", bench::peak_rss_mb(), bench::kPeakRss)
      .emit();

  // Batches coalesce wherever the race between clients and the batch
  // window lands, so this run's operation counts are not run-to-run
  // comparable: the load gate is the fields above.
  bench::emit_cham_metrics("bench_server", false);
  return bench::bench_exit_code();
}

}  // namespace cham

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 4;
  const int max_batch = argc > 3 ? std::atoi(argv[3]) : 8;
  return cham::run(std::max(clients, 1), std::max(per_client, 1),
                   std::max(max_batch, 1));
}
