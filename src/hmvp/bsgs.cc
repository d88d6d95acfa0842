#include "hmvp/bsgs.h"

#include <algorithm>
#include <string>

#include "common/thread_pool.h"
#include "nt/bitops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/kernels.h"

namespace cham {

void publish_baseline_stats(const char* prefix, const BaselineStats& st) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string p(prefix);
  reg.counter(p + ".runs").add(1);
  reg.counter(p + ".rotations").add(st.rotations);
  reg.counter(p + ".rotations_hoisted").add(st.rotations_hoisted);
  reg.counter(p + ".plain_mults").add(st.plain_mults);
}

namespace {

// The NTT-form limb `src` in slot order (out[j] = src[slot_to_index[j]]),
// each of its two rows followed by a copy of its first `pad` words, so
// that a read at row offset o + i with o + width <= N/2 and i <= pad
// wraps within the row: the rotation by i without a gather.
void to_slot_rows(const u64* src, const std::vector<u64>& slot_to_index,
                  std::size_t pad, u64* out) {
  const std::size_t half = slot_to_index.size() / 2;
  for (std::size_t row = 0; row < 2; ++row) {
    const u64* idx = slot_to_index.data() + row * half;
    u64* dst = out + row * (half + pad);
    for (std::size_t j = 0; j < half; ++j) dst[j] = src[idx[j]];
    std::copy_n(dst, pad, dst + half);
  }
}

// A slot-order limb back in NTT order: dst[slot_to_index[j]] = src[j].
// A scatter, so the (cold) source streams in order and only the (warm)
// destination is written out of order.
void to_ntt_order(const u64* src, const std::vector<u64>& slot_to_index,
                  u64* dst) {
  for (std::size_t j = 0; j < slot_to_index.size(); ++j) {
    dst[slot_to_index[j]] = src[j];
  }
}

// Plaintexts per storage chunk of one (limb, tile) unit: 256 rows of 64
// slots are 128 KiB whatever the shape, so the slab pool hands a freed
// matrix's chunks to the next matrix instead of stranding one size class
// per plaintext count. A power of two >= the terms per giant step, so a
// giant step's rows never straddle two chunks.
std::size_t chunk_rows(std::size_t plaintexts) {
  return std::min<std::size_t>(plaintexts, 256);
}

// Extended diagonals of the hybrid plan: one per padded row of a wide
// matrix, one per column otherwise.
std::size_t diagonal_count(std::size_t rows, std::size_t cols) {
  std::size_t d = 1;
  while (d < rows) d <<= 1;
  return std::min(d, cols);
}

}  // namespace

BsgsHmvp::BsgsHmvp(BfvContextPtr context, const GaloisKeys* gk)
    : ctx_(std::move(context)), gk_(gk), encoder_(ctx_), eval_(ctx_) {}

std::size_t BsgsHmvp::baby_steps(std::size_t n_cols) {
  std::size_t b = 1;
  while (b * b < n_cols) b <<= 1;
  if (b * b > n_cols && b > 1) b >>= 1;
  return b;
}

std::vector<u64> BsgsHmvp::required_galois_elements(std::size_t n_cols) const {
  const std::size_t b = baby_steps(n_cols);
  std::vector<u64> out;
  for (std::size_t i = 1; i < b; ++i) {
    out.push_back(ctx_->rotation_galois_element(i));
  }
  for (std::size_t j = 1; j < (n_cols + b - 1) / b; ++j) {
    out.push_back(ctx_->rotation_galois_element(j * b));
  }
  // Plans with b >= 2 fill slot row 1 through the row swap; their lead
  // rotation by b/2 is a baby above.
  if (b >= 2) out.push_back(ctx_->row_swap_galois_element());
  // Key shipping and make_galois_keys iterate these verbatim, so the plan
  // must never carry an element twice (baby/giant collisions are possible
  // for degenerate shapes) and sorted order keeps hello payloads canonical.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Plaintext BsgsHmvp::encode_vector(const std::vector<u64>& v) const {
  const std::size_t half = ctx_->n() / 2;
  CHAM_CHECK_MSG(is_power_of_two(v.size()) && v.size() <= half,
                 "diagonal method needs power-of-two cols <= N/2");
  std::vector<u64> slots(half);
  for (std::size_t i = 0; i < half; ++i) slots[i] = v[i % v.size()];
  return encoder_.encode(slots);
}

Ciphertext BsgsHmvp::encrypt_vector(const std::vector<u64>& v,
                                    const Encryptor& enc) const {
  return enc.encrypt(encode_vector(v));
}

Ciphertext BsgsHmvp::multiply(const RowSource& a, const Ciphertext& ct_v,
                              BaselineStats* stats, int threads) const {
  CHAM_SPAN_ARG("bsgs.multiply", a.rows());
  return multiply_encoded(encode_matrix(a, threads), ct_v, stats, threads);
}

BsgsEncodedMatrix BsgsHmvp::encode_matrix(const RowSource& a,
                                          int threads) const {
  CHAM_SPAN_ARG("bsgs.encode_matrix", a.cols());
  const std::size_t half = ctx_->n() / 2;
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  CHAM_CHECK_MSG(is_power_of_two(n) && n <= half && m <= half,
                 "diagonal method shape limits");
  const u64 t = ctx_->plain_modulus().value();
  if (threads <= 0) threads = 1;

  std::vector<std::vector<u64>> rows(m, std::vector<u64>(n));
  for (std::size_t i = 0; i < m; ++i) a.row(i, rows[i].data());

  BsgsEncodedMatrix out;
  out.rows_ = m;
  out.cols_ = n;
  out.diags_ = diagonal_count(m, n);
  out.baby_ = std::min(baby_steps(n), out.diags_);
  const std::size_t diags = out.diags_;
  const std::size_t b = out.baby_;
  const std::size_t h = out.terms();
  const std::size_t slot_rows = out.slot_rows();
  const std::size_t plaintexts = out.plaintexts();
  // Slot s = r + k·D of a diagonal belongs to row r: n/D slots per row of
  // a wide matrix, one slot per row otherwise (D = n, reps = 1).
  const std::size_t reps = n / diags;
  const std::size_t width = bsgs_tile_width(ctx_->n());
  const std::size_t tiles = ctx_->n() / width;
  const std::size_t chunk = chunk_rows(plaintexts);
  const std::size_t chunks = plaintexts / chunk;
  CHAM_CHECK_MSG(chunk % h == 0, "giant block straddles a chunk");
  out.diag_.resize(ctx_->base_qp()->size() * tiles * chunks);
  for (simd::AlignedU64Vec& block : out.diag_) block.resize(chunk * width);

  // Plaintext p = j·h + i: slot row `row` holds diag_d for d = jb + row·h
  // + i, where diag_d[s] = A[r][(s + d) mod n] for s = r + k·D,
  // pre-rotated right by j·b slots. Encoded, centered-lifted into the
  // base_qp NTT domain and gathered back into slot order, into its row of
  // every (limb, tile) unit, while still in cache.
  const std::vector<u64>& slot_to_index = ctx_->slot_to_index();
  auto& pool = ThreadPool::global();
  int lanes = static_cast<int>(
      std::min<std::size_t>({static_cast<std::size_t>(threads),
                             pool.max_lanes(), plaintexts}));
  if (ThreadPool::in_lane()) lanes = 1;
  auto encode_lane = [&](int lane) {
    std::vector<u64> slots(slot_rows * half);
    RnsPoly pt_ntt(ctx_->base_qp(), false);
    for (std::size_t p = static_cast<std::size_t>(lane); p < plaintexts;
         p += static_cast<std::size_t>(lanes)) {
      const std::size_t jb = p / h * b;  // the giant offset j·b
      std::fill(slots.begin(), slots.end(), 0);
      for (std::size_t row = 0; row < slot_rows; ++row) {
        const std::size_t d = jb + row * h + p % h;
        u64* rotated = slots.data() + row * half;
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t s = r; s < r + reps * diags; s += diags) {
            rotated[(s + jb) % half] = rows[r][(s + d) % n] % t;
          }
        }
      }
      eval_.transform_plain_ntt_into(encoder_.encode(slots), pt_ntt);
      CHAM_CHECK_MSG(pt_ntt.is_ntt(), "diagonal must be NTT-form");
      for (std::size_t l = 0; l < pt_ntt.limbs(); ++l) {
        const u64* src = pt_ntt.limb(l);
        for (std::size_t s = 0; s < tiles; ++s) {
          u64* dst = out.diag_[(l * tiles + s) * chunks + p / chunk].data() +
                     p % chunk * width;
          const u64* idx = slot_to_index.data() + s * width;
          for (std::size_t w = 0; w < width; ++w) dst[w] = src[idx[w]];
        }
      }
    }
  };
  if (lanes > 1) {
    pool.run(lanes, encode_lane);
  } else {
    encode_lane(0);
  }
  return out;
}

Ciphertext BsgsHmvp::multiply_encoded(const BsgsEncodedMatrix& a,
                                      const Ciphertext& ct_v,
                                      BaselineStats* stats,
                                      int threads) const {
  auto out = multiply_encoded_batch(a, {MvpRequest{{&ct_v, 1}}}, stats,
                                    threads);
  return std::move(out[0]);
}

std::vector<Ciphertext> BsgsHmvp::multiply_encoded_batch(
    const BsgsEncodedMatrix& a, const std::vector<MvpRequest>& batch,
    BaselineStats* stats, int threads) const {
  CHAM_SPAN_ARG("bsgs.multiply_encoded_batch", batch.size());
  const std::size_t n = a.cols_;
  const std::size_t m = a.rows_;
  CHAM_CHECK_MSG(m > 0 && n > 0, "empty encoded matrix");
  const std::size_t diags = a.diags_;
  const std::size_t b = a.baby_;
  const std::size_t h = a.terms();
  const std::size_t giants = a.giants();
  const std::size_t k = batch.size();
  if (threads <= 0) threads = 1;
  std::vector<Ciphertext> out(k);
  if (k == 0) return out;

  const RnsBasePtr& base_q = ctx_->base_q();
  const RnsBasePtr& base_qp = ctx_->base_qp();
  const std::size_t q_limbs = base_q->size();
  const std::size_t dnum = ctx_->dnum();
  const std::size_t ring_n = ctx_->n();
  const std::size_t half = ring_n / 2;
  const std::size_t width = bsgs_tile_width(ring_n);
  const std::size_t tiles = ring_n / width;
  const std::size_t units = base_qp->size() * tiles;  // (limb, tile)
  const std::size_t chunk = chunk_rows(a.plaintexts());
  const std::size_t chunks = a.plaintexts() / chunk;
  CHAM_CHECK_MSG(a.diag_.size() == units * chunks,
                 "encoded matrix belongs to another ring");
  const std::vector<u64>& slot_to_index = ctx_->slot_to_index();

  // A request's operands in slot order: per base_qp limb, its dnum
  // digits, then p·b̂ and p·â (zero on the special prime), each a
  // `padded`-word polynomial whose two rows carry h - 1 wrap-around words.
  const std::size_t pad = h - 1;
  const std::size_t padded = 2 * (half + pad);
  const std::size_t limb_words = (dnum + 2) * padded;

  // Per-session sub-batch state: each request carries its own slot-order
  // operands, frozen key set and inner sums — only the diagonal operands
  // in `a` are shared across the batch.
  struct Req {
    const Evaluator* eval = nullptr;
    std::shared_ptr<const BsgsKeys> keys;
    simd::AlignedU64Vec slots;      // [limb][digit.., p·b̂, p·â][padded]
    std::vector<Ciphertext> inner;  // per giant step, over base_qp
  };
  std::vector<Req> reqs(k);
  for (std::size_t r = 0; r < k; ++r) {
    const MvpRequest& e = batch[r];
    CHAM_CHECK_MSG(e.ct_v.size() == 1,
                   "bsgs request must be one slot-tiled ciphertext");
    Req& rq = reqs[r];
    rq.eval = e.eval != nullptr ? e.eval : &eval_;
    const GaloisKeys* gk = e.gk != nullptr ? e.gk : gk_;
    CHAM_CHECK_MSG(gk != nullptr, "batched BSGS needs Galois keys");
    rq.keys = rq.eval->evk().bsgs_keys(*gk, n, diags, b);
    rq.slots.resize(base_qp->size() * limb_words);
    // The giant stage's dot products write every slot of every inner
    // sum, so they are allocated without a fill.
    rq.inner.resize(giants);
    for (Ciphertext& acc : rq.inner) {
      acc.b = RnsPoly::uninitialized(base_qp, true);
      acc.a = RnsPoly::uninitialized(base_qp, true);
    }
  }

  auto& pool = ThreadPool::global();
  const auto lanes_for = [&](std::size_t items) {
    if (ThreadPool::in_lane()) return 1;
    return static_cast<int>(std::min<std::size_t>(
        {static_cast<std::size_t>(threads), pool.max_lanes(), items}));
  };
  // item(lane, idx) for every idx < items, dealt round-robin to lanes.
  const auto run_lanes = [&](std::size_t items, const auto& item) {
    const int lanes = lanes_for(items);
    auto lane_fn = [&](int lane) {
      for (std::size_t idx = static_cast<std::size_t>(lane); idx < items;
           idx += static_cast<std::size_t>(lanes)) {
        item(static_cast<std::size_t>(lane), idx);
      }
    };
    if (lanes > 1) {
      pool.run(lanes, lane_fn);
    } else {
      lane_fn(0);
    }
  };

  // Per request: rescale; on two slot rows the lead rotations
  // ct₂ = ct + swap(rot_h(ct)), so that row 1 carries v rotated by h;
  // then the shared digit decomposition and p·ct₂ in the NTT domain,
  // gathered once into slot order — everything the baby rotations read.
  {
    CHAM_SPAN_ARG("bsgs.batch_baby_steps", k * h);
    const u64 p = base_qp->modulus(q_limbs).value();
    std::vector<u64> p_mod_q(q_limbs);
    for (std::size_t l = 0; l < q_limbs; ++l) {
      p_mod_q[l] = p % base_q->modulus(l).value();
    }
    run_lanes(k, [&](std::size_t, std::size_t r) {
      Req& rq = reqs[r];
      std::vector<RnsPoly> digits(dnum, RnsPoly(base_qp, false));
      Ciphertext p_ct = rq.eval->rescale(batch[r].ct_v[0]);
      if (!rq.keys->lead.empty()) {
        Ciphertext row1 = p_ct;
        for (const BsgsKeys::Rot& rot : rq.keys->lead) {
          rq.eval->decompose_ntt_digits(row1.a, digits, threads);
          row1 = rq.eval->rotate_hoisted(row1, digits, *rot.coeff, *rot.ntt,
                                         *rot.ksk);
        }
        rq.eval->add_inplace(p_ct, row1);
      }
      rq.eval->decompose_ntt_digits(p_ct.a, digits, threads);
      p_ct.to_ntt();
      p_ct.b.mul_scalar_inplace(p_mod_q);
      p_ct.a.mul_scalar_inplace(p_mod_q);
      for (std::size_t l = 0; l < base_qp->size(); ++l) {
        u64* out = rq.slots.data() + l * limb_words;
        for (std::size_t d = 0; d < dnum; ++d) {
          to_slot_rows(digits[d].limb(l), slot_to_index, pad,
                       out + d * padded);
        }
        if (l < q_limbs) {
          to_slot_rows(p_ct.b.limb(l), slot_to_index, pad,
                       out + dnum * padded);
          to_slot_rows(p_ct.a.limb(l), slot_to_index, pad,
                       out + (dnum + 1) * padded);
        } else {  // p·ct₂ vanishes mod p
          std::fill_n(out + dnum * padded, 2 * padded, 0);
        }
      }
    });
  }

  // The giant stage: MultPoly fused with the baby rotations, then the
  // giant rotations, one mod-down per request and the folds.
  {
    CHAM_SPAN("bsgs.batch_giant_sweep");

    // MultPoly in slot order, split into disjoint (limb, tile) units.
    // Without its mod-down a hoisted rotation is slot-local over base_qp,
    // and in slot order the rotation by i is a shift by i within each
    // row, so slot s of baby i is
    //   b side  p·b̂[s+i] + Σ_k d̂_k[s+i]·kb_{i,k}[s]
    //   a side               Σ_k d̂_k[s+i]·ka_{i,k}[s]
    // (d̂_k the request's digits, kb/ka the frozen key's slot-order
    // planes, s+i taken within the row; baby 0 is p·ct₂ itself). So each
    // unit builds its requests' h baby tiles in lane scratch with one
    // dot_pair each, reading the padded operands at offset i, then for
    // each giant step fetches the unit's block of h plaintexts once and
    // feeds every request through one lazy dot product per polynomial.
    // Every value is a canonical residue, so the result is the same for
    // every lane count and batch composition.
    const simd::Kernels& kern = simd::active();
    const std::size_t req_words = 2 * h * width;  // one request's tiles
    std::vector<simd::AlignedU64Vec> tiles_of(
        static_cast<std::size_t>(lanes_for(units)),
        simd::AlignedU64Vec(k * req_words));
    {
      CHAM_SPAN_ARG("bsgs.multpoly", units);
      run_lanes(units, [&](std::size_t lane, std::size_t unit) {
        const std::size_t l = unit / tiles;
        const std::size_t tile = unit % tiles;
        const std::size_t slot = tile * width;
        // The tile's first word in a padded operand.
        const std::size_t at = slot + slot / half * pad;
        const u64 q = base_qp->modulus(l).value();
        const u64 q_barrett = base_qp->crt().q_barrett(l);
        const ShoupMul& r64 = base_qp->crt().r64(l);
        simd::AlignedU64Vec& buf = tiles_of[lane];
        for (std::size_t r = 0; r < k; ++r) {
          const u64* p_b = reqs[r].slots.data() + l * limb_words +
                           dnum * padded + at;
          u64* xb = buf.data() + r * req_words;
          std::copy_n(p_b, width, xb);
          std::copy_n(p_b + padded, width, xb + h * width);
        }
        // Baby-major, so requests of one session reuse the key slice while
        // it is in L1. The next baby's key block is prefetched: the blocks
        // of up to 31 keys per session interleave, too many streams for
        // the hardware prefetcher (babies 3.0 -> 2.5 ms per request on the
        // served 1024×4096 plan).
        const std::size_t key_words = 2 * dnum * width;
        for (std::size_t i = 1; i < h; ++i) {
          for (std::size_t r = 0; r < k; ++r) {
            const Req& rq = reqs[r];
            if (i + 1 < h) {
              const u64* next = rq.keys->babies[i].slots->tile(l, tile);
              for (std::size_t w = 0; w < key_words; w += 8) {
                __builtin_prefetch(next + w);
              }
            }
            const u64* key = rq.keys->babies[i - 1].slots->tile(l, tile);
            const u64* digits = rq.slots.data() + l * limb_words + at + i;
            u64* ob = buf.data() + r * req_words + i * width;
            kern.dot_pair(digits, padded, digits + dnum * padded, key,
                          key + dnum * width, width, ob, ob + h * width, dnum,
                          width, q, q_barrett, r64.operand, r64.quotient);
          }
        }
        for (std::size_t j = 0; j < giants; ++j) {
          const u64* w = a.diag_[unit * chunks + j * h / chunk].data() +
                         j * h % chunk * width;
          for (std::size_t r = 0; r < k; ++r) {
            const u64* xb = buf.data() + r * req_words;
            Ciphertext& acc = reqs[r].inner[j];
            kern.dot(xb, w, acc.b.limb(l) + slot, h, width, width, q,
                     q_barrett, r64.operand, r64.quotient);
            kern.dot(xb + h * width, w, acc.a.limb(l) + slot, h, width,
                     width, q, q_barrett, r64.operand, r64.quotient);
          }
        }
      });
      for (Req& rq : reqs) rq.slots = simd::AlignedU64Vec();
    }

    // Giant rotations. The inner sums are in slot order, where giant j's
    // b-side rotation by j·b is a shift within each row: first, per
    // (request, limb), the shifted b-sides add into inner sum 0, which
    // becomes the request's slot-order accumulator. Then, flattened over
    // (request, giant j >= 1), each a-side goes back to NTT order and is
    // rounded down by p (3 INTTs and one divide-and-round) so that it
    // can be decomposed; the key switch stays lazy over base_qp and
    // overwrites the giant's inner sum in NTT order. The rounding leaves
    // one error term per giant step, the size of a mod-down's.
    struct Scratch {
      RnsPoly a;  // a slot-order polynomial in NTT order
      RnsPoly a_q;
      std::vector<RnsPoly> digits;
    };
    // Sized for the lane loops below (k·(giants - 1) giant steps, k folds).
    std::vector<Scratch> scratch(
        static_cast<std::size_t>(lanes_for(k * giants)));
    for (Scratch& s : scratch) {
      s.a = RnsPoly(base_qp, true);
      s.a_q = RnsPoly(base_q, false);
      s.digits.assign(dnum, RnsPoly(base_qp, false));
    }
    {
      CHAM_SPAN_ARG("bsgs.giant_steps", k * (giants - 1));
      const std::size_t limbs = base_qp->size();
      run_lanes(k * limbs, [&](std::size_t, std::size_t idx) {
        Req& rq = reqs[idx / limbs];
        const std::size_t l = idx % limbs;
        const u64 q = base_qp->modulus(l).value();
        for (std::size_t j = 1; j < giants; ++j) {
          const std::size_t shift = j * b;  // < D <= N/2
          for (std::size_t row = 0; row < 2; ++row) {
            u64* acc = rq.inner[0].b.limb(l) + row * half;
            const u64* src = rq.inner[j].b.limb(l) + row * half;
            kern.add(acc, src + shift, acc, half - shift, q);
            kern.add(acc + half - shift, src, acc + half - shift, shift, q);
          }
        }
      });
      run_lanes(k * (giants - 1), [&](std::size_t lane, std::size_t idx) {
        Req& rq = reqs[idx / (giants - 1)];
        const std::size_t j = 1 + idx % (giants - 1);
        const BsgsKeys::Rot& rot = rq.keys->giants[j - 1];
        Ciphertext& acc = rq.inner[j];
        Scratch& s = scratch[lane];
        for (std::size_t l = 0; l < base_qp->size(); ++l) {
          to_ntt_order(acc.a.limb(l), slot_to_index, s.a.limb(l));
        }
        s.a.set_ntt_form(true);
        s.a.from_ntt();
        divide_round_by_last_into(s.a, s.a_q);
        rq.eval->decompose_ntt_digits(s.a_q, s.digits);
        rq.eval->keyswitch_hoisted_qp(s.digits, *rot.ntt, *rot.ksk, acc);
      });
    }

    // Per request: the slot-order accumulator back to NTT order, plus the
    // giant key switches, summed over base_qp; round down by p once, then
    // fold. On two slot rows the first fold adds the row swap, so row 0
    // sums every diagonal; then the n/D partial sums of each row fold
    // into its slot, one hoisted rotate-and-add per halving (rotations by
    // n/2, n/4, .., D).
    CHAM_SPAN_ARG("bsgs.folds", k);
    run_lanes(k, [&](std::size_t lane, std::size_t r) {
      Req& rq = reqs[r];
      Ciphertext& sum = rq.inner[0];
      u64* tmp = scratch[lane].a.limb(0);  // N words of lane scratch
      for (RnsPoly* poly : {&sum.b, &sum.a}) {
        for (std::size_t l = 0; l < base_qp->size(); ++l) {
          to_ntt_order(poly->limb(l), slot_to_index, tmp);
          std::copy_n(tmp, ring_n, poly->limb(l));
        }
      }
      for (std::size_t j = 1; j < giants; ++j) {
        rq.eval->add_inplace(sum, rq.inner[j]);
      }
      sum.from_ntt();
      Ciphertext& res = out[r];
      res = rq.eval->rescale(sum);
      rq.inner.clear();
      std::vector<RnsPoly>& digits = scratch[lane].digits;
      for (const BsgsKeys::Rot& rot : rq.keys->folds) {
        rq.eval->decompose_ntt_digits(res.a, digits);
        rq.eval->add_inplace(
            res, rq.eval->rotate_hoisted(res, digits, *rot.coeff, *rot.ntt,
                                         *rot.ksk));
      }
    });
  }

  // One publish per logical product, so "bsgs.runs" counts requests.
  BaselineStats per;
  per.rotations = reqs[0].keys->rotations();
  per.rotations_hoisted = h - 1;
  per.plain_mults = a.plaintexts();
  for (std::size_t r = 0; r < k; ++r) publish_baseline_stats("bsgs", per);
  if (stats) {
    for (std::size_t r = 0; r < k; ++r) stats->merge(per);
  }
  return out;
}

std::vector<u64> BsgsHmvp::decrypt_result(const Ciphertext& ct,
                                          std::size_t rows,
                                          const Decryptor& dec) const {
  CHAM_CHECK_MSG(rows >= 1 && rows <= ctx_->n() / 2,
                 "slot layout holds 1 to N/2 rows");
  CHAM_CHECK_MSG(ct.base() == ctx_->base_q() && !ct.is_ntt(),
                 "result ciphertext must be base_q, coefficient form");
  auto slots = encoder_.decode(dec.decrypt(ct));
  slots.resize(rows);
  return slots;
}

}  // namespace cham
