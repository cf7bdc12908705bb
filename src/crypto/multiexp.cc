#include "src/crypto/multiexp.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <unordered_map>

#include "src/crypto/transcript.h"
#include "src/util/parallel.h"

namespace dissent {

BigInt DrawBatchWeight128(Transcript& t, const std::string& label) {
  Bytes raw = t.ChallengeBytes(label);
  raw.resize(16);
  BigInt z = BigInt::FromBytes(raw);
  return z.IsZero() ? BigInt(1) : z;
}

namespace {

// Branchless all-ones mask iff x == y.
inline uint64_t EqMask(uint64_t x, uint64_t y) {
  const uint64_t d = x ^ y;
  return ((d | (0 - d)) >> 63) - 1;
}

// Little-endian limb view of an exponent, zero-padded to `limbs`.
void FillExpLimbs(const BigInt& e, size_t limbs, uint64_t* out) {
  std::fill(out, out + limbs, 0);
  const std::vector<uint64_t>& el = e.limbs();
  assert(el.size() <= limbs);
  std::copy(el.begin(), el.end(), out);
}

inline uint64_t WindowDigit(const uint64_t* limbs, size_t w) {
  return (limbs[(w * 4) / 64] >> ((w * 4) % 64)) & 0xf;
}

}  // namespace

// --- FixedBaseTable ---

FixedBaseTable::FixedBaseTable(const Group& group, const BigInt& base)
    : mont_(&group.mont()), base_(base) {
  k_ = mont_->limb_count();
  windows_ = (group.q().BitLength() + 3) / 4;
  one_ = mont_->One();
  table_.assign(windows_ * 16 * k_, 0);

  Montgomery::Limbs b = mont_->ToMont(base_);  // b_w = base^(16^w)
  std::vector<uint64_t> scratch(k_ + 2);
  for (size_t w = 0; w < windows_; ++w) {
    uint64_t* win = table_.data() + w * 16 * k_;
    std::copy(one_.begin(), one_.end(), win);              // entry 0
    std::copy(b.begin(), b.end(), win + k_);               // entry 1
    for (size_t d = 2; d < 16; ++d) {
      mont_->MulRaw(win + (d - 1) * k_, win + k_, scratch.data(), win + d * k_);
    }
    if (w + 1 < windows_) {
      // b_{w+1} = b_w^16 = (b_w^8)^2.
      mont_->MulRaw(win + 8 * k_, win + 8 * k_, scratch.data(), b.data());
    }
  }
}

void FixedBaseTable::Eval(const BigInt& e, bool secret, Montgomery::Limbs* out) const {
  const size_t k = k_;
  thread_local std::vector<uint64_t> arena;
  arena.resize(3 * k + (k + 2));  // acc + tmp + sel + CIOS scratch
  uint64_t* acc = arena.data();
  uint64_t* tmp = acc + k;
  uint64_t* sel = tmp + k;
  uint64_t* scratch = sel + k;

  thread_local std::vector<uint64_t> ebuf;
  const size_t elimbs = (windows_ * 4 + 63) / 64;
  ebuf.resize(elimbs);
  FillExpLimbs(e, elimbs, ebuf.data());

  std::copy(one_.begin(), one_.end(), acc);
  bool started = false;
  for (size_t w = 0; w < windows_; ++w) {
    const uint64_t digit = WindowDigit(ebuf.data(), w);
    const uint64_t* win = table_.data() + w * 16 * k;
    if (secret) {
      std::fill(sel, sel + k, 0);
      for (uint64_t idx = 0; idx < 16; ++idx) {
        const uint64_t mask = EqMask(idx, digit);
        const uint64_t* entry = win + idx * k;
        for (size_t l = 0; l < k; ++l) {
          sel[l] |= entry[l] & mask;
        }
      }
      mont_->MulRaw(acc, sel, scratch, tmp);
      std::swap(acc, tmp);
    } else if (digit != 0) {
      if (!started) {
        std::copy(win + digit * k, win + digit * k + k, acc);
        started = true;
      } else {
        mont_->MulRaw(acc, win + digit * k, scratch, tmp);
        std::swap(acc, tmp);
      }
    }
  }
  out->assign(acc, acc + k);
}

BigInt FixedBaseTable::Exp(const BigInt& e) const {
  if (e.BitLength() > max_exp_bits()) {
    return mont_->Exp(base_, e);  // out-of-range exponent: generic ladder
  }
  Montgomery::Limbs r;
  Eval(e, /*secret=*/false, &r);
  return mont_->FromMont(r);
}

Group::Elem FixedBaseTable::ExpElem(const BigInt& e) const {
  if (e.BitLength() > max_exp_bits()) {
    return Group::Elem{mont_->ToMont(mont_->Exp(base_, e))};
  }
  Group::Elem r;
  Eval(e, /*secret=*/false, &r.mont);
  return r;
}

BigInt FixedBaseTable::ExpSecret(const BigInt& e) const {
  assert(e.BitLength() <= max_exp_bits());
  Montgomery::Limbs r;
  Eval(e, /*secret=*/true, &r);
  return mont_->FromMont(r);
}

Group::Elem FixedBaseTable::ExpSecretElem(const BigInt& e) const {
  assert(e.BitLength() <= max_exp_bits());
  Group::Elem r;
  Eval(e, /*secret=*/true, &r.mont);
  return r;
}

// --- MultiExp (Straus) ---

namespace {

// Straus over one contiguous chunk of (deduplicated) bases; returns the
// partial product in Montgomery form. `secret` fixes the window schedule to
// the scalar width and scans tables instead of indexing them.
Montgomery::Limbs StrausChunk(const Montgomery& mont, size_t qbits,
                              const Group::Elem* bases, const BigInt* exps, size_t n,
                              bool secret) {
  const size_t k = mont.limb_count();
  Montgomery::Limbs one = mont.One();
  if (n == 0) {
    return one;
  }
  // Per-base 16-entry window tables (entry 0 = one so the secret scan is
  // uniform), one contiguous arena.
  std::vector<uint64_t> tables(n * 16 * k);
  std::vector<uint64_t> scratch(k + 2);
  for (size_t i = 0; i < n; ++i) {
    uint64_t* t = tables.data() + i * 16 * k;
    std::copy(one.begin(), one.end(), t);
    assert(bases[i].mont.size() == k);
    std::copy(bases[i].mont.begin(), bases[i].mont.end(), t + k);
    for (size_t d = 2; d < 16; ++d) {
      mont.MulRaw(t + (d - 1) * k, t + k, scratch.data(), t + d * k);
    }
  }
  // Exponent limb matrix, fixed width.
  size_t max_bits = secret ? qbits : 0;
  if (!secret) {
    for (size_t i = 0; i < n; ++i) {
      max_bits = std::max(max_bits, exps[i].BitLength());
    }
    if (max_bits == 0) {
      return one;
    }
  }
  const size_t windows = (max_bits + 3) / 4;
  const size_t elimbs = (windows * 4 + 63) / 64;
  std::vector<uint64_t> ebuf(n * elimbs);
  for (size_t i = 0; i < n; ++i) {
    FillExpLimbs(exps[i], elimbs, ebuf.data() + i * elimbs);
  }

  std::vector<uint64_t> accv(k), tmpv(k), selv(k);
  uint64_t* acc = accv.data();
  uint64_t* tmp = tmpv.data();
  uint64_t* sel = selv.data();
  std::copy(one.begin(), one.end(), acc);
  bool started = false;
  for (size_t w = windows; w-- > 0;) {
    if (secret || started) {
      for (int sq = 0; sq < 4; ++sq) {
        mont.MulRaw(acc, acc, scratch.data(), tmp);
        std::swap(acc, tmp);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t digit = WindowDigit(ebuf.data() + i * elimbs, w);
      const uint64_t* t = tables.data() + i * 16 * k;
      if (secret) {
        std::fill(sel, sel + k, 0);
        for (uint64_t idx = 0; idx < 16; ++idx) {
          const uint64_t mask = EqMask(idx, digit);
          const uint64_t* entry = t + idx * k;
          for (size_t l = 0; l < k; ++l) {
            sel[l] |= entry[l] & mask;
          }
        }
        mont.MulRaw(acc, sel, scratch.data(), tmp);
        std::swap(acc, tmp);
      } else if (digit != 0) {
        mont.MulRaw(acc, t + digit * k, scratch.data(), tmp);
        std::swap(acc, tmp);
        started = true;
      }
    }
  }
  return Montgomery::Limbs(acc, acc + k);
}

// Pippenger bucket method for large public batches: no per-base tables at
// all — each window scatters the bases into 2^w - 1 buckets by digit and
// collapses them with the suffix-product trick (2 * 2^w multiplies), so the
// per-base cost is ~windows multiplies instead of Straus's table build plus
// window multiplies. Wins past a few hundred bases; variable-time by
// construction (bucket choice IS the digit), so public exponents only.
Montgomery::Limbs PippengerChunk(const Montgomery& mont, const Group::Elem* bases,
                                 const BigInt* exps, size_t n) {
  const size_t k = mont.limb_count();
  Montgomery::Limbs one = mont.One();
  size_t max_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    max_bits = std::max(max_bits, exps[i].BitLength());
  }
  if (max_bits == 0) {
    return one;
  }
  // Window width balancing n bucket-adds against 2^(w+1) collapse multiplies
  // per window.
  size_t w = 4;
  while (w < 12 && (size_t{2} << (w + 1)) < n) {
    ++w;
  }
  const size_t windows = (max_bits + w - 1) / w;
  const size_t buckets = (size_t{1} << w) - 1;
  const size_t elimbs = (max_bits + 63) / 64 + 1;
  std::vector<uint64_t> ebuf(n * elimbs);
  for (size_t i = 0; i < n; ++i) {
    FillExpLimbs(exps[i], elimbs, ebuf.data() + i * elimbs);
  }
  auto digit_of = [&](size_t i, size_t win) -> uint64_t {
    const size_t bit = win * w;
    const uint64_t* e = ebuf.data() + i * elimbs;
    const size_t limb = bit / 64;
    const size_t off = bit % 64;
    uint64_t d = e[limb] >> off;
    if (off + w > 64) {
      d |= e[limb + 1] << (64 - off);
    }
    return d & ((uint64_t{1} << w) - 1);
  };

  // MulRaw permits out to alias either input (it only writes out at the
  // end), so every accumulator below multiplies in place.
  std::vector<uint64_t> scratch(k + 2);
  std::vector<uint64_t> bucket(buckets * k);
  std::vector<char> bucket_set(buckets);
  std::vector<uint64_t> accv(k), runv(k), totv(k);
  uint64_t* acc = accv.data();
  uint64_t* run = runv.data();
  uint64_t* tot = totv.data();
  std::copy(one.begin(), one.end(), acc);
  bool acc_started = false;
  for (size_t win = windows; win-- > 0;) {
    if (acc_started) {
      for (size_t sq = 0; sq < w; ++sq) {
        mont.MulRaw(acc, acc, scratch.data(), acc);
      }
    }
    std::fill(bucket_set.begin(), bucket_set.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t d = digit_of(i, win);
      if (d == 0) {
        continue;
      }
      uint64_t* b = bucket.data() + (d - 1) * k;
      if (!bucket_set[d - 1]) {
        std::copy(bases[i].mont.begin(), bases[i].mont.end(), b);
        bucket_set[d - 1] = 1;
      } else {
        mont.MulRaw(b, bases[i].mont.data(), scratch.data(), b);
      }
    }
    // Suffix collapse: sum_d bucket[d]^d == prod of running suffix products.
    bool run_started = false;
    bool tot_started = false;
    for (size_t d = buckets; d-- > 0;) {
      if (bucket_set[d]) {
        if (!run_started) {
          std::copy(bucket.data() + d * k, bucket.data() + (d + 1) * k, run);
          run_started = true;
        } else {
          mont.MulRaw(run, bucket.data() + d * k, scratch.data(), run);
        }
      }
      if (run_started) {
        if (!tot_started) {
          std::copy(run, run + k, tot);
          tot_started = true;
        } else {
          mont.MulRaw(tot, run, scratch.data(), tot);
        }
      }
    }
    if (tot_started) {
      if (!acc_started) {
        std::copy(tot, tot + k, acc);
        acc_started = true;
      } else {
        mont.MulRaw(acc, tot, scratch.data(), acc);
      }
    }
  }
  if (!acc_started) {
    return one;
  }
  return Montgomery::Limbs(acc, acc + k);
}

BigInt MultiExpImpl(const Group& group, const std::vector<Group::Elem>& bases,
                    const std::vector<BigInt>& exps, bool secret, size_t num_threads) {
  assert(bases.size() == exps.size());
  const Montgomery& mont = group.mont();
  const size_t k = mont.limb_count();
  if (bases.empty()) {
    return group.Identity();
  }
  // Reduce exponents mod q and merge duplicate bases (sound because every
  // base has order q). Which bases coincide is public information either
  // way, so the merge is shared by the secret variant too.
  std::unordered_map<std::string, size_t> seen;
  seen.reserve(bases.size());
  std::vector<Group::Elem> ub;
  std::vector<BigInt> ue;
  ub.reserve(bases.size());
  ue.reserve(bases.size());
  for (size_t i = 0; i < bases.size(); ++i) {
    BigInt e = BigInt::Cmp(exps[i], group.q()) < 0 ? exps[i] : BigInt::Mod(exps[i], group.q());
    assert(bases[i].mont.size() == k);
    std::string key(reinterpret_cast<const char*>(bases[i].mont.data()), k * sizeof(uint64_t));
    auto [it, inserted] = seen.emplace(std::move(key), ub.size());
    if (inserted) {
      ub.push_back(bases[i]);
      ue.push_back(std::move(e));
    } else {
      ue[it->second] = BigInt::ModAdd(ue[it->second], e, group.q());
    }
  }
  if (!secret) {
    // Zero exponents contribute nothing; dropping them is a public fact.
    size_t out = 0;
    for (size_t i = 0; i < ub.size(); ++i) {
      if (!ue[i].IsZero()) {
        if (out != i) {
          ub[out] = std::move(ub[i]);
          ue[out] = std::move(ue[i]);
        }
        ++out;
      }
    }
    ub.resize(out);
    ue.resize(out);
  }
  const size_t qbits = group.q().BitLength();
  const size_t n = ub.size();
  if (n == 0) {
    return group.Identity();
  }
  // Per-chunk algorithm: Straus for small batches and every secret batch;
  // Pippenger's bucket method once a public batch is large enough that
  // skipping the per-base tables wins.
  constexpr size_t kPippengerThreshold = 128;
  auto run_chunk = [&](const Group::Elem* b, const BigInt* e, size_t cnt) {
    if (!secret && cnt >= kPippengerThreshold) {
      return PippengerChunk(mont, b, e, cnt);
    }
    return StrausChunk(mont, qbits, b, e, cnt, secret);
  };
  size_t workers = std::min(std::max<size_t>(num_threads, 1), n);
  if (workers > 1 && n < 64) {
    workers = 1;  // table build + squaring chains dominate below this
  }
  if (workers <= 1) {
    return mont.FromMont(run_chunk(ub.data(), ue.data(), n));
  }
  std::vector<Montgomery::Limbs> partial(workers, mont.One());
  const size_t chunk = (n + workers - 1) / workers;
  ParallelFor(workers, workers, [&](size_t wb, size_t we) {
    for (size_t w = wb; w < we; ++w) {
      const size_t begin = w * chunk;
      const size_t end = std::min(n, begin + chunk);
      if (begin < end) {
        partial[w] = run_chunk(ub.data() + begin, ue.data() + begin, end - begin);
      }
    }
  });
  Montgomery::Limbs acc = partial[0];
  for (size_t w = 1; w < workers; ++w) {
    acc = mont.MontMul(acc, partial[w]);
  }
  return mont.FromMont(acc);
}

std::vector<Group::Elem> ToElems(const Group& group, const std::vector<BigInt>& bases) {
  std::vector<Group::Elem> out;
  out.reserve(bases.size());
  for (const BigInt& b : bases) {
    out.push_back(group.ToElem(b));
  }
  return out;
}

}  // namespace

BigInt MultiExp(const Group& group, const std::vector<Group::Elem>& bases,
                const std::vector<BigInt>& exps, size_t num_threads) {
  return MultiExpImpl(group, bases, exps, /*secret=*/false, num_threads);
}

BigInt MultiExp(const Group& group, const std::vector<BigInt>& bases,
                const std::vector<BigInt>& exps, size_t num_threads) {
  return MultiExpImpl(group, ToElems(group, bases), exps, /*secret=*/false, num_threads);
}

BigInt MultiExpSecret(const Group& group, const std::vector<Group::Elem>& bases,
                      const std::vector<BigInt>& exps, size_t num_threads) {
  return MultiExpImpl(group, bases, exps, /*secret=*/true, num_threads);
}

BigInt MultiExpSecret(const Group& group, const std::vector<BigInt>& bases,
                      const std::vector<BigInt>& exps, size_t num_threads) {
  return MultiExpImpl(group, ToElems(group, bases), exps, /*secret=*/true, num_threads);
}

}  // namespace dissent
