#include "src/crypto/shuffle.h"

#include <cassert>
#include <numeric>

#include "src/crypto/multiexp.h"
#include "src/util/parallel.h"

namespace dissent {

namespace {

void AppendStatement(const Group& group, Transcript& transcript, const BigInt& h,
                     const CiphertextMatrix& inputs, const CiphertextMatrix& outputs) {
  transcript.AppendElement(group, "shuf.h", h);
  transcript.AppendU64("shuf.k", inputs.size());
  transcript.AppendU64("shuf.width", inputs.empty() ? 0 : inputs[0].size());
  for (const auto& row : inputs) {
    for (const auto& ct : row) {
      transcript.AppendElement(group, "shuf.in.a", ct.a);
      transcript.AppendElement(group, "shuf.in.b", ct.b);
    }
  }
  for (const auto& row : outputs) {
    for (const auto& ct : row) {
      transcript.AppendElement(group, "shuf.out.a", ct.a);
      transcript.AppendElement(group, "shuf.out.b", ct.b);
    }
  }
}

std::vector<BigInt> DrawExponents(const Group& group, Transcript& transcript, size_t k) {
  std::vector<BigInt> e(k);
  for (size_t i = 0; i < k; ++i) {
    BigInt v = transcript.ChallengeScalar(group, "shuf.e");
    if (v.IsZero()) {
      v = BigInt(1);  // keep exponents invertible; the bias is negligible
    }
    e[i] = v;
  }
  return e;
}

bool ValidMatrix(const Group& group, const CiphertextMatrix& m, size_t k, size_t width) {
  if (m.size() != k) {
    return false;
  }
  for (const auto& row : m) {
    if (row.size() != width) {
      return false;
    }
    for (const auto& ct : row) {
      if (!group.IsElement(ct.a) || !group.IsElement(ct.b)) {
        return false;
      }
    }
  }
  return true;
}

// Column views of a ciphertext matrix in the Montgomery domain: the a (or b)
// components of column l as MultiExp-ready bases. Converting once up front
// (one MontMul per element) lets every product-of-powers relation over the
// matrix reuse the same Elems instead of re-entering the Montgomery domain
// per relation.
std::vector<std::vector<Group::Elem>> ColumnElems(const Group& group,
                                                  const CiphertextMatrix& m, bool b_component,
                                                  size_t num_threads) {
  const size_t k = m.size();
  const size_t width = k == 0 ? 0 : m[0].size();
  std::vector<std::vector<Group::Elem>> cols(width, std::vector<Group::Elem>(k));
  ParallelFor(k, num_threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t l = 0; l < width; ++l) {
        cols[l][i] = group.ToElem(b_component ? m[i][l].b : m[i][l].a);
      }
    }
  });
  return cols;
}

}  // namespace

ShuffleResult ApplyRandomShuffle(const Group& group, const BigInt& h,
                                 const CiphertextMatrix& inputs, SecureRng& rng) {
  const size_t k = inputs.size();
  ShuffleResult result;
  result.witness.perm.resize(k);
  std::iota(result.witness.perm.begin(), result.witness.perm.end(), 0);
  // Fisher-Yates with crypto randomness.
  for (size_t i = k; i > 1; --i) {
    size_t j = static_cast<size_t>(rng.RandomBelow(BigInt(i)).Low64());
    std::swap(result.witness.perm[i - 1], result.witness.perm[j]);
  }
  result.outputs.resize(k);
  result.witness.factors.resize(k);
  // All randomness is drawn serially (same stream order as the sequential
  // reference), then the pure re-encryption exponentiations fan out across
  // workers — the outputs are bit-identical for any thread count.
  for (size_t i = 0; i < k; ++i) {
    const auto& src = inputs[result.witness.perm[i]];
    result.outputs[i].resize(src.size());
    result.witness.factors[i].resize(src.size());
    for (size_t l = 0; l < src.size(); ++l) {
      result.witness.factors[i][l] = group.RandomScalar(rng);
    }
  }
  group.CachedTable(h);  // warm the shared h table before workers race to it
  ParallelFor(k, DefaultCryptoThreads(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& src = inputs[result.witness.perm[i]];
      for (size_t l = 0; l < src.size(); ++l) {
        result.outputs[i][l] =
            ElGamalReEncrypt(group, h, src[l], result.witness.factors[i][l]);
      }
    }
  });
  return result;
}

ShuffleProof ShuffleProve(const Group& group, const BigInt& h, const CiphertextMatrix& inputs,
                          const CiphertextMatrix& outputs, const ShuffleWitness& witness,
                          SecureRng& rng) {
  const size_t k = inputs.size();
  assert(k >= 2);
  const size_t width = inputs[0].size();
  assert(outputs.size() == k && witness.perm.size() == k && witness.factors.size() == k);
  const size_t threads = DefaultCryptoThreads();

  Transcript transcript("dissent.shuffle.v1");
  AppendStatement(group, transcript, h, inputs, outputs);

  ShuffleProof proof;
  BigInt gamma = rng.RandomNonZeroBelow(group.q());
  proof.gamma_commit = group.GExpSecret(gamma);
  transcript.AppendElement(group, "shuf.Gamma", proof.gamma_commit);

  std::vector<BigInt> e = DrawExponents(group, transcript, k);
  std::vector<BigInt> e_elems(k);
  ParallelFor(k, threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      e_elems[i] = group.GExp(e[i]);
    }
  });

  // Layer 1: F_i = g^{gamma * e_{perm(i)}} plus the simple-shuffle proof.
  std::vector<BigInt> f(k);
  proof.f_elems.resize(k);
  for (size_t i = 0; i < k; ++i) {
    f[i] = group.MulScalars(gamma, e[witness.perm[i]]);
  }
  ParallelFor(k, threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      proof.f_elems[i] = group.GExpSecret(f[i]);
    }
  });
  for (size_t i = 0; i < k; ++i) {
    transcript.AppendElement(group, "shuf.F", proof.f_elems[i]);
  }
  proof.perm_proof = SimpleShuffleProve(group, transcript, e_elems, proof.f_elems,
                                        proof.gamma_commit, e, gamma, witness.perm, rng);

  // Montgomery-domain column views shared by layers 2 and 3.
  const auto out_a = ColumnElems(group, outputs, /*b_component=*/false, threads);
  const auto out_b = ColumnElems(group, outputs, /*b_component=*/true, threads);
  const auto in_a = ColumnElems(group, inputs, /*b_component=*/false, threads);
  const auto in_b = ColumnElems(group, inputs, /*b_component=*/true, threads);

  // Layer 2: products Q and the generalized Schnorr binding. The f_i are
  // secret (they encode the permutation), so the column products run through
  // the constant-time MultiExp.
  proof.q_a.resize(width);
  proof.q_b.resize(width);
  for (size_t l = 0; l < width; ++l) {
    proof.q_a[l] = MultiExpSecret(group, out_a[l], f, threads);
    proof.q_b[l] = MultiExpSecret(group, out_b[l], f, threads);
  }
  for (size_t l = 0; l < width; ++l) {
    transcript.AppendElement(group, "shuf.QA", proof.q_a[l]);
    transcript.AppendElement(group, "shuf.QB", proof.q_b[l]);
  }

  std::vector<BigInt> w(k);
  for (size_t i = 0; i < k; ++i) {
    w[i] = group.RandomScalar(rng);
  }
  proof.bind_t_f.resize(k);
  ParallelFor(k, threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      proof.bind_t_f[i] = group.GExpSecret(w[i]);
    }
  });
  for (size_t i = 0; i < k; ++i) {
    transcript.AppendElement(group, "shuf.bind.TF", proof.bind_t_f[i]);
  }
  proof.bind_t_qa.resize(width);
  proof.bind_t_qb.resize(width);
  for (size_t l = 0; l < width; ++l) {
    proof.bind_t_qa[l] = MultiExpSecret(group, out_a[l], w, threads);
    proof.bind_t_qb[l] = MultiExpSecret(group, out_b[l], w, threads);
  }
  for (size_t l = 0; l < width; ++l) {
    transcript.AppendElement(group, "shuf.bind.TQA", proof.bind_t_qa[l]);
    transcript.AppendElement(group, "shuf.bind.TQB", proof.bind_t_qb[l]);
  }
  BigInt c1 = transcript.ChallengeScalar(group, "shuf.c1");
  proof.bind_z.resize(k);
  for (size_t i = 0; i < k; ++i) {
    proof.bind_z[i] = group.AddScalars(w[i], group.MulScalars(c1, f[i]));
    transcript.AppendScalar(group, "shuf.bind.z", proof.bind_z[i]);
  }

  // Layer 3: product argument over verifier-computable PA/PB (e_i public).
  std::vector<BigInt> p_a(width), p_b(width);
  for (size_t l = 0; l < width; ++l) {
    p_a[l] = MultiExp(group, in_a[l], e, threads);
    p_b[l] = MultiExp(group, in_b[l], e, threads);
  }
  std::vector<BigInt> bhat(width);
  for (size_t l = 0; l < width; ++l) {
    BigInt acc;
    for (size_t i = 0; i < k; ++i) {
      acc = group.AddScalars(acc, group.MulScalars(witness.factors[i][l], f[i]));
    }
    bhat[l] = acc;
  }

  auto h_table = group.CachedTable(h);
  BigInt s = group.RandomScalar(rng);
  std::vector<BigInt> t(width);
  proof.prod_t_a.resize(width);
  proof.prod_t_b.resize(width);
  for (size_t l = 0; l < width; ++l) {
    t[l] = group.RandomScalar(rng);
    proof.prod_t_a[l] =
        group.MulElems(group.GExpSecret(t[l]), group.ExpSecret(p_a[l], s));
    proof.prod_t_b[l] =
        group.MulElems(h_table->ExpSecret(t[l]), group.ExpSecret(p_b[l], s));
    transcript.AppendElement(group, "shuf.prod.TA", proof.prod_t_a[l]);
    transcript.AppendElement(group, "shuf.prod.TB", proof.prod_t_b[l]);
  }
  proof.prod_t_gamma = group.GExpSecret(s);
  transcript.AppendElement(group, "shuf.prod.Tg", proof.prod_t_gamma);

  BigInt c2 = transcript.ChallengeScalar(group, "shuf.c2");
  proof.prod_z_s = group.AddScalars(s, group.MulScalars(c2, gamma));
  proof.prod_z_t.resize(width);
  for (size_t l = 0; l < width; ++l) {
    proof.prod_z_t[l] = group.AddScalars(t[l], group.MulScalars(c2, bhat[l]));
  }
  return proof;
}

bool ShuffleVerify(const Group& group, const BigInt& h, const CiphertextMatrix& inputs,
                   const CiphertextMatrix& outputs, const ShuffleProof& proof) {
  const size_t k = inputs.size();
  if (k < 2 || inputs[0].empty()) {
    return false;
  }
  const size_t width = inputs[0].size();
  if (!group.IsElement(h) || !ValidMatrix(group, inputs, k, width) ||
      !ValidMatrix(group, outputs, k, width)) {
    return false;
  }
  if (proof.f_elems.size() != k || proof.bind_t_f.size() != k || proof.bind_z.size() != k ||
      proof.q_a.size() != width || proof.q_b.size() != width ||
      proof.bind_t_qa.size() != width || proof.bind_t_qb.size() != width ||
      proof.prod_t_a.size() != width || proof.prod_t_b.size() != width ||
      proof.prod_z_t.size() != width) {
    return false;
  }
  auto all_elements = [&group](const std::vector<BigInt>& v) {
    for (const BigInt& x : v) {
      if (!group.IsElement(x)) {
        return false;
      }
    }
    return true;
  };
  if (!group.IsElement(proof.gamma_commit) || !group.IsElement(proof.prod_t_gamma) ||
      !all_elements(proof.f_elems) || !all_elements(proof.q_a) || !all_elements(proof.q_b) ||
      !all_elements(proof.bind_t_f) || !all_elements(proof.bind_t_qa) ||
      !all_elements(proof.bind_t_qb) || !all_elements(proof.prod_t_a) ||
      !all_elements(proof.prod_t_b)) {
    return false;
  }
  auto all_scalars = [&group](const std::vector<BigInt>& v) {
    for (const BigInt& x : v) {
      if (BigInt::Cmp(x, group.q()) >= 0) {
        return false;
      }
    }
    return true;
  };
  if (!all_scalars(proof.bind_z) || !all_scalars(proof.prod_z_t) ||
      BigInt::Cmp(proof.prod_z_s, group.q()) >= 0) {
    return false;
  }
  const size_t threads = DefaultCryptoThreads();

  Transcript transcript("dissent.shuffle.v1");
  AppendStatement(group, transcript, h, inputs, outputs);
  transcript.AppendElement(group, "shuf.Gamma", proof.gamma_commit);

  std::vector<BigInt> e = DrawExponents(group, transcript, k);
  std::vector<BigInt> e_elems(k);
  ParallelFor(k, threads, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      e_elems[i] = group.GExp(e[i]);
    }
  });
  for (size_t i = 0; i < k; ++i) {
    transcript.AppendElement(group, "shuf.F", proof.f_elems[i]);
  }

  // Layer 1.
  if (!SimpleShuffleVerify(group, transcript, e_elems, proof.f_elems, proof.gamma_commit,
                           proof.perm_proof)) {
    return false;
  }

  // Layer 2.
  for (size_t l = 0; l < width; ++l) {
    transcript.AppendElement(group, "shuf.QA", proof.q_a[l]);
    transcript.AppendElement(group, "shuf.QB", proof.q_b[l]);
  }
  for (size_t i = 0; i < k; ++i) {
    transcript.AppendElement(group, "shuf.bind.TF", proof.bind_t_f[i]);
  }
  for (size_t l = 0; l < width; ++l) {
    transcript.AppendElement(group, "shuf.bind.TQA", proof.bind_t_qa[l]);
    transcript.AppendElement(group, "shuf.bind.TQB", proof.bind_t_qb[l]);
  }
  BigInt c1 = transcript.ChallengeScalar(group, "shuf.c1");
  for (size_t i = 0; i < k; ++i) {
    transcript.AppendScalar(group, "shuf.bind.z", proof.bind_z[i]);
  }
  // Fold the k per-index checks g^{z_i} == TF_i * F_i^{c1} into one
  // relation under deterministic weights (bound to c1 — which transitively
  // binds the statement and commitments — plus the responses):
  //   g^{sum v_i z_i} == prod TF_i^{v_i} * prod F_i^{c1 v_i}.
  Transcript wt("dissent.shuffle.bind.batchverify.v1");
  wt.AppendScalar(group, "c1", c1);
  for (size_t i = 0; i < k; ++i) {
    wt.AppendScalar(group, "z", proof.bind_z[i]);
  }
  BigInt combined(0);
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
  bases.reserve(2 * k);
  exps.reserve(2 * k);
  for (size_t i = 0; i < k; ++i) {
    BigInt v = DrawBatchWeight128(wt, "u");
    combined = group.AddScalars(combined, group.MulScalars(v, proof.bind_z[i]));
    bases.push_back(proof.bind_t_f[i]);
    exps.push_back(v);
    bases.push_back(proof.f_elems[i]);
    exps.push_back(group.MulScalars(c1, v));
  }
  if (group.GExp(combined) != MultiExp(group, bases, exps, threads)) {
    return false;
  }
  const auto out_a = ColumnElems(group, outputs, /*b_component=*/false, threads);
  const auto out_b = ColumnElems(group, outputs, /*b_component=*/true, threads);
  const auto in_a = ColumnElems(group, inputs, /*b_component=*/false, threads);
  const auto in_b = ColumnElems(group, inputs, /*b_component=*/true, threads);
  for (size_t l = 0; l < width; ++l) {
    // prod OutA_i^{z_i} == TQA * QA^{c1}, and likewise for the b column.
    if (MultiExp(group, out_a[l], proof.bind_z, threads) !=
        group.MulElems(proof.bind_t_qa[l], group.Exp(proof.q_a[l], c1))) {
      return false;
    }
    if (MultiExp(group, out_b[l], proof.bind_z, threads) !=
        group.MulElems(proof.bind_t_qb[l], group.Exp(proof.q_b[l], c1))) {
      return false;
    }
  }

  // Layer 3.
  std::vector<BigInt> p_a(width), p_b(width);
  for (size_t l = 0; l < width; ++l) {
    p_a[l] = MultiExp(group, in_a[l], e, threads);
    p_b[l] = MultiExp(group, in_b[l], e, threads);
  }
  for (size_t l = 0; l < width; ++l) {
    transcript.AppendElement(group, "shuf.prod.TA", proof.prod_t_a[l]);
    transcript.AppendElement(group, "shuf.prod.TB", proof.prod_t_b[l]);
  }
  transcript.AppendElement(group, "shuf.prod.Tg", proof.prod_t_gamma);
  BigInt c2 = transcript.ChallengeScalar(group, "shuf.c2");

  // g^{z_s} == Tg * Gamma^{c2}
  if (group.GExp(proof.prod_z_s) !=
      group.MulElems(proof.prod_t_gamma, group.Exp(proof.gamma_commit, c2))) {
    return false;
  }
  auto h_table = group.CachedTable(h);
  for (size_t l = 0; l < width; ++l) {
    // g^{z_t} * PA^{z_s} == TA * QA^{c2}
    BigInt lhs = group.MulElems(group.GExp(proof.prod_z_t[l]),
                                group.Exp(p_a[l], proof.prod_z_s));
    BigInt rhs = group.MulElems(proof.prod_t_a[l], group.Exp(proof.q_a[l], c2));
    if (lhs != rhs) {
      return false;
    }
    // h^{z_t} * PB^{z_s} == TB * QB^{c2}
    lhs = group.MulElems(h_table->Exp(proof.prod_z_t[l]), group.Exp(p_b[l], proof.prod_z_s));
    rhs = group.MulElems(proof.prod_t_b[l], group.Exp(proof.q_b[l], c2));
    if (lhs != rhs) {
      return false;
    }
  }
  return true;
}

}  // namespace dissent
