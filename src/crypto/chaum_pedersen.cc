#include "src/crypto/chaum_pedersen.h"

#include "src/crypto/multiexp.h"
#include "src/crypto/transcript.h"
#include "src/util/serialize.h"

namespace dissent {

namespace {
BigInt Challenge(const Group& group, const BigInt& g1, const BigInt& h1, const BigInt& g2,
                 const BigInt& h2, const BigInt& c1, const BigInt& c2) {
  Transcript t("dissent.dleq.v1");
  t.AppendElement(group, "g1", g1);
  t.AppendElement(group, "h1", h1);
  t.AppendElement(group, "g2", g2);
  t.AppendElement(group, "h2", h2);
  t.AppendElement(group, "t1", c1);
  t.AppendElement(group, "t2", c2);
  return t.ChallengeScalar(group, "c");
}
}  // namespace

Bytes DleqProof::Serialize(const Group& group) const {
  Writer w;
  w.Blob(group.ElementToBytes(commit1));
  w.Blob(group.ElementToBytes(commit2));
  w.Blob(group.ScalarToBytes(response));
  return w.Take();
}

std::optional<DleqProof> DleqProof::Deserialize(const Group& group, const Bytes& data) {
  Reader r(data);
  Bytes c1, c2, resp;
  if (!r.Blob(&c1) || !r.Blob(&c2) || !r.Blob(&resp) || !r.AtEnd()) {
    return std::nullopt;
  }
  auto e1 = group.ElementFromBytes(c1);
  auto e2 = group.ElementFromBytes(c2);
  auto s = group.ScalarFromBytes(resp);
  if (!e1 || !e2 || !s) {
    return std::nullopt;
  }
  return DleqProof{*e1, *e2, *s};
}

DleqProof DleqProve(const Group& group, const BigInt& g1, const BigInt& h1, const BigInt& g2,
                    const BigInt& h2, const BigInt& x, SecureRng& rng) {
  return DleqProveWithNonce(group, g1, h1, g2, h2, x, group.RandomScalar(rng));
}

DleqProof DleqProveWithNonce(const Group& group, const BigInt& g1, const BigInt& h1,
                             const BigInt& g2, const BigInt& h2, const BigInt& x,
                             const BigInt& w) {
  DleqProof proof;
  // g1 is the group generator in every protocol use: take the comb.
  proof.commit1 =
      g1 == group.g() ? group.GExpSecret(w) : group.ExpSecret(g1, w);
  proof.commit2 = group.ExpSecret(g2, w);
  BigInt c = Challenge(group, g1, h1, g2, h2, proof.commit1, proof.commit2);
  proof.response = group.AddScalars(w, group.MulScalars(c, x));
  return proof;
}

bool DleqVerify(const Group& group, const BigInt& g1, const BigInt& h1, const BigInt& g2,
                const BigInt& h2, const DleqProof& proof) {
  for (const BigInt* e : {&g1, &h1, &g2, &h2, &proof.commit1, &proof.commit2}) {
    if (!group.IsElement(*e)) {
      return false;
    }
  }
  if (BigInt::Cmp(proof.response, group.q()) >= 0) {
    return false;  // over-range response: same verdict as the batched path
  }
  BigInt c = Challenge(group, g1, h1, g2, h2, proof.commit1, proof.commit2);
  // g1^r == t1 * h1^c  and  g2^r == t2 * h2^c. Lookup-only table reuse: h1
  // repeats on cascade paths (a table may exist from the shuffle's combined
  // keys) but is one-shot on rebuttal paths, where a build would cost more
  // than it saves.
  BigInt lhs1 = g1 == group.g() ? group.GExp(proof.response) : group.Exp(g1, proof.response);
  auto h1_table = group.FindCachedTable(h1);
  BigInt h1c = h1_table ? h1_table->Exp(c) : group.Exp(h1, c);
  if (lhs1 != group.MulElems(proof.commit1, h1c)) {
    return false;
  }
  return group.Exp(g2, proof.response) == group.MulElems(proof.commit2, group.Exp(h2, c));
}

bool DleqBatchVerify(const Group& group, const BigInt& g1, const BigInt& h1,
                     const std::vector<DleqBatchItem>& items) {
  if (items.empty()) {
    return true;
  }
  if (items.size() == 1) {
    return DleqVerify(group, g1, h1, items[0].g2, items[0].h2, items[0].proof);
  }
  // Structural checks first: a commit outside the subgroup or an over-range
  // response can never verify, batched or not — and order-q membership is
  // what makes the mod-q weight algebra below sound.
  if (!group.IsElement(g1) || !group.IsElement(h1)) {
    return false;
  }
  for (const DleqBatchItem& item : items) {
    if (!group.IsElement(item.g2) || !group.IsElement(item.h2) ||
        !group.IsElement(item.proof.commit1) || !group.IsElement(item.proof.commit2) ||
        BigInt::Cmp(item.proof.response, group.q()) >= 0) {
      return false;
    }
  }
  // Deterministic 128-bit weights bound to the whole batch: fixing the batch
  // fixes the weights, so steering the combined relation past a bad proof is
  // as hard as a hash preimage (the standard small-exponent batch argument).
  Transcript t("dissent.dleq.batch.v1");
  t.AppendElement(group, "g1", g1);
  t.AppendElement(group, "h1", h1);
  for (const DleqBatchItem& item : items) {
    t.AppendElement(group, "g2", item.g2);
    t.AppendElement(group, "h2", item.h2);
    t.AppendElement(group, "t1", item.proof.commit1);
    t.AppendElement(group, "t2", item.proof.commit2);
    t.AppendScalar(group, "s", item.proof.response);
  }
  auto draw_weight = [&t]() { return DrawBatchWeight128(t, "w"); };
  // prod_i [ g1^{u_i s_i} T1_i^{-u_i} h1^{-u_i c_i} ] *
  // prod_i [ g2_i^{v_i s_i} T2_i^{-v_i} h2_i^{-v_i c_i} ]  ==  1
  // (the repeated g1/h1 bases are merged by MultiExp's dedup pass).
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
  bases.reserve(6 * items.size());
  exps.reserve(6 * items.size());
  for (const DleqBatchItem& item : items) {
    const DleqProof& proof = item.proof;
    BigInt c = Challenge(group, g1, h1, item.g2, item.h2, proof.commit1, proof.commit2);
    BigInt u = draw_weight();
    BigInt v = draw_weight();
    bases.push_back(g1);
    exps.push_back(group.MulScalars(u, proof.response));
    bases.push_back(proof.commit1);
    exps.push_back(group.NegScalar(u));
    bases.push_back(h1);
    exps.push_back(group.NegScalar(group.MulScalars(u, c)));
    bases.push_back(item.g2);
    exps.push_back(group.MulScalars(v, proof.response));
    bases.push_back(proof.commit2);
    exps.push_back(group.NegScalar(v));
    bases.push_back(item.h2);
    exps.push_back(group.NegScalar(group.MulScalars(v, c)));
  }
  return MultiExp(group, bases, exps).IsOne();
}

}  // namespace dissent
