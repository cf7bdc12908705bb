#include "src/crypto/schnorr.h"

#include "src/crypto/multiexp.h"
#include "src/crypto/transcript.h"
#include "src/util/serialize.h"

namespace dissent {

namespace {
BigInt Challenge(const Group& group, const BigInt& pub, const BigInt& commit,
                 const Bytes& message) {
  Transcript t("dissent.schnorr.v1");
  t.AppendElement(group, "pub", pub);
  t.AppendElement(group, "commit", commit);
  t.AppendBytes("msg", message);
  return t.ChallengeScalar(group, "c");
}
}  // namespace

SchnorrKeyPair SchnorrKeyPair::Generate(const Group& group, SecureRng& rng) {
  SchnorrKeyPair kp;
  kp.priv = rng.RandomNonZeroBelow(group.q());
  kp.pub = group.GExpSecret(kp.priv);
  return kp;
}

Bytes SchnorrSignature::Serialize(const Group& group) const {
  Writer w;
  w.Blob(group.ElementToBytes(commit));
  w.Blob(group.ScalarToBytes(response));
  return w.Take();
}

std::optional<SchnorrSignature> SchnorrSignature::Deserialize(const Group& group,
                                                              const Bytes& data) {
  Reader r(data);
  Bytes commit_b, response_b;
  if (!r.Blob(&commit_b) || !r.Blob(&response_b) || !r.AtEnd()) {
    return std::nullopt;
  }
  auto commit = group.ElementFromBytes(commit_b);
  auto response = group.ScalarFromBytes(response_b);
  if (!commit || !response) {
    return std::nullopt;
  }
  return SchnorrSignature{*commit, *response};
}

SchnorrSignature SchnorrSign(const Group& group, const BigInt& priv, const Bytes& message,
                             SecureRng& rng) {
  BigInt k = rng.RandomNonZeroBelow(group.q());
  SchnorrSignature sig;
  sig.commit = group.GExpSecret(k);
  BigInt pub = group.GExpSecret(priv);
  BigInt c = Challenge(group, pub, sig.commit, message);
  sig.response = group.AddScalars(k, group.MulScalars(c, priv));
  return sig;
}

bool SchnorrVerify(const Group& group, const BigInt& pub, const Bytes& message,
                   const SchnorrSignature& sig) {
  if (!group.IsElement(pub) || !group.IsElement(sig.commit)) {
    return false;
  }
  if (BigInt::Cmp(sig.response, group.q()) >= 0) {
    return false;
  }
  BigInt c = Challenge(group, pub, sig.commit, message);
  // g^s == R * y^c. The generator side rides the comb; pub is effectively
  // one-shot at every call site (per-client blame rows, pseudonym keys), so
  // y^c stays on the generic ladder.
  BigInt lhs = group.GExp(sig.response);
  BigInt rhs = group.MulElems(sig.commit, group.Exp(pub, c));
  return lhs == rhs;
}

bool SchnorrMultiVerify(const Group& group, const std::vector<BigInt>& pubs,
                        const Bytes& message, const std::vector<SchnorrSignature>& sigs) {
  if (pubs.size() != sigs.size()) {
    return false;
  }
  if (sigs.empty()) {
    return true;
  }
  if (sigs.size() == 1) {
    return SchnorrVerify(group, pubs[0], message, sigs[0]);
  }
  // Structural checks first (the commits come from the wire; the pubs are
  // roster keys). A response >= q or a commit outside the subgroup can never
  // verify, batched or not.
  for (const SchnorrSignature& sig : sigs) {
    if (!group.IsElement(sig.commit) || BigInt::Cmp(sig.response, group.q()) >= 0) {
      return false;
    }
  }
  // Weights bind to the entire batch: an attacker fixing the signatures fixes
  // the weights, so steering the combined check is as hard as finding a hash
  // preimage. 128-bit weights keep the slack negligible at half the exponent
  // width of a full verify.
  Transcript t("dissent.schnorr.batch.v1");
  t.AppendBytes("msg", message);
  for (size_t i = 0; i < sigs.size(); ++i) {
    t.AppendElement(group, "pub", pubs[i]);
    t.AppendElement(group, "commit", sigs[i].commit);
    t.AppendScalar(group, "response", sigs[i].response);
  }
  // The whole batch is one product-of-powers relation:
  //   g^{sum z_i s_i} == prod R_i^{z_i} * prod y_i^{c_i z_i}
  // — a single interleaved MultiExp over 2n bases instead of 2n
  // independent ladders.
  BigInt combined_exp(0);  // sum z_i s_i  (mod q)
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
  bases.reserve(2 * sigs.size());
  exps.reserve(2 * sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    BigInt z = DrawBatchWeight128(t, "z");
    BigInt c = Challenge(group, pubs[i], sigs[i].commit, message);
    combined_exp = group.AddScalars(combined_exp, group.MulScalars(z, sigs[i].response));
    BigInt cz = group.MulScalars(c, z);
    bases.push_back(sigs[i].commit);
    exps.push_back(std::move(z));
    bases.push_back(pubs[i]);
    exps.push_back(std::move(cz));
  }
  return group.GExp(combined_exp) == MultiExp(group, bases, exps);
}

}  // namespace dissent
