#include "src/crypto/simple_shuffle.h"

#include <cassert>
#include <cstdlib>

namespace dissent {

namespace {

// Appends the statement and draws the shift challenge t.
BigInt DrawShift(const Group& group, Transcript& transcript, const std::vector<BigInt>& xs,
                 const std::vector<BigInt>& ys, const BigInt& gamma_commit) {
  transcript.AppendU64("sshuf.k", xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    transcript.AppendElement(group, "sshuf.x", xs[i]);
    transcript.AppendElement(group, "sshuf.y", ys[i]);
  }
  transcript.AppendElement(group, "sshuf.gamma", gamma_commit);
  return transcript.ChallengeScalar(group, "sshuf.t");
}

// Builds the 2k ILMPP statement sequences from the public values. The two
// shift products run in the Montgomery domain: the shift factors are
// converted to Elem once and each sequence entry costs one conversion + one
// MontMul instead of a full ModMul round trip per element.
void BuildSequences(const Group& group, const std::vector<BigInt>& xs,
                    const std::vector<BigInt>& ys, const BigInt& gamma_commit, const BigInt& t,
                    std::vector<BigInt>* seq_x, std::vector<BigInt>* seq_y) {
  const size_t k = xs.size();
  BigInt neg_t = group.NegScalar(t);
  BigInt g_neg_t = group.GExp(neg_t);                  // g^{-t}
  BigInt gamma_neg_t = group.Exp(gamma_commit, neg_t);  // Gamma^{-t}
  seq_x->clear();
  seq_y->clear();
  seq_x->reserve(2 * k);
  seq_y->reserve(2 * k);
  Group::Elem g_shift = group.ToElem(g_neg_t);
  Group::Elem gamma_shift = group.ToElem(gamma_neg_t);
  for (size_t i = 0; i < k; ++i) {
    seq_x->push_back(group.FromElem(group.MulElems(group.ToElem(xs[i]), g_shift)));
  }
  for (size_t i = 0; i < k; ++i) {
    seq_x->push_back(gamma_commit);
  }
  for (size_t i = 0; i < k; ++i) {
    seq_y->push_back(group.FromElem(group.MulElems(group.ToElem(ys[i]), gamma_shift)));
  }
  for (size_t i = 0; i < k; ++i) {
    seq_y->push_back(group.g());
  }
}

}  // namespace

SimpleShuffleProof SimpleShuffleProve(const Group& group, Transcript& transcript,
                                      const std::vector<BigInt>& xs,
                                      const std::vector<BigInt>& ys, const BigInt& gamma_commit,
                                      const std::vector<BigInt>& x_logs, const BigInt& gamma,
                                      const std::vector<size_t>& perm, SecureRng& rng) {
  const size_t k = xs.size();
  assert(ys.size() == k && x_logs.size() == k && perm.size() == k);

  BigInt t = DrawShift(group, transcript, xs, ys, gamma_commit);

  std::vector<BigInt> seq_x, seq_y;
  BuildSequences(group, xs, ys, gamma_commit, t, &seq_x, &seq_y);

  // Witness logs.
  std::vector<BigInt> logs_x, logs_y;
  logs_x.reserve(2 * k);
  logs_y.reserve(2 * k);
  for (size_t i = 0; i < k; ++i) {
    logs_x.push_back(group.SubScalars(x_logs[i], t));  // xhat_i
  }
  for (size_t i = 0; i < k; ++i) {
    logs_x.push_back(gamma);
  }
  BigInt gamma_t = group.MulScalars(gamma, t);
  for (size_t i = 0; i < k; ++i) {
    // yhat_i = y_i - gamma*t = gamma * (x_{perm(i)} - t)
    BigInt y_log = group.MulScalars(gamma, x_logs[perm[i]]);
    logs_y.push_back(group.SubScalars(y_log, gamma_t));
  }
  for (size_t i = 0; i < k; ++i) {
    logs_y.push_back(BigInt(1));
  }

  SimpleShuffleProof proof;
  proof.ilmpp = IlmppProve(group, transcript, seq_x, seq_y, logs_x, logs_y, rng);
  return proof;
}

bool SimpleShuffleVerify(const Group& group, Transcript& transcript,
                         const std::vector<BigInt>& xs, const std::vector<BigInt>& ys,
                         const BigInt& gamma_commit, const SimpleShuffleProof& proof) {
  const size_t k = xs.size();
  if (k == 0 || ys.size() != k || !group.IsElement(gamma_commit)) {
    return false;
  }
  for (size_t i = 0; i < k; ++i) {
    if (!group.IsElement(xs[i]) || !group.IsElement(ys[i])) {
      return false;
    }
  }
  BigInt t = DrawShift(group, transcript, xs, ys, gamma_commit);
  std::vector<BigInt> seq_x, seq_y;
  BuildSequences(group, xs, ys, gamma_commit, t, &seq_x, &seq_y);
  return IlmppVerify(group, transcript, seq_x, seq_y, proof.ilmpp);
}

}  // namespace dissent
