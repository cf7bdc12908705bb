#include "src/crypto/ilmpp.h"

#include <cassert>
#include <cstdlib>

#include "src/crypto/multiexp.h"
#include "src/util/parallel.h"

namespace dissent {

namespace {

// Folds the statement and commitments into the transcript and draws gamma.
BigInt DrawGamma(const Group& group, Transcript& transcript, const std::vector<BigInt>& xs,
                 const std::vector<BigInt>& ys, const std::vector<BigInt>& commits) {
  transcript.AppendU64("ilmpp.k", xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    transcript.AppendElement(group, "ilmpp.x", xs[i]);
    transcript.AppendElement(group, "ilmpp.y", ys[i]);
  }
  for (const BigInt& a : commits) {
    transcript.AppendElement(group, "ilmpp.A", a);
  }
  return transcript.ChallengeScalar(group, "ilmpp.gamma");
}

}  // namespace

IlmppProof IlmppProve(const Group& group, Transcript& transcript, const std::vector<BigInt>& xs,
                      const std::vector<BigInt>& ys, const std::vector<BigInt>& x_logs,
                      const std::vector<BigInt>& y_logs, SecureRng& rng) {
  const size_t k = xs.size();
  assert(k >= 2);
  assert(ys.size() == k && x_logs.size() == k && y_logs.size() == k);

  // Witness sanity (debug aid; the honest caller always satisfies these).
  BigInt px(1), py(1);
  for (size_t i = 0; i < k; ++i) {
    px = group.MulScalars(px, x_logs[i]);
    py = group.MulScalars(py, y_logs[i]);
  }
  if (px != py) {
    std::abort();
  }

  std::vector<BigInt> theta(k - 1);
  for (auto& t : theta) {
    t = group.RandomScalar(rng);
  }

  IlmppProof proof;
  proof.commits.resize(k);
  // The prover knows the discrete logs of the statement (X_i = g^{x_i},
  // Y_i = g^{y_i}), so every commitment is a single fixed-base comb
  // exponentiation of the generator:
  //   A_i = X_i^{theta_{i-1}} * Y_i^{theta_i} = g^{x_i th_{i-1} + y_i th_i}
  // — two random-base ladders collapse into one comb eval per element.
  // theta is secret, so the exponents are too: constant-time path.
  proof.commits[0] = group.GExpSecret(group.MulScalars(y_logs[0], theta[0]));
  for (size_t i = 1; i + 1 < k; ++i) {
    proof.commits[i] = group.GExpSecret(
        group.AddScalars(group.MulScalars(x_logs[i], theta[i - 1]),
                         group.MulScalars(y_logs[i], theta[i])));
  }
  proof.commits[k - 1] = group.GExpSecret(group.MulScalars(x_logs[k - 1], theta[k - 2]));

  BigInt gamma = DrawGamma(group, transcript, xs, ys, proof.commits);

  // r_i = theta_i + (-1)^(i+1 in 1-based) * gamma * P_i, where
  // P_i = prod_{j<=i} x_j / y_j. In 1-based terms t_i = (-1)^i gamma P_i:
  // odd index => subtract, even index => add.
  proof.responses.resize(k - 1);
  // One batch inversion replaces k-1 serial extended-gcd inversions (the
  // former dominated prover time at cascade scale).
  std::vector<BigInt> y_invs =
      group.BatchInvScalars(std::vector<BigInt>(y_logs.begin(), y_logs.end() - 1));
  BigInt prefix(1);  // P_i
  for (size_t i = 0; i < k - 1; ++i) {
    if (y_invs[i].IsZero()) {
      std::abort();  // y_log not invertible: probability ~ k/q
    }
    prefix = group.MulScalars(prefix, group.MulScalars(x_logs[i], y_invs[i]));
    BigInt term = group.MulScalars(gamma, prefix);
    bool one_based_odd = (i % 2 == 0);  // i=0 is index 1
    proof.responses[i] = one_based_odd ? group.SubScalars(theta[i], term)
                                       : group.AddScalars(theta[i], term);
  }
  return proof;
}

bool IlmppVerify(const Group& group, Transcript& transcript, const std::vector<BigInt>& xs,
                 const std::vector<BigInt>& ys, const IlmppProof& proof) {
  const size_t k = xs.size();
  if (k < 2 || ys.size() != k || proof.commits.size() != k || proof.responses.size() != k - 1) {
    return false;
  }
  for (size_t i = 0; i < k; ++i) {
    if (!group.IsElement(xs[i]) || !group.IsElement(ys[i]) ||
        !group.IsElement(proof.commits[i])) {
      return false;
    }
  }
  for (const BigInt& r : proof.responses) {
    if (BigInt::Cmp(r, group.q()) >= 0) {
      return false;
    }
  }

  BigInt gamma = DrawGamma(group, transcript, xs, ys, proof.commits);

  // Batched verification. The per-element equations are
  //   A_1 == X_1^{gamma} * Y_1^{r_1},
  //   A_i == X_i^{r_{i-1}} * Y_i^{r_i},
  //   A_k == X_k^{r_{k-1}} * Y_k^{+-gamma}
  // (+gamma when k is even, 1-based sign (-1)^k; -gamma when odd). Each is
  // written X_i^{a_i} * Y_i^{b_i} * A_i^{-1} == 1 and all are folded into
  // one product under deterministic 128-bit weights u_i. gamma already
  // binds the statement and commitments (they were hashed to produce it);
  // the weights additionally bind the responses, so no prover choice can
  // steer the combined relation after the fact. Repeated statement bases
  // (the simple shuffle pads its upper half with Gamma and g) are merged by
  // MultiExp's dedup pass — for the 2k-element shuffle statement that
  // roughly halves the distinct-base count.
  Transcript wt("dissent.ilmpp.batchverify.v1");
  wt.AppendScalar(group, "gamma", gamma);
  for (const BigInt& r : proof.responses) {
    wt.AppendScalar(group, "r", r);
  }
  auto draw_weight = [&wt]() { return DrawBatchWeight128(wt, "u"); };
  std::vector<BigInt> bases;
  std::vector<BigInt> exps;
  bases.reserve(3 * k);
  exps.reserve(3 * k);
  auto add_equation = [&](size_t i, const BigInt& x_exp, const BigInt& y_exp,
                          const BigInt& weight) {
    bases.push_back(xs[i]);
    exps.push_back(group.MulScalars(weight, x_exp));
    bases.push_back(ys[i]);
    exps.push_back(group.MulScalars(weight, y_exp));
    bases.push_back(proof.commits[i]);
    exps.push_back(group.NegScalar(weight));
  };
  add_equation(0, gamma, proof.responses[0], draw_weight());
  for (size_t i = 1; i + 1 < k; ++i) {
    add_equation(i, proof.responses[i - 1], proof.responses[i], draw_weight());
  }
  BigInt last_exp = (k % 2 == 0) ? gamma : group.NegScalar(gamma);
  add_equation(k - 1, proof.responses[k - 2], last_exp, draw_weight());
  return MultiExp(group, bases, exps, DefaultCryptoThreads()).IsOne();
}

}  // namespace dissent
