// The verifiable shuffle stack: ILMPP, simple k-shuffle, full re-encryption
// shuffle — completeness across sizes/widths and adversarial tamper tests.
#include "src/crypto/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/crypto/dh.h"
#include "src/crypto/ilmpp.h"
#include "src/crypto/simple_shuffle.h"

namespace dissent {
namespace {

std::shared_ptr<const Group> G() { return Group::Named(GroupId::kTesting256); }

// --- ILMPP ---

class IlmppSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IlmppSizeTest, CompletenessHolds) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(41 + GetParam());
  const size_t k = GetParam();
  std::vector<BigInt> x_logs(k), y_logs(k), xs(k), ys(k);
  // Random x logs; y logs a scrambled set with the same product:
  // y_i = x_{sigma(i)} * c_i with prod(c_i) == 1.
  BigInt prod_x(1);
  for (size_t i = 0; i < k; ++i) {
    x_logs[i] = rng.RandomNonZeroBelow(g->q());
    xs[i] = g->GExp(x_logs[i]);
    prod_x = g->MulScalars(prod_x, x_logs[i]);
  }
  BigInt prod_rest(1);
  for (size_t i = 0; i + 1 < k; ++i) {
    y_logs[i] = rng.RandomNonZeroBelow(g->q());
    prod_rest = g->MulScalars(prod_rest, y_logs[i]);
  }
  y_logs[k - 1] = g->MulScalars(prod_x, g->InvScalar(prod_rest));
  for (size_t i = 0; i < k; ++i) {
    ys[i] = g->GExp(y_logs[i]);
  }
  Transcript tp("test.ilmpp");
  IlmppProof proof = IlmppProve(*g, tp, xs, ys, x_logs, y_logs, rng);
  Transcript tv("test.ilmpp");
  EXPECT_TRUE(IlmppVerify(*g, tv, xs, ys, proof));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IlmppSizeTest, ::testing::Values(2, 3, 4, 5, 8, 16, 33, 64));

TEST(IlmppTest, RejectsWrongProduct) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(51);
  const size_t k = 4;
  std::vector<BigInt> x_logs(k), y_logs(k), xs(k), ys(k);
  BigInt prod_x(1);
  for (size_t i = 0; i < k; ++i) {
    x_logs[i] = rng.RandomNonZeroBelow(g->q());
    xs[i] = g->GExp(x_logs[i]);
    prod_x = g->MulScalars(prod_x, x_logs[i]);
  }
  BigInt prod_rest(1);
  for (size_t i = 0; i + 1 < k; ++i) {
    y_logs[i] = rng.RandomNonZeroBelow(g->q());
    prod_rest = g->MulScalars(prod_rest, y_logs[i]);
  }
  y_logs[k - 1] = g->MulScalars(prod_x, g->InvScalar(prod_rest));
  for (size_t i = 0; i < k; ++i) {
    ys[i] = g->GExp(y_logs[i]);
  }
  Transcript tp("test.ilmpp");
  IlmppProof proof = IlmppProve(*g, tp, xs, ys, x_logs, y_logs, rng);
  // Statement mutation: bump one Y element; product no longer matches.
  std::vector<BigInt> ys_bad = ys;
  ys_bad[1] = g->MulElems(ys_bad[1], g->g());
  Transcript tv("test.ilmpp");
  EXPECT_FALSE(IlmppVerify(*g, tv, xs, ys_bad, proof));
  // Proof mutations.
  IlmppProof bad = proof;
  bad.responses[0] = g->AddScalars(bad.responses[0], BigInt(1));
  Transcript tv2("test.ilmpp");
  EXPECT_FALSE(IlmppVerify(*g, tv2, xs, ys, bad));
  bad = proof;
  bad.commits[2] = g->MulElems(bad.commits[2], g->g());
  Transcript tv3("test.ilmpp");
  EXPECT_FALSE(IlmppVerify(*g, tv3, xs, ys, bad));
  // Domain separation: different transcript domain fails.
  Transcript tv4("test.ilmpp.other");
  EXPECT_FALSE(IlmppVerify(*g, tv4, xs, ys, proof));
}

// --- Simple k-shuffle ---

class SimpleShuffleSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SimpleShuffleSizeTest, CompletenessHolds) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(61 + GetParam());
  const size_t k = GetParam();
  BigInt gamma = rng.RandomNonZeroBelow(g->q());
  BigInt gamma_commit = g->GExp(gamma);
  std::vector<BigInt> x_logs(k), xs(k), ys(k);
  std::vector<size_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = k; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.RandomBelow(BigInt(i)).Low64()]);
  }
  for (size_t i = 0; i < k; ++i) {
    x_logs[i] = rng.RandomNonZeroBelow(g->q());
    xs[i] = g->GExp(x_logs[i]);
  }
  for (size_t i = 0; i < k; ++i) {
    ys[i] = g->GExp(g->MulScalars(gamma, x_logs[perm[i]]));
  }
  Transcript tp("test.sshuf");
  SimpleShuffleProof proof =
      SimpleShuffleProve(*g, tp, xs, ys, gamma_commit, x_logs, gamma, perm, rng);
  Transcript tv("test.sshuf");
  EXPECT_TRUE(SimpleShuffleVerify(*g, tv, xs, ys, gamma_commit, proof));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimpleShuffleSizeTest, ::testing::Values(1, 2, 3, 5, 10, 32));

TEST(SimpleShuffleTest, RejectsNonPermutation) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(71);
  const size_t k = 6;
  BigInt gamma = rng.RandomNonZeroBelow(g->q());
  BigInt gamma_commit = g->GExp(gamma);
  std::vector<BigInt> x_logs(k), xs(k), ys(k);
  std::vector<size_t> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  for (size_t i = 0; i < k; ++i) {
    x_logs[i] = rng.RandomNonZeroBelow(g->q());
    xs[i] = g->GExp(x_logs[i]);
    ys[i] = g->GExp(g->MulScalars(gamma, x_logs[perm[i]]));
  }
  Transcript tp("test.sshuf");
  SimpleShuffleProof proof =
      SimpleShuffleProve(*g, tp, xs, ys, gamma_commit, x_logs, gamma, perm, rng);
  // Replace one output with an unrelated element.
  std::vector<BigInt> ys_bad = ys;
  ys_bad[0] = g->GExp(rng.RandomNonZeroBelow(g->q()));
  Transcript tv("test.sshuf");
  EXPECT_FALSE(SimpleShuffleVerify(*g, tv, xs, ys_bad, gamma_commit, proof));
  // Wrong gamma commitment.
  Transcript tv2("test.sshuf");
  EXPECT_FALSE(SimpleShuffleVerify(*g, tv2, xs, ys, g->MulElems(gamma_commit, g->g()), proof));
}

// --- Full verifiable shuffle ---

struct FullShuffleParam {
  size_t k;
  size_t width;
};

class FullShuffleTest : public ::testing::TestWithParam<FullShuffleParam> {};

CiphertextMatrix MakeInputs(const Group& g, const BigInt& h, size_t k, size_t width,
                            SecureRng& rng) {
  CiphertextMatrix inputs(k);
  for (size_t i = 0; i < k; ++i) {
    inputs[i].resize(width);
    for (size_t l = 0; l < width; ++l) {
      Bytes payload = rng.RandomBytes(8);
      inputs[i][l] = ElGamalEncrypt(g, h, *g.EncodeMessage(payload), rng);
    }
  }
  return inputs;
}

TEST_P(FullShuffleTest, CompletenessAcrossSizes) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(81 + GetParam().k * 10 + GetParam().width);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  CiphertextMatrix inputs = MakeInputs(*g, key.pub, GetParam().k, GetParam().width, rng);
  ShuffleResult result = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  ShuffleProof proof =
      ShuffleProve(*g, key.pub, inputs, result.outputs, result.witness, rng);
  EXPECT_TRUE(ShuffleVerify(*g, key.pub, inputs, result.outputs, proof));
}

INSTANTIATE_TEST_SUITE_P(Shapes, FullShuffleTest,
                         ::testing::Values(FullShuffleParam{2, 1}, FullShuffleParam{3, 1},
                                           FullShuffleParam{8, 1}, FullShuffleParam{16, 1},
                                           FullShuffleParam{4, 2}, FullShuffleParam{6, 3},
                                           FullShuffleParam{12, 4}));

TEST(FullShuffleTest, OutputsDecryptToSamePlaintextMultiset) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(90);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  const size_t k = 10;
  std::vector<Bytes> payloads;
  CiphertextMatrix inputs(k);
  for (size_t i = 0; i < k; ++i) {
    payloads.push_back(rng.RandomBytes(16));
    inputs[i] = {ElGamalEncrypt(*g, key.pub, *g->EncodeMessage(payloads.back()), rng)};
  }
  ShuffleResult result = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  std::vector<Bytes> decrypted;
  for (size_t i = 0; i < k; ++i) {
    BigInt m = ElGamalDecrypt(*g, key.priv, result.outputs[i][0]);
    decrypted.push_back(*g->DecodeMessage(m));
  }
  auto sorted = [](std::vector<Bytes> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(payloads), sorted(decrypted));
  // And it actually permuted (k=10: identity has probability 1/10!).
  EXPECT_NE(payloads, decrypted);
}

TEST(FullShuffleTest, RejectsDroppedMessage) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(91);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  CiphertextMatrix inputs = MakeInputs(*g, key.pub, 6, 1, rng);
  ShuffleResult result = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  // Malicious mix: replace one output with a fresh encryption of garbage.
  CiphertextMatrix bad_outputs = result.outputs;
  bad_outputs[2][0] = ElGamalEncrypt(*g, key.pub, *g->EncodeMessage(BytesOf("evil")), rng);
  ShuffleProof proof = ShuffleProve(*g, key.pub, inputs, result.outputs, result.witness, rng);
  EXPECT_FALSE(ShuffleVerify(*g, key.pub, inputs, bad_outputs, proof));
  // Proving against the bad outputs with the honest witness also fails.
  ShuffleProof bad_proof = ShuffleProve(*g, key.pub, inputs, bad_outputs, result.witness, rng);
  EXPECT_FALSE(ShuffleVerify(*g, key.pub, inputs, bad_outputs, bad_proof));
}

TEST(FullShuffleTest, RejectsDuplicatedMessage) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(92);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  CiphertextMatrix inputs = MakeInputs(*g, key.pub, 6, 1, rng);
  ShuffleResult result = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  CiphertextMatrix bad = result.outputs;
  bad[3] = bad[4];  // a mix that duplicates one client's slot and drops another
  ShuffleProof proof = ShuffleProve(*g, key.pub, inputs, result.outputs, result.witness, rng);
  EXPECT_FALSE(ShuffleVerify(*g, key.pub, inputs, bad, proof));
}

TEST(FullShuffleTest, RejectsProofFieldTampering) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(93);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  CiphertextMatrix inputs = MakeInputs(*g, key.pub, 5, 2, rng);
  ShuffleResult result = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  ShuffleProof proof = ShuffleProve(*g, key.pub, inputs, result.outputs, result.witness, rng);
  ASSERT_TRUE(ShuffleVerify(*g, key.pub, inputs, result.outputs, proof));

  auto expect_reject = [&](auto mutate, const char* what) {
    ShuffleProof bad = proof;
    mutate(bad);
    EXPECT_FALSE(ShuffleVerify(*g, key.pub, inputs, result.outputs, bad)) << what;
  };
  expect_reject([&](ShuffleProof& p) { p.gamma_commit = g->MulElems(p.gamma_commit, g->g()); },
                "gamma commit");
  expect_reject([&](ShuffleProof& p) { p.f_elems[1] = g->MulElems(p.f_elems[1], g->g()); },
                "f element");
  expect_reject([&](ShuffleProof& p) { p.q_a[0] = g->MulElems(p.q_a[0], g->g()); }, "q_a");
  expect_reject([&](ShuffleProof& p) { p.q_b[1] = g->MulElems(p.q_b[1], g->g()); }, "q_b");
  expect_reject([&](ShuffleProof& p) { p.bind_z[0] = g->AddScalars(p.bind_z[0], BigInt(1)); },
                "bind z");
  expect_reject(
      [&](ShuffleProof& p) { p.prod_z_s = g->AddScalars(p.prod_z_s, BigInt(1)); }, "prod z_s");
  expect_reject(
      [&](ShuffleProof& p) { p.prod_z_t[1] = g->AddScalars(p.prod_z_t[1], BigInt(1)); },
      "prod z_t");
  expect_reject([&](ShuffleProof& p) { p.f_elems.pop_back(); }, "structure: short f");
  expect_reject([&](ShuffleProof& p) { p.bind_z.push_back(BigInt(1)); }, "structure: long z");
  // The remaining commitment fields, one element each.
  expect_reject([&](ShuffleProof& p) { p.bind_t_f[2] = g->MulElems(p.bind_t_f[2], g->g()); },
                "bind t_f");
  expect_reject(
      [&](ShuffleProof& p) { p.bind_t_qa[0] = g->MulElems(p.bind_t_qa[0], g->g()); },
      "bind t_qa");
  expect_reject(
      [&](ShuffleProof& p) { p.bind_t_qb[1] = g->MulElems(p.bind_t_qb[1], g->g()); },
      "bind t_qb");
  expect_reject([&](ShuffleProof& p) { p.prod_t_a[1] = g->MulElems(p.prod_t_a[1], g->g()); },
                "prod t_a");
  expect_reject([&](ShuffleProof& p) { p.prod_t_b[0] = g->MulElems(p.prod_t_b[0], g->g()); },
                "prod t_b");
  expect_reject(
      [&](ShuffleProof& p) { p.prod_t_gamma = g->MulElems(p.prod_t_gamma, g->g()); },
      "prod t_gamma");
  // The permutation layer's ILMPP proof.
  expect_reject(
      [&](ShuffleProof& p) {
        auto& commits = p.perm_proof.ilmpp.commits;
        commits[3] = g->MulElems(commits[3], g->g());
      },
      "ilmpp commit");
  expect_reject(
      [&](ShuffleProof& p) {
        auto& responses = p.perm_proof.ilmpp.responses;
        responses[2] = g->AddScalars(responses[2], BigInt(1));
      },
      "ilmpp response");
  expect_reject([&](ShuffleProof& p) { p.perm_proof.ilmpp.responses.pop_back(); },
                "structure: short ilmpp responses");
  // Encodings outside the group: p-1 is not in the order-q subgroup, and a
  // scalar plus q is the same residue mod q but not a canonical scalar.
  expect_reject([&](ShuffleProof& p) { p.bind_t_f[0] = BigInt::Sub(g->p(), BigInt(1)); },
                "non-member bind t_f");
  expect_reject([&](ShuffleProof& p) { p.bind_z[1] = BigInt::Add(p.bind_z[1], g->q()); },
                "bind z + q");
  expect_reject([&](ShuffleProof& p) { p.prod_z_t[0] = BigInt::Add(p.prod_z_t[0], g->q()); },
                "prod z_t + q");
}

TEST(FullShuffleTest, RejectsWrongKeyStatement) {
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(94);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  DhKeyPair other = DhKeyPair::Generate(*g, rng);
  CiphertextMatrix inputs = MakeInputs(*g, key.pub, 4, 1, rng);
  ShuffleResult result = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  ShuffleProof proof = ShuffleProve(*g, key.pub, inputs, result.outputs, result.witness, rng);
  EXPECT_FALSE(ShuffleVerify(*g, other.pub, inputs, result.outputs, proof));
}

TEST(FullShuffleTest, SequentialMixCascadeVerifies) {
  // Three mix servers in sequence, as the scheduling shuffle runs (§3.10):
  // each shuffles, proves, and the next operates on its output.
  auto g = G();
  SecureRng rng = SecureRng::FromLabel(95);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  CiphertextMatrix current = MakeInputs(*g, key.pub, 8, 1, rng);
  for (int hop = 0; hop < 3; ++hop) {
    ShuffleResult r = ApplyRandomShuffle(*g, key.pub, current, rng);
    ShuffleProof proof = ShuffleProve(*g, key.pub, current, r.outputs, r.witness, rng);
    ASSERT_TRUE(ShuffleVerify(*g, key.pub, current, r.outputs, proof)) << "hop " << hop;
    current = r.outputs;
  }
}

}  // namespace
}  // namespace dissent
