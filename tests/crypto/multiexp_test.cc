// Equivalence suite for the multi-exponentiation engine: every fast path
// (fixed-base comb, cached tables, Straus/Pippenger MultiExp, constant-time
// secret variants, Jacobi membership) must be bit-identical to the generic
// Montgomery::Exp reference, including the exponent edge cases; batched
// verifiers must agree with their per-item checks; and the full key-shuffle
// cascade is pinned to a fixed digest of its transcript.
#include "src/crypto/multiexp.h"

#include <gtest/gtest.h>

#include "src/core/group_def.h"
#include "src/core/key_shuffle.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace dissent {
namespace {

std::vector<BigInt> EdgeExponents(const Group& g) {
  // 0, 1, q-1, and limb-boundary widths (63/64/65, 127/128/129 bits).
  std::vector<BigInt> e = {BigInt(), BigInt(1), BigInt::Sub(g.q(), BigInt(1))};
  for (size_t bits : {63, 64, 65, 127, 128, 129}) {
    e.push_back(BigInt(1).ShiftLeft(bits));                       // 2^bits
    e.push_back(BigInt::Sub(BigInt(1).ShiftLeft(bits), BigInt(1)));  // 2^bits - 1
  }
  // Everything must stay < q for the secret paths; the named groups all have
  // q > 2^129 so these qualify, but guard anyway.
  std::vector<BigInt> out;
  for (const BigInt& x : e) {
    if (BigInt::Cmp(x, g.q()) < 0) {
      out.push_back(x);
    }
  }
  return out;
}

class MultiExpGroupTest : public ::testing::TestWithParam<GroupId> {};

TEST_P(MultiExpGroupTest, FixedBaseTableMatchesGenericExp) {
  auto g = Group::Named(GetParam());
  SecureRng rng = SecureRng::FromLabel(101);
  const Montgomery& mont = g->mont();
  for (int trial = 0; trial < 3; ++trial) {
    BigInt base = g->GExp(g->RandomScalar(rng));
    FixedBaseTable table(*g, base);
    for (const BigInt& e : EdgeExponents(*g)) {
      EXPECT_EQ(table.Exp(e), mont.Exp(base, e));
      EXPECT_EQ(table.ExpSecret(e), mont.Exp(base, e));
    }
    for (int i = 0; i < 8; ++i) {
      BigInt e = g->RandomScalar(rng);
      EXPECT_EQ(table.Exp(e), mont.Exp(base, e));
      EXPECT_EQ(table.ExpSecret(e), mont.Exp(base, e));
    }
  }
}

TEST_P(MultiExpGroupTest, GroupExpPathsMatchReference) {
  auto g = Group::Named(GetParam());
  SecureRng rng = SecureRng::FromLabel(102);
  const Montgomery& mont = g->mont();
  BigInt base = g->GExp(g->RandomScalar(rng));
  for (const BigInt& e : EdgeExponents(*g)) {
    EXPECT_EQ(g->GExp(e), mont.Exp(g->g(), e));
    EXPECT_EQ(g->GExpSecret(e), mont.Exp(g->g(), e));
    EXPECT_EQ(g->ExpSecret(base, e), mont.Exp(base, e));
  }
}

TEST_P(MultiExpGroupTest, MontgomeryExpSecretMatchesExp) {
  auto g = Group::Named(GetParam());
  SecureRng rng = SecureRng::FromLabel(103);
  const Montgomery& mont = g->mont();
  const size_t qbits = g->q().BitLength();
  for (int i = 0; i < 10; ++i) {
    BigInt a = g->GExp(g->RandomScalar(rng));
    BigInt e = g->RandomScalar(rng);
    EXPECT_EQ(mont.ExpSecret(a, e, qbits), mont.Exp(a, e));
  }
  for (const BigInt& e : EdgeExponents(*g)) {
    BigInt a = g->GExp(g->RandomScalar(rng));
    EXPECT_EQ(mont.ExpSecret(a, e, qbits), mont.Exp(a, e));
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, MultiExpGroupTest,
                         ::testing::Values(GroupId::kTesting256, GroupId::kMedium512));

// Reference: prod bases[i]^{exps[i]} via one generic ladder per base.
BigInt NaiveMultiExp(const Group& g, const std::vector<BigInt>& bases,
                     const std::vector<BigInt>& exps) {
  BigInt acc = g.Identity();
  for (size_t i = 0; i < bases.size(); ++i) {
    acc = g.MulElems(acc, g.mont().Exp(bases[i], BigInt::Mod(exps[i], g.q())));
  }
  return acc;
}

TEST(MultiExpTest, MatchesNaiveAcrossBaseCounts) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(104);
  // 1..64 base counts (sampled) straddling the Straus->Pippenger switch via
  // the larger counts below.
  for (size_t n : {1, 2, 3, 5, 8, 16, 33, 64}) {
    std::vector<BigInt> bases(n), exps(n);
    for (size_t i = 0; i < n; ++i) {
      bases[i] = g->GExp(g->RandomScalar(rng));
      exps[i] = g->RandomScalar(rng);
    }
    BigInt expect = NaiveMultiExp(*g, bases, exps);
    EXPECT_EQ(MultiExp(*g, bases, exps), expect) << "n=" << n;
    EXPECT_EQ(MultiExpSecret(*g, bases, exps), expect) << "n=" << n;
    EXPECT_EQ(MultiExp(*g, bases, exps, /*num_threads=*/4), expect) << "n=" << n;
  }
}

TEST(MultiExpTest, PippengerPathMatchesNaive) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(105);
  // 300 distinct bases exceeds the Pippenger threshold (128).
  const size_t n = 300;
  std::vector<BigInt> bases(n), exps(n);
  for (size_t i = 0; i < n; ++i) {
    bases[i] = g->GExp(g->RandomScalar(rng));
    exps[i] = g->RandomScalar(rng);
  }
  BigInt expect = NaiveMultiExp(*g, bases, exps);
  EXPECT_EQ(MultiExp(*g, bases, exps), expect);
  EXPECT_EQ(MultiExp(*g, bases, exps, /*num_threads=*/3), expect);
}

TEST(MultiExpTest, EdgeExponentsAndDuplicateBases) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(106);
  std::vector<BigInt> edge = EdgeExponents(*g);
  std::vector<BigInt> bases, exps;
  BigInt b1 = g->GExp(g->RandomScalar(rng));
  BigInt b2 = g->GExp(g->RandomScalar(rng));
  for (size_t i = 0; i < edge.size(); ++i) {
    // Alternate between two bases so the dedup pass merges exponents mod q.
    bases.push_back(i % 2 == 0 ? b1 : b2);
    exps.push_back(edge[i]);
  }
  // A couple of exponents >= q exercise the reduction path.
  bases.push_back(b1);
  exps.push_back(BigInt::Add(g->q(), BigInt(7)));
  bases.push_back(b2);
  exps.push_back(g->q());
  BigInt expect = NaiveMultiExp(*g, bases, exps);
  EXPECT_EQ(MultiExp(*g, bases, exps), expect);
  EXPECT_EQ(MultiExpSecret(*g, bases, exps), expect);
}

TEST(MultiExpTest, EmptyAndAllZeroInputs) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(107);
  EXPECT_TRUE(MultiExp(*g, std::vector<BigInt>{}, {}).IsOne());
  std::vector<BigInt> bases = {g->GExp(g->RandomScalar(rng)), g->GExp(g->RandomScalar(rng))};
  std::vector<BigInt> zeros = {BigInt(), BigInt()};
  EXPECT_TRUE(MultiExp(*g, bases, zeros).IsOne());
  EXPECT_TRUE(MultiExpSecret(*g, bases, zeros).IsOne());
}

TEST(MultiExpTest, CachedTablesMatchAndAreShared) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(108);
  BigInt base = g->GExp(g->RandomScalar(rng));
  auto t1 = g->CachedTable(base);
  ASSERT_NE(t1, nullptr);
  auto t2 = g->CachedTable(base);
  EXPECT_EQ(t1.get(), t2.get()) << "same base must share one table";
  EXPECT_EQ(g->FindCachedTable(base).get(), t1.get());
  BigInt e = g->RandomScalar(rng);
  EXPECT_EQ(t1->Exp(e), g->mont().Exp(base, e));
  // Unknown base: lookup-only accessor must not build.
  BigInt other = g->GExp(g->RandomScalar(rng));
  EXPECT_EQ(g->FindCachedTable(other), nullptr);
}

// --- IsElement: Jacobi test vs the defining exponentiation ---

TEST(MultiExpTest, JacobiMembershipMatchesExpMembership) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(110);
  auto reference_is_element = [&](const BigInt& a) {
    if (a.IsZero() || BigInt::Cmp(a, g->p()) >= 0) {
      return false;
    }
    return g->mont().Exp(a, g->q()).IsOne();
  };
  // Members: powers of g. Non-members: g^x * non-residue (p-1 is a
  // non-residue since p = 3 mod 4), plus raw random values of both kinds.
  BigInt non_residue = BigInt::Sub(g->p(), BigInt(1));
  for (int i = 0; i < 40; ++i) {
    BigInt member = g->GExp(g->RandomScalar(rng));
    EXPECT_TRUE(g->IsElement(member));
    EXPECT_EQ(g->IsElement(member), reference_is_element(member));
    BigInt non = g->MulElems(member, non_residue);
    EXPECT_FALSE(g->IsElement(non));
    EXPECT_EQ(g->IsElement(non), reference_is_element(non));
    BigInt raw = BigInt::Mod(BigInt::FromBytes(rng.RandomBytes(40)), g->p());
    EXPECT_EQ(g->IsElement(raw), reference_is_element(raw));
  }
  EXPECT_FALSE(g->IsElement(BigInt()));
  EXPECT_FALSE(g->IsElement(g->p()));
  EXPECT_FALSE(g->IsElement(BigInt::Add(g->p(), BigInt(4))));
  EXPECT_TRUE(g->IsElement(BigInt(1)));
}

TEST(MultiExpTest, JacobiSymbolSmallCases) {
  // Known values: (a|7) for a = 1..6 is +,+,-,+,-,- and (a|15) has the
  // composite-modulus zero at gcd > 1.
  const int legendre7[] = {1, 1, -1, 1, -1, -1};
  for (int a = 1; a <= 6; ++a) {
    EXPECT_EQ(BigInt::Jacobi(BigInt(a), BigInt(7)), legendre7[a - 1]) << a;
  }
  EXPECT_EQ(BigInt::Jacobi(BigInt(0), BigInt(7)), 0);
  EXPECT_EQ(BigInt::Jacobi(BigInt(3), BigInt(15)), 0);   // gcd 3
  EXPECT_EQ(BigInt::Jacobi(BigInt(2), BigInt(15)), 1);   // (2|3)(2|5) = (-1)(-1)
  EXPECT_EQ(BigInt::Jacobi(BigInt(7), BigInt(2)), 0);    // even modulus
  EXPECT_EQ(BigInt::Jacobi(BigInt(5), BigInt(1)), 1);    // trivial modulus
}

// --- batch inversion ---

TEST(MultiExpTest, BatchInversionMatchesSingles) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(111);
  std::vector<BigInt> elems, scalars;
  for (int i = 0; i < 17; ++i) {
    elems.push_back(g->GExp(g->RandomScalar(rng)));
    scalars.push_back(g->RandomScalar(rng));
  }
  scalars[3] = BigInt(1);
  std::vector<BigInt> einv = g->BatchInvElems(elems);
  std::vector<BigInt> sinv = g->BatchInvScalars(scalars);
  ASSERT_EQ(einv.size(), elems.size());
  for (size_t i = 0; i < elems.size(); ++i) {
    EXPECT_EQ(einv[i], g->InvElem(elems[i]));
    EXPECT_EQ(sinv[i], g->InvScalar(scalars[i]));
  }
}

// --- DLEQ batch verification ---

TEST(MultiExpTest, DleqBatchVerifyAcceptsAndRejects) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(112);
  BigInt x = rng.RandomNonZeroBelow(g->q());
  BigInt h1 = g->GExp(x);
  std::vector<DleqBatchItem> items;
  for (int i = 0; i < 9; ++i) {
    BigInt g2 = g->GExp(g->RandomScalar(rng));
    BigInt h2 = g->Exp(g2, x);
    DleqProof proof = DleqProve(*g, g->g(), h1, g2, h2, x, rng);
    items.push_back({g2, h2, proof});
  }
  // Oracle: the batch must accept exactly when every item verifies alone.
  auto each_verifies = [&](const std::vector<DleqBatchItem>& batch) {
    for (const DleqBatchItem& item : batch) {
      if (!DleqVerify(*g, g->g(), h1, item.g2, item.h2, item.proof)) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(each_verifies(items));
  EXPECT_TRUE(DleqBatchVerify(*g, g->g(), h1, items));
  // Tamper one response: that item fails alone, so the whole batch rejects.
  auto bad = items;
  bad[4].proof.response = g->AddScalars(bad[4].proof.response, BigInt(1));
  ASSERT_FALSE(each_verifies(bad));
  EXPECT_FALSE(DleqBatchVerify(*g, g->g(), h1, bad));
  // Tamper a statement element.
  bad = items;
  bad[2].h2 = g->MulElems(bad[2].h2, g->g());
  ASSERT_FALSE(each_verifies(bad));
  EXPECT_FALSE(DleqBatchVerify(*g, g->g(), h1, bad));
}

// --- the cascade regression: a pinned digest of the whole transcript ---

struct CascadeFixture {
  GroupDef def;
  std::vector<BigInt> server_privs;
  CiphertextMatrix submissions;
};

CascadeFixture MakeCascadeFixture(size_t clients, uint64_t seed) {
  CascadeFixture f;
  SecureRng rng = SecureRng::FromLabel(seed);
  std::vector<BigInt> client_privs;
  f.def = MakeTestGroup(Group::Named(GroupId::kTesting256), 4, clients, rng, &f.server_privs,
                        &client_privs);
  for (size_t i = 0; i < clients; ++i) {
    SchnorrKeyPair kp = SchnorrKeyPair::Generate(*f.def.group, rng);
    f.submissions.push_back(EncryptPseudonymKey(f.def, kp.pub, rng));
  }
  return f;
}

TEST(MultiExpTest, ShuffleCascade64ClientsMatchesPinnedDigest) {
  // Every prover byte (each MixStep in order, then each final row) hashed
  // into one SHA-256. The expected value is the one a prover built from
  // generic Montgomery::Exp ladders produces for the same fixture, so a
  // change to the prover's rng stream, exponent schedule or encoding fails
  // here even when the changed prover still verifies.
  CascadeFixture f = MakeCascadeFixture(64, 777);
  SecureRng rng = SecureRng::FromLabel(4242);
  ShuffleCascadeResult cascade = RunShuffleCascade(f.def, f.server_privs, f.submissions, rng);
  Sha256 digest;
  for (const MixStep& step : cascade.steps) {
    digest.Update(SerializeMixStep(*f.def.group, step));
  }
  for (const auto& row : cascade.final_rows) {
    digest.Update(SerializeCiphertextRow(*f.def.group, row));
  }
  EXPECT_EQ(ToHex(digest.Finish()),
            "a7ed5cc419553f4213d3c71e59b52ddc4899b50a4ea43b6d299af6a9970d7a46");
  EXPECT_TRUE(VerifyShuffleCascade(f.def, f.submissions, cascade));
}

TEST(MultiExpTest, CascadeTamperRejected) {
  CascadeFixture f = MakeCascadeFixture(8, 778);
  SecureRng rng = SecureRng::FromLabel(4243);
  ShuffleCascadeResult cascade = RunShuffleCascade(f.def, f.server_privs, f.submissions, rng);
  ASSERT_TRUE(VerifyShuffleCascade(f.def, f.submissions, cascade));
  // Swap two decrypted rows in the middle step: every downstream statement
  // still parses, but the step's proofs no longer match.
  ShuffleCascadeResult bad = cascade;
  std::swap(bad.steps[1].decrypted[0], bad.steps[1].decrypted[1]);
  EXPECT_FALSE(VerifyShuffleCascade(f.def, f.submissions, bad));
}

}  // namespace
}  // namespace dissent
