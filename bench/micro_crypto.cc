// google-benchmark microbenchmarks of the crypto substrate — these numbers
// feed the calibration story behind the Fig 6-8 performance model.
//
// BM_KeyShuffleCascade is the PR 5 acceptance benchmark: the full verified
// key-shuffle cascade (prove + decrypt + verify across a 5-server mix) at up
// to 1,000 clients on the multi-exponentiation engine. CI guards (prove +
// verify) at 1,000 clients against 1.25x the committed BENCH_dcnet.json
// baseline. The trailing /1 in its names, and in BM_GExpFixedBase's and
// BM_SchnorrMultiVerify's, is the engine arm's historical argument, kept so
// the jq selectors and the BENCH_*.json history keep matching.
#include <benchmark/benchmark.h>

#include <chrono>

#include "src/core/dcnet.h"
#include "src/core/group_def.h"
#include "src/core/key_shuffle.h"
#include "src/crypto/group.h"
#include "src/crypto/multiexp.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/dh.h"

namespace dissent {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_DcnetPad(benchmark::State& state) {
  Bytes key(32, 0x42);
  Bytes buf(static_cast<size_t>(state.range(0)), 0);
  uint64_t round = 0;
  for (auto _ : state) {
    XorDcnetPad(key, ++round, buf);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DcnetPad)->Arg(1024)->Arg(128 * 1024)->Arg(1 << 20);

void BM_XorCombine(benchmark::State& state) {
  Bytes a(static_cast<size_t>(state.range(0)), 1);
  Bytes b(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    XorInto(a, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XorCombine)->Arg(1024)->Arg(128 * 1024)->Arg(1 << 20);

GroupId GroupForBits(int64_t bits) {
  switch (bits) {
    case 256:
      return GroupId::kTesting256;
    case 512:
      return GroupId::kMedium512;
    case 1024:
      return GroupId::kProduction1024;
    default:
      return GroupId::kProduction2048;
  }
}

void BM_ModExp(benchmark::State& state) {
  auto g = Group::Named(GroupForBits(state.range(0)));
  SecureRng rng = SecureRng::FromLabel(1);
  BigInt base = g->GExp(g->RandomScalar(rng));
  BigInt e = g->RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->Exp(base, e));
  }
}
BENCHMARK(BM_ModExp)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_GExpFixedBase(benchmark::State& state) {
  // g^e on the generator's fixed-base comb (BM_ModExp/256 is the generic
  // ladder at the same size).
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(21);
  BigInt e = g->RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->GExp(e));
  }
}
BENCHMARK(BM_GExpFixedBase)->Arg(1);

void BM_ExpSecretConstTime(benchmark::State& state) {
  // Constant-time-lookup window exponentiation (secret-exponent path).
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(22);
  BigInt base = g->GExp(g->RandomScalar(rng));
  BigInt e = g->RandomScalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->ExpSecret(base, e));
  }
}
BENCHMARK(BM_ExpSecretConstTime);

void BM_MultiExp(benchmark::State& state) {
  // prod b_i^{e_i} over n bases: engine (Straus/Pippenger, arg 1 = 1) vs
  // n independent ladders + products (arg 1 = 0).
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(23);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<BigInt> bases(n), exps(n);
  for (size_t i = 0; i < n; ++i) {
    bases[i] = g->GExp(g->RandomScalar(rng));
    exps[i] = g->RandomScalar(rng);
  }
  const bool engine = state.range(1) == 1;
  for (auto _ : state) {
    if (engine) {
      benchmark::DoNotOptimize(MultiExp(*g, bases, exps));
    } else {
      BigInt acc = g->Identity();
      for (size_t i = 0; i < n; ++i) {
        acc = g->MulElems(acc, g->Exp(bases[i], exps[i]));
      }
      benchmark::DoNotOptimize(acc);
    }
  }
  state.counters["bases_per_sec"] =
      benchmark::Counter(static_cast<double>(n) * state.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MultiExp)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_KeyShuffleCascade(benchmark::State& state) {
  // Full §3.10 cascade at paper scale: args {clients, 1}.
  const size_t clients = static_cast<size_t>(state.range(0));
  SecureRng rng = SecureRng::FromLabel(31000 + clients);
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), 5, clients, rng,
                               &server_privs, &client_privs);
  CiphertextMatrix submissions;
  for (size_t i = 0; i < clients; ++i) {
    SchnorrKeyPair kp = SchnorrKeyPair::Generate(*def.group, rng);
    submissions.push_back(EncryptPseudonymKey(def, kp.pub, rng));
  }
  double prove_sec = 0;
  double verify_sec = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    ShuffleCascadeResult cascade = RunShuffleCascade(def, server_privs, submissions, rng);
    auto t1 = std::chrono::steady_clock::now();
    bool ok = VerifyShuffleCascade(def, submissions, cascade);
    auto t2 = std::chrono::steady_clock::now();
    if (!ok) {
      state.SkipWithError("cascade verification failed");
      return;
    }
    prove_sec += std::chrono::duration<double>(t1 - t0).count();
    verify_sec += std::chrono::duration<double>(t2 - t1).count();
  }
  const double iters = static_cast<double>(state.iterations());
  if (iters > 0) {
    state.counters["prove_sec"] = prove_sec / iters;
    state.counters["verify_sec"] = verify_sec / iters;
    state.counters["total_sec"] = (prove_sec + verify_sec) / iters;
  }
}
BENCHMARK(BM_KeyShuffleCascade)
    ->Args({64, 1})
    ->Args({1000, 1})
    ->Iterations(1)
    ->Unit(benchmark::kSecond)
    ->UseRealTime();

void BM_SchnorrMultiVerify(benchmark::State& state) {
  // Output-certificate batch check: one MultiExp relation over all shares.
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(24);
  const size_t n = static_cast<size_t>(state.range(0));
  Bytes msg(64, 7);
  std::vector<BigInt> pubs(n);
  std::vector<SchnorrSignature> sigs(n);
  for (size_t i = 0; i < n; ++i) {
    SchnorrKeyPair kp = SchnorrKeyPair::Generate(*g, rng);
    pubs[i] = kp.pub;
    sigs[i] = SchnorrSign(*g, kp.priv, msg, rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrMultiVerify(*g, pubs, msg, sigs));
  }
}
BENCHMARK(BM_SchnorrMultiVerify)->Args({5, 1})->Args({32, 1});

void BM_SchnorrSign(benchmark::State& state) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(2);
  SchnorrKeyPair kp = SchnorrKeyPair::Generate(*g, rng);
  Bytes msg(64, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrSign(*g, kp.priv, msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(3);
  SchnorrKeyPair kp = SchnorrKeyPair::Generate(*g, rng);
  Bytes msg(64, 7);
  SchnorrSignature sig = SchnorrSign(*g, kp.priv, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchnorrVerify(*g, kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_ShuffleProve(benchmark::State& state) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(4);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  const size_t k = static_cast<size_t>(state.range(0));
  CiphertextMatrix inputs(k);
  for (size_t i = 0; i < k; ++i) {
    inputs[i] = {ElGamalEncrypt(*g, key.pub, g->GExp(g->RandomScalar(rng)), rng)};
  }
  ShuffleResult shuffled = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ShuffleProve(*g, key.pub, inputs, shuffled.outputs, shuffled.witness, rng));
  }
}
BENCHMARK(BM_ShuffleProve)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ShuffleVerify(benchmark::State& state) {
  auto g = Group::Named(GroupId::kTesting256);
  SecureRng rng = SecureRng::FromLabel(5);
  DhKeyPair key = DhKeyPair::Generate(*g, rng);
  const size_t k = static_cast<size_t>(state.range(0));
  CiphertextMatrix inputs(k);
  for (size_t i = 0; i < k; ++i) {
    inputs[i] = {ElGamalEncrypt(*g, key.pub, g->GExp(g->RandomScalar(rng)), rng)};
  }
  ShuffleResult shuffled = ApplyRandomShuffle(*g, key.pub, inputs, rng);
  ShuffleProof proof =
      ShuffleProve(*g, key.pub, inputs, shuffled.outputs, shuffled.witness, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleVerify(*g, key.pub, inputs, shuffled.outputs, proof));
  }
}
BENCHMARK(BM_ShuffleVerify)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dissent

BENCHMARK_MAIN();
