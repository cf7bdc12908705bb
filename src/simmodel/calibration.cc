#include "src/simmodel/calibration.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/core/dcnet.h"
#include "src/core/output_cert.h"
#include "src/crypto/group.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace dissent {

namespace {

// Timed batches per operation; Measure reports the fastest. A single batch
// inherits whatever preemption hit it, so under co-scheduled load one
// operation can read several times slower than another it should match.
constexpr int kBatches = 5;

// Wall seconds of the fastest of kBatches runs of `batch`.
template <typename Fn>
double FastestBatchSeconds(Fn&& batch) {
  double best = std::numeric_limits<double>::max();
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    batch();
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
    best = std::min(best, took.count());
  }
  return best;
}

}  // namespace

Calibration Calibration::Measure() {
  Calibration c;
  Bytes key(32, 0x42);
  constexpr size_t kBytes = 1 << 22;

  {  // ChaCha pad expansion.
    Bytes buf(kBytes, 0);
    c.prng_bytes_per_sec = kBytes / FastestBatchSeconds([&] { XorDcnetPad(key, 1, buf); });
  }
  {  // XOR combining.
    Bytes a(kBytes, 1), b(kBytes, 2);
    c.xor_bytes_per_sec = 8.0 * kBytes / FastestBatchSeconds([&] {
      for (int i = 0; i < 8; ++i) {
        XorInto(a, b);
      }
    });
  }
  {  // SHA-256.
    Bytes buf(kBytes, 3);
    c.hash_bytes_per_sec = kBytes / FastestBatchSeconds([&] { Sha256::Hash(buf); });
  }
  {  // Schnorr sign/verify and raw modexp on the test group.
    auto g = Group::Named(GroupId::kTesting256);
    SecureRng rng = SecureRng::FromLabel(777);
    SchnorrKeyPair kp = SchnorrKeyPair::Generate(*g, rng);
    Bytes msg(64, 9);
    constexpr int kIters = 20;
    SchnorrSignature sig;
    c.sign_sec = FastestBatchSeconds([&] {
      for (int i = 0; i < kIters; ++i) {
        sig = SchnorrSign(*g, kp.priv, msg, rng);
      }
    }) / kIters;
    c.verify_sec = FastestBatchSeconds([&] {
      for (int i = 0; i < kIters; ++i) {
        SchnorrVerify(*g, kp.pub, msg, sig);
      }
    }) / kIters;
    BigInt e = g->RandomScalar(rng);
    BigInt acc = g->g();
    c.modexp_sec = FastestBatchSeconds([&] {
      for (int i = 0; i < kIters; ++i) {
        acc = g->Exp(acc, e);
      }
    }) / kIters;
  }
  return c;
}

}  // namespace dissent
