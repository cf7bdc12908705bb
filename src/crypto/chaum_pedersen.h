// Chaum-Pedersen proofs of discrete-log equality (DLEQ) [15].
//
// Dissent uses these for verifiable decryption: when server j strips its
// ElGamal layer from a shuffled ciphertext (b' = b / a^{x_j}), it proves
// log_g(h_j) == log_a(b / b') without revealing x_j, so a dishonest server
// cannot corrupt the key shuffle undetected (§3.10).
#ifndef DISSENT_CRYPTO_CHAUM_PEDERSEN_H_
#define DISSENT_CRYPTO_CHAUM_PEDERSEN_H_

#include <optional>

#include "src/crypto/group.h"
#include "src/crypto/random.h"

namespace dissent {

// Non-interactive proof that log_{g1}(h1) == log_{g2}(h2).
struct DleqProof {
  BigInt commit1;   // g1^w
  BigInt commit2;   // g2^w
  BigInt response;  // w + c*x

  Bytes Serialize(const Group& group) const;
  static std::optional<DleqProof> Deserialize(const Group& group, const Bytes& data);
};

DleqProof DleqProve(const Group& group, const BigInt& g1, const BigInt& h1, const BigInt& g2,
                    const BigInt& h2, const BigInt& x, SecureRng& rng);

// Deterministic core with a caller-supplied nonce w: lets batch provers (the
// shuffle cascade's per-ciphertext decryption proofs) draw all randomness
// serially and fan the pure exponentiation work across workers.
DleqProof DleqProveWithNonce(const Group& group, const BigInt& g1, const BigInt& h1,
                             const BigInt& g2, const BigInt& h2, const BigInt& x,
                             const BigInt& w);

bool DleqVerify(const Group& group, const BigInt& g1, const BigInt& h1, const BigInt& g2,
                const BigInt& h2, const DleqProof& proof);

// One statement of a batch sharing the fixed pair (g1, h1).
struct DleqBatchItem {
  BigInt g2;
  BigInt h2;
  DleqProof proof;
};

// Verifies a batch of DLEQ proofs that share (g1, h1) — the shuffle
// cascade's shape: one server key, one proof per ciphertext. Collapses all
// 4n verification exponentiations into a single MultiExp relation under
// deterministic 128-bit weights derived from the whole batch; accepts iff
// every proof would individually verify, up to the 2^-128 weight slack.
bool DleqBatchVerify(const Group& group, const BigInt& g1, const BigInt& h1,
                     const std::vector<DleqBatchItem>& items);

}  // namespace dissent

#endif  // DISSENT_CRYPTO_CHAUM_PEDERSEN_H_
