// Multi-exponentiation engine: the public-key fast path under the proof
// stack (Neff shuffle, ILMPP, Schnorr, Chaum-Pedersen).
//
// Three primitives, all bit-identical to chains of Montgomery::Exp /
// Group::MulElems (pinned by tests/crypto/multiexp_test.cc):
//
//  * FixedBaseTable — comb precomputation for one base: one 4-bit window
//    table per exponent window, so an exponentiation is ~qbits/4 Montgomery
//    multiplications and ZERO squarings (vs ~qbits squarings + qbits/4
//    multiplies for the generic ladder). Group owns one for its generator
//    (GExp/GExpSecret) and a FIFO cache of per-base tables for repeated
//    bases (combined cascade keys, roster keys): Group::CachedTable.
//
//  * MultiExp — Straus/interleaved simultaneous exponentiation
//    prod_i bases[i]^{exps[i]}: one shared squaring chain for the whole
//    product plus per-base 4-bit tables. Collapses the product-of-powers
//    relations in shuffle/ILMPP/DLEQ/Schnorr batch verification from
//    n independent ladders (~n*(qbits + qbits/4) muls) into
//    ~qbits + n*(14 + qbits/4) muls. Duplicate bases are merged by adding
//    exponents mod q.
//
//  * MultiExpSecret / Exp(Secret) split — mirrors montgomery.h: *Secret
//    entry points use a fixed window schedule and constant-time full-table
//    scans (prover-side secret exponents: shuffle f_i/w_i, DLEQ nonces);
//    the plain entry points may skip zero digits and index the table
//    directly (verifier-side public exponents only).
//
// All inputs must be order-q subgroup elements: exponents are reduced mod q
// (and merged mod q for duplicate bases), which is only sound when base^q=1.
#ifndef DISSENT_CRYPTO_MULTIEXP_H_
#define DISSENT_CRYPTO_MULTIEXP_H_

#include <cstddef>
#include <vector>

#include "src/crypto/group.h"

namespace dissent {

class Transcript;

// Draws one deterministic 128-bit batching weight from a transcript: 16
// bytes of ChallengeBytes(label), zero mapped to 1 so every weight is
// invertible. ALL verifier-side relation folding (shuffle binding layer,
// ILMPP, DLEQ batches, Schnorr batches) must draw weights through this one
// helper — the truncation width and the zero convention are
// soundness-relevant.
BigInt DrawBatchWeight128(Transcript& t, const std::string& label);

// Fixed-base comb table over 4-bit windows of the scalar field width.
// Construction costs ~15 multiplications per window (built once, reused for
// every exponentiation with this base); safe for concurrent use after
// construction.
class FixedBaseTable {
 public:
  FixedBaseTable(const Group& group, const BigInt& base);

  const BigInt& base() const { return base_; }
  size_t max_exp_bits() const { return 4 * windows_; }

  // base^e, variable time (public exponents). Falls back to the generic
  // ladder if e exceeds max_exp_bits() (never the case for scalars < q).
  BigInt Exp(const BigInt& e) const;
  Group::Elem ExpElem(const BigInt& e) const;
  // base^e with constant-time table scans and a fixed window schedule
  // (secret exponents; e must be < q).
  BigInt ExpSecret(const BigInt& e) const;
  Group::Elem ExpSecretElem(const BigInt& e) const;

 private:
  void Eval(const BigInt& e, bool secret, Montgomery::Limbs* out) const;

  const Montgomery* mont_;
  BigInt base_;
  size_t k_;
  size_t windows_;
  Montgomery::Limbs one_;
  std::vector<uint64_t> table_;  // windows_ * 16 * k_; entry 0 = mont one
};

// prod_i bases[i]^{exps[i]} mod p (Straus). bases.size() == exps.size();
// returns the identity for empty input. Variable time: PUBLIC exponents
// only. num_threads > 1 partitions the bases across workers (partial
// products multiply together exactly, so the result is thread-count
// independent).
BigInt MultiExp(const Group& group, const std::vector<Group::Elem>& bases,
                const std::vector<BigInt>& exps, size_t num_threads = 1);
BigInt MultiExp(const Group& group, const std::vector<BigInt>& bases,
                const std::vector<BigInt>& exps, size_t num_threads = 1);

// Fixed-schedule, constant-time-lookup variant for secret exponents
// (prover-side products: Q/bind commitments over the secret f_i/w_i).
BigInt MultiExpSecret(const Group& group, const std::vector<Group::Elem>& bases,
                      const std::vector<BigInt>& exps, size_t num_threads = 1);
BigInt MultiExpSecret(const Group& group, const std::vector<BigInt>& bases,
                      const std::vector<BigInt>& exps, size_t num_threads = 1);

}  // namespace dissent

#endif  // DISSENT_CRYPTO_MULTIEXP_H_
