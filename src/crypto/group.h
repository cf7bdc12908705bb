// Schnorr groups: the prime-order subgroup of quadratic residues mod a safe
// prime p = 2q + 1, with generator g = 4.
//
// This is the algebraic setting for everything asymmetric in Dissent:
// ElGamal onion encryption of pseudonym keys, Schnorr signatures,
// Chaum-Pedersen decryption proofs, and the Neff shuffle (§3.10).
//
// Parameter sets: 256/512/1024/2048-bit safe primes generated offline and
// re-verified by Miller-Rabin in tests. 256-bit is the test/CI default (fast);
// the paper's deployment would use >= 1024 (ROADMAP.md direction 2 prices
// the group size before choosing one).
#ifndef DISSENT_CRYPTO_GROUP_H_
#define DISSENT_CRYPTO_GROUP_H_

#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/crypto/bigint.h"
#include "src/crypto/montgomery.h"
#include "src/crypto/random.h"
#include "src/util/bytes.h"

namespace dissent {

enum class GroupId {
  kTesting256,
  kMedium512,
  kProduction1024,
  kProduction2048,
};

class FixedBaseTable;

class Group {
 public:
  // Montgomery-domain element handle for chained element arithmetic: carries
  // the mont-form limbs so sequences of MulElems/MultiExp stop round-tripping
  // through ToMont/FromMont on every operation (each round trip costs two
  // extra Montgomery multiplications). Convert once with ToElem, chain in
  // the Montgomery domain, convert back once with FromElem. The BigInt API
  // below remains the canonical encoding (wire, transcripts, comparisons).
  struct Elem {
    Montgomery::Limbs mont;  // limb_count() limbs, Montgomery form, < p
  };

  // Shared immutable instances (Montgomery context construction is not free).
  static std::shared_ptr<const Group> Named(GroupId id);
  // Custom parameters; p must be a safe prime 2q+1 and g a generator of the
  // order-q subgroup (verified in debug/tests via IsElement).
  Group(BigInt p, BigInt q, BigInt g);
  ~Group();

  const BigInt& p() const { return p_; }
  const BigInt& q() const { return q_; }
  const BigInt& g() const { return g_; }
  const Montgomery& mont() const { return mont_p_; }

  size_t ElementBytes() const { return element_bytes_; }
  size_t ScalarBytes() const { return scalar_bytes_; }

  // --- element operations (mod p) ---
  // Variable-time; e must be public (verification, challenges). Secret
  // exponents go through ExpSecret/GExpSecret (see montgomery.h for the
  // timing-channel contract).
  BigInt Exp(const BigInt& base, const BigInt& e) const;
  BigInt GExp(const BigInt& e) const;  // g^e (fixed-base comb)
  // Constant-time-lookup variants for secret exponents (private keys,
  // nonces, re-encryption factors, shuffle secrets). e must be < q.
  BigInt ExpSecret(const BigInt& base, const BigInt& e) const;
  BigInt GExpSecret(const BigInt& e) const;
  BigInt MulElems(const BigInt& a, const BigInt& b) const;
  BigInt InvElem(const BigInt& a) const;
  // Batch inversion (Montgomery's trick): one ModInverse plus 3(n-1)
  // multiplications for n elements. All inputs must be invertible mod p
  // (any subgroup element is); aborts on zero input.
  std::vector<BigInt> BatchInvElems(const std::vector<BigInt>& v) const;
  // Subgroup membership: a in [1, p) and a^q = 1 (mod p). For safe-prime
  // groups this is evaluated as a Jacobi-symbol test (Euler's criterion) —
  // two orders of magnitude cheaper than the defining exponentiation.
  bool IsElement(const BigInt& a) const;
  BigInt Identity() const { return BigInt(1); }

  // --- Montgomery-domain element API ---
  Elem ToElem(const BigInt& a) const;
  BigInt FromElem(const Elem& a) const;
  Elem IdentityElem() const;
  Elem MulElems(const Elem& a, const Elem& b) const;

  // --- fixed-base tables ---
  // The generator's comb table (always present; GExp/GExpSecret use it).
  const FixedBaseTable& GeneratorTable() const;
  // Cached per-base window table for repeated-base exponents (combined keys
  // h in the shuffle cascade, roster public keys in signature verification).
  // Never null. Tables are built once and shared; a small FIFO bounds the
  // cache. Call this only for bases known to repeat (a build costs ~15
  // multiplications per window); FindCachedTable looks up without building,
  // for opportunistic reuse on one-shot-or-maybe-repeated bases, and returns
  // nullptr on a miss.
  std::shared_ptr<const FixedBaseTable> CachedTable(const BigInt& base) const;
  std::shared_ptr<const FixedBaseTable> FindCachedTable(const BigInt& base) const;

  // --- scalar operations (mod q) ---
  BigInt AddScalars(const BigInt& a, const BigInt& b) const;
  BigInt SubScalars(const BigInt& a, const BigInt& b) const;
  BigInt MulScalars(const BigInt& a, const BigInt& b) const;
  BigInt NegScalar(const BigInt& a) const;
  BigInt InvScalar(const BigInt& a) const;
  // Batch scalar inversion (Montgomery's trick, mod q): one ModInverse plus
  // 3(n-1) multiplications. Entries must be invertible mod q; a
  // non-invertible entry makes every output zero (callers that cannot rule
  // this out fall back to InvScalar per element).
  std::vector<BigInt> BatchInvScalars(const std::vector<BigInt>& v) const;
  BigInt RandomScalar(SecureRng& rng) const;  // uniform in [0, q)

  // Wide-reduction hash to scalar (Fiat-Shamir challenges).
  BigInt HashToScalar(const Bytes& data) const;

  // --- canonical encodings ---
  Bytes ElementToBytes(const BigInt& a) const;  // fixed ElementBytes() width
  std::optional<BigInt> ElementFromBytes(const Bytes& b) const;  // validates membership
  Bytes ScalarToBytes(const BigInt& a) const;
  std::optional<BigInt> ScalarFromBytes(const Bytes& b) const;  // validates < q

  // --- message embedding (for the general message shuffle, §3.10) ---
  // Encodes up to MessageCapacity() bytes injectively into a subgroup
  // element; Decode inverts it. Uses the standard safe-prime trick: v+1 or
  // p-(v+1), whichever is the quadratic residue.
  size_t MessageCapacity() const;
  std::optional<BigInt> EncodeMessage(const Bytes& m) const;
  std::optional<Bytes> DecodeMessage(const BigInt& elem) const;

 private:
  BigInt p_;
  BigInt q_;
  BigInt g_;
  Montgomery mont_p_;
  size_t element_bytes_;
  size_t scalar_bytes_;
  bool safe_prime_ = false;  // p == 2q + 1: enables the Jacobi membership test
  std::shared_ptr<const FixedBaseTable> g_table_;
  // FIFO-bounded per-base table cache (CachedTable).
  mutable std::mutex table_mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const FixedBaseTable>> table_cache_;
  mutable std::deque<std::string> table_order_;
};

}  // namespace dissent

#endif  // DISSENT_CRYPTO_GROUP_H_
