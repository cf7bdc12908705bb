#include "src/crypto/elgamal.h"

#include "src/crypto/multiexp.h"

namespace dissent {

BigInt CombineKeys(const Group& group, const std::vector<BigInt>& pubs) {
  BigInt h = group.Identity();
  for (const BigInt& pub : pubs) {
    h = group.MulElems(h, pub);
  }
  return h;
}

ElGamalCiphertext ElGamalEncrypt(const Group& group, const BigInt& combined_pub,
                                 const BigInt& message_elem, const BigInt& r) {
  ElGamalCiphertext ct;
  ct.a = group.GExpSecret(r);
  // Encryption under a combined key is a repeated-base workload (every
  // client of a session encrypts under the same H), so the cached window
  // table pays for itself after a handful of calls.
  ct.b = group.MulElems(group.CachedTable(combined_pub)->ExpSecret(r), message_elem);
  return ct;
}

ElGamalCiphertext ElGamalEncrypt(const Group& group, const BigInt& combined_pub,
                                 const BigInt& message_elem, SecureRng& rng) {
  return ElGamalEncrypt(group, combined_pub, message_elem, group.RandomScalar(rng));
}

ElGamalCiphertext ElGamalReEncrypt(const Group& group, const BigInt& combined_pub,
                                   const ElGamalCiphertext& ct, const BigInt& r2) {
  ElGamalCiphertext out;
  out.a = group.MulElems(ct.a, group.GExpSecret(r2));
  out.b = group.MulElems(ct.b, group.CachedTable(combined_pub)->ExpSecret(r2));
  return out;
}

BigInt ElGamalDecrypt(const Group& group, const BigInt& priv, const ElGamalCiphertext& ct) {
  BigInt shared = group.ExpSecret(ct.a, priv);
  return group.MulElems(ct.b, group.InvElem(shared));
}

ElGamalCiphertext ElGamalPartialDecrypt(const Group& group, const BigInt& priv_j,
                                        const ElGamalCiphertext& ct) {
  ElGamalCiphertext out;
  out.a = ct.a;
  out.b = group.MulElems(ct.b, group.InvElem(group.ExpSecret(ct.a, priv_j)));
  return out;
}

}  // namespace dissent
