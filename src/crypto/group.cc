#include "src/crypto/group.h"

#include <cassert>
#include <cstdlib>
#include <map>
#include <mutex>

#include "src/crypto/multiexp.h"
#include "src/crypto/sha256.h"
#include "src/util/serialize.h"

namespace dissent {

namespace {

// Safe primes p = 2q + 1, generated offline (deterministic Miller-Rabin
// search, seed 42) and re-verified by tests/crypto/group_test. Generator
// g = 4 = 2^2 is a quadratic residue != 1, hence has order exactly q in
// every safe-prime group.
struct RawParams {
  const char* p_hex;
};

const RawParams kParams256 = {
    "9f9b41d4cd3cc3db42914b1df5f84da30c82ed1e4728e754fda103b8924619f3"};

const RawParams kParams512 = {
    "fb8def3a572e8dc20670083d0a2a21dd4499d394148beb09ecd2f93a018018d0"
    "af9a57a96a9172dc5baba339cccd0f6fccb7fdc53fb67c330afe160326d4cd17"};

const RawParams kParams1024 = {
    "91ab3b4641986d472b425c1ad42edfa7acd9af622f9cd34cbc58043cdbeddd02"
    "9057a747f088f8cc610fe8a09913ff747045a67411282e4f504236e9fad41f46"
    "a66487ed8b08d9b94af283a2456ee16fa5e81c7df83d95ab54bad40b95580cd9"
    "76cc52f630bb91d003158a77f137b67dfe3f54e5e35b9afa3344752b179836b7"};

const RawParams kParams2048 = {
    "bd695f630cf42a66d0c49e20c0c54698d18dd6e45b175163425ca691511ed455"
    "bb4d0001b74fa9a36afce8c258d97a112d1f09051c4e75189287adcc9b772cdd"
    "53ce45208c4e2b90f509537f6f288438121092c4f74b9388965691c6aef2abbc"
    "9da61fe6f9f2b7ea5ce6649d04fd04ad140bae52ac0acf17d5666822d9ed2712"
    "332ea3528de9db74590f925bb5783152ad1b365d01d2a9edd97f9af78f2a8b9b"
    "10fad8c7b9b90d7c0ba342d158c4361aab1fc1ef8307b42a7ed9c29df4fef33b"
    "187994552fc39d45b74c1183c8b798ece3122f3208d0752e6f781181bcbaeba9"
    "4654b0e035bb3417f2cdec872317b564125439870bd9380883126061b97e491b"};

std::shared_ptr<const Group> MakeGroup(const RawParams& raw) {
  BigInt p = BigInt::FromHex(raw.p_hex);
  BigInt q = BigInt::Sub(p, BigInt(1)).ShiftRight(1);
  return std::make_shared<const Group>(p, q, BigInt(4));
}

}  // namespace

std::shared_ptr<const Group> Group::Named(GroupId id) {
  static std::mutex mu;
  static std::map<GroupId, std::shared_ptr<const Group>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(id);
  if (it != cache.end()) {
    return it->second;
  }
  std::shared_ptr<const Group> g;
  switch (id) {
    case GroupId::kTesting256:
      g = MakeGroup(kParams256);
      break;
    case GroupId::kMedium512:
      g = MakeGroup(kParams512);
      break;
    case GroupId::kProduction1024:
      g = MakeGroup(kParams1024);
      break;
    case GroupId::kProduction2048:
      g = MakeGroup(kParams2048);
      break;
  }
  cache[id] = g;
  return g;
}

Group::Group(BigInt p, BigInt q, BigInt g)
    : p_(std::move(p)), q_(std::move(q)), g_(std::move(g)), mont_p_(p_) {
  element_bytes_ = (p_.BitLength() + 7) / 8;
  scalar_bytes_ = (q_.BitLength() + 7) / 8;
  // Safe-prime shape check gates the Jacobi membership test: only when
  // p == 2q + 1 does "subgroup of order q" coincide with "quadratic
  // residue", i.e. Legendre symbol +1 (Euler's criterion).
  safe_prime_ = BigInt::Cmp(BigInt::Add(q_.ShiftLeft(1), BigInt(1)), p_) == 0;
  g_table_ = std::make_shared<const FixedBaseTable>(*this, g_);
}

Group::~Group() = default;

BigInt Group::Exp(const BigInt& base, const BigInt& e) const { return mont_p_.Exp(base, e); }

BigInt Group::GExp(const BigInt& e) const { return g_table_->Exp(e); }

BigInt Group::ExpSecret(const BigInt& base, const BigInt& e) const {
  assert(BigInt::Cmp(e, q_) < 0);
  return mont_p_.ExpSecret(base, e, q_.BitLength());
}

BigInt Group::GExpSecret(const BigInt& e) const {
  assert(BigInt::Cmp(e, q_) < 0);
  return g_table_->ExpSecret(e);
}

BigInt Group::MulElems(const BigInt& a, const BigInt& b) const {
  return BigInt::ModMul(a, b, p_);
}

BigInt Group::InvElem(const BigInt& a) const { return BigInt::ModInverse(a, p_); }

std::vector<BigInt> Group::BatchInvElems(const std::vector<BigInt>& v) const {
  // Montgomery's trick over prefix products, in the Montgomery domain so the
  // walk-back costs one MontMul per element instead of a ModMul round trip.
  const size_t n = v.size();
  if (n == 0) {
    return {};
  }
  std::vector<Montgomery::Limbs> prefix(n);
  Montgomery::Limbs acc = mont_p_.One();
  for (size_t i = 0; i < n; ++i) {
    assert(!v[i].IsZero());
    acc = mont_p_.MontMul(acc, mont_p_.ToMont(v[i]));
    prefix[i] = acc;
  }
  BigInt total_inv = BigInt::ModInverse(mont_p_.FromMont(acc), p_);
  assert(!total_inv.IsZero());
  Montgomery::Limbs inv = mont_p_.ToMont(total_inv);  // prod^{-1}
  std::vector<BigInt> out(n);
  for (size_t i = n; i-- > 1;) {
    out[i] = mont_p_.FromMont(mont_p_.MontMul(inv, prefix[i - 1]));
    inv = mont_p_.MontMul(inv, mont_p_.ToMont(v[i]));
  }
  out[0] = mont_p_.FromMont(inv);
  return out;
}

bool Group::IsElement(const BigInt& a) const {
  if (a.IsZero() || BigInt::Cmp(a, p_) >= 0) {
    return false;
  }
  if (safe_prime_) {
    // Legendre symbol via binary Jacobi: identical verdict to a^q == 1 at a
    // small fraction of the exponentiation's cost (pinned against the
    // defining exponentiation by tests/crypto/multiexp_test.cc,
    // JacobiMembershipMatchesExpMembership).
    return BigInt::Jacobi(a, p_) == 1;
  }
  return Exp(a, q_).IsOne();
}

Group::Elem Group::ToElem(const BigInt& a) const { return Elem{mont_p_.ToMont(a)}; }

BigInt Group::FromElem(const Elem& a) const { return mont_p_.FromMont(a.mont); }

Group::Elem Group::IdentityElem() const { return Elem{mont_p_.One()}; }

Group::Elem Group::MulElems(const Elem& a, const Elem& b) const {
  return Elem{mont_p_.MontMul(a.mont, b.mont)};
}

const FixedBaseTable& Group::GeneratorTable() const { return *g_table_; }

std::shared_ptr<const FixedBaseTable> Group::FindCachedTable(const BigInt& base) const {
  std::string key(reinterpret_cast<const char*>(base.limbs().data()),
                  base.limbs().size() * sizeof(uint64_t));
  std::lock_guard<std::mutex> lock(table_mu_);
  auto it = table_cache_.find(key);
  return it != table_cache_.end() ? it->second : nullptr;
}

std::shared_ptr<const FixedBaseTable> Group::CachedTable(const BigInt& base) const {
  constexpr size_t kMaxCachedTables = 64;
  std::string key(reinterpret_cast<const char*>(base.limbs().data()),
                  base.limbs().size() * sizeof(uint64_t));
  {
    std::lock_guard<std::mutex> lock(table_mu_);
    auto it = table_cache_.find(key);
    if (it != table_cache_.end()) {
      return it->second;
    }
  }
  // Built outside the lock: a concurrent double build wastes a little work
  // but never blocks other bases behind a ~1k-multiplication construction.
  auto table = std::make_shared<const FixedBaseTable>(*this, base);
  std::lock_guard<std::mutex> lock(table_mu_);
  auto [it, inserted] = table_cache_.emplace(std::move(key), table);
  if (inserted) {
    table_order_.push_back(it->first);
    if (table_order_.size() > kMaxCachedTables) {
      table_cache_.erase(table_order_.front());
      table_order_.pop_front();
    }
  }
  return it->second;
}

BigInt Group::AddScalars(const BigInt& a, const BigInt& b) const {
  return BigInt::ModAdd(a, b, q_);
}

BigInt Group::SubScalars(const BigInt& a, const BigInt& b) const {
  return BigInt::ModSub(a, b, q_);
}

BigInt Group::MulScalars(const BigInt& a, const BigInt& b) const {
  return BigInt::ModMul(a, b, q_);
}

BigInt Group::NegScalar(const BigInt& a) const { return BigInt::ModSub(BigInt(), a, q_); }

BigInt Group::InvScalar(const BigInt& a) const { return BigInt::ModInverse(a, q_); }

std::vector<BigInt> Group::BatchInvScalars(const std::vector<BigInt>& v) const {
  const size_t n = v.size();
  if (n == 0) {
    return {};
  }
  std::vector<BigInt> prefix(n);
  BigInt acc(1);
  for (size_t i = 0; i < n; ++i) {
    acc = BigInt::ModMul(acc, v[i], q_);
    prefix[i] = acc;
  }
  BigInt inv = BigInt::ModInverse(acc, q_);
  if (inv.IsZero()) {
    // Some entry is not invertible: every output is zero, matching
    // InvScalar's convention for that entry (callers treat it as an error).
    return std::vector<BigInt>(n);
  }
  std::vector<BigInt> out(n);
  for (size_t i = n; i-- > 1;) {
    out[i] = BigInt::ModMul(inv, prefix[i - 1], q_);
    inv = BigInt::ModMul(inv, v[i], q_);
  }
  out[0] = std::move(inv);
  return out;
}

BigInt Group::RandomScalar(SecureRng& rng) const { return rng.RandomBelow(q_); }

BigInt Group::HashToScalar(const Bytes& data) const {
  // Expand to 2x scalar width before reducing so the bias is negligible.
  Bytes wide;
  size_t need = 2 * scalar_bytes_;
  uint32_t counter = 0;
  while (wide.size() < need) {
    Writer w;
    w.Str("dissent.hash_to_scalar");
    w.U32(counter++);
    w.Blob(data);
    Bytes d = Sha256::Hash(w.data());
    wide.insert(wide.end(), d.begin(), d.end());
  }
  wide.resize(need);
  return BigInt::Mod(BigInt::FromBytes(wide), q_);
}

Bytes Group::ElementToBytes(const BigInt& a) const { return a.ToBytesPadded(element_bytes_); }

std::optional<BigInt> Group::ElementFromBytes(const Bytes& b) const {
  if (b.size() != element_bytes_) {
    return std::nullopt;
  }
  BigInt v = BigInt::FromBytes(b);
  if (!IsElement(v)) {
    return std::nullopt;
  }
  return v;
}

Bytes Group::ScalarToBytes(const BigInt& a) const { return a.ToBytesPadded(scalar_bytes_); }

std::optional<BigInt> Group::ScalarFromBytes(const Bytes& b) const {
  if (b.size() != scalar_bytes_) {
    return std::nullopt;
  }
  BigInt v = BigInt::FromBytes(b);
  if (BigInt::Cmp(v, q_) >= 0) {
    return std::nullopt;
  }
  return v;
}

size_t Group::MessageCapacity() const {
  // Encoded value is (0x01 || m) + 1, which must stay <= q - 1: one prefix
  // byte plus one bit of headroom below q's bit length.
  size_t qbits = q_.BitLength();
  if (qbits < 18) {
    return 0;
  }
  return (qbits - 2) / 8 - 1;
}

std::optional<BigInt> Group::EncodeMessage(const Bytes& m) const {
  if (m.size() > MessageCapacity()) {
    return std::nullopt;
  }
  Bytes prefixed;
  prefixed.reserve(m.size() + 1);
  prefixed.push_back(0x01);
  prefixed.insert(prefixed.end(), m.begin(), m.end());
  BigInt v = BigInt::FromBytes(prefixed);
  BigInt candidate = BigInt::Add(v, BigInt(1));  // in [2, q]
  assert(BigInt::Cmp(candidate, q_) <= 0);
  if (IsElement(candidate)) {
    return candidate;
  }
  BigInt flipped = BigInt::Sub(p_, candidate);
  assert(IsElement(flipped));
  return flipped;
}

std::optional<Bytes> Group::DecodeMessage(const BigInt& elem) const {
  if (!IsElement(elem)) {
    return std::nullopt;
  }
  // candidate = v + 1 was in [2, q]; the flipped form is in [q+1, p-2].
  BigInt candidate = elem;
  if (BigInt::Cmp(candidate, q_) > 0) {
    candidate = BigInt::Sub(p_, candidate);
  }
  if (candidate.BitLength() < 2) {
    return std::nullopt;  // candidate < 2 cannot encode anything
  }
  BigInt v = BigInt::Sub(candidate, BigInt(1));
  Bytes prefixed = v.ToBytes();
  if (prefixed.empty() || prefixed[0] != 0x01) {
    return std::nullopt;
  }
  return Bytes(prefixed.begin() + 1, prefixed.end());
}

}  // namespace dissent
