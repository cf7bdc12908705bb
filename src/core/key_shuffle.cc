#include "src/core/key_shuffle.h"

#include <atomic>
#include <cassert>

#include "src/util/parallel.h"
#include "src/util/serialize.h"

namespace dissent {

BigInt RemainingKey(const GroupDef& def, size_t first_server) {
  BigInt h = def.group->Identity();
  for (size_t j = first_server; j < def.num_servers(); ++j) {
    h = def.group->MulElems(h, def.server_pubs[j]);
  }
  return h;
}

MixStep KeyShuffleMixStep(const GroupDef& def, size_t server_index, const BigInt& server_priv,
                          const CiphertextMatrix& inputs, SecureRng& rng) {
  const Group& g = *def.group;
  BigInt remaining = RemainingKey(def, server_index);

  MixStep step;
  ShuffleResult shuffled = ApplyRandomShuffle(g, remaining, inputs, rng);
  step.shuffled = shuffled.outputs;
  step.shuffle_proof = ShuffleProve(g, remaining, inputs, step.shuffled, shuffled.witness, rng);

  const size_t rows = step.shuffled.size();
  step.decrypted.resize(rows);
  step.decrypt_proofs.resize(rows);
  // Each cell peels one layer, b' = b / a^{x_j}, and proves
  // log_g(h_j) == log_a(b / b'). The cells are independent, so draw the DLEQ
  // nonces serially (row-major) and fan the exponentiations across workers;
  // the N per-cell modular inverses collapse into one batch inversion.
  // Output is bit-identical for any worker count.
  std::vector<std::vector<BigInt>> nonces(rows);
  for (size_t i = 0; i < rows; ++i) {
    nonces[i].resize(step.shuffled[i].size());
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      nonces[i][l] = g.RandomScalar(rng);
    }
  }
  // a^{x_j} per cell: the decrypted ratio and the inverse's denominator.
  std::vector<std::vector<BigInt>> ax(rows);
  ParallelFor(rows, DefaultCryptoThreads(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ax[i].resize(step.shuffled[i].size());
      for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
        ax[i][l] = g.ExpSecret(step.shuffled[i][l].a, server_priv);
      }
    }
  });
  std::vector<BigInt> flat;
  flat.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (const BigInt& v : ax[i]) {
      flat.push_back(v);
    }
  }
  std::vector<BigInt> flat_inv = g.BatchInvElems(flat);
  size_t cell = 0;
  for (size_t i = 0; i < rows; ++i) {
    step.decrypted[i].resize(step.shuffled[i].size());
    step.decrypt_proofs[i].resize(step.shuffled[i].size());
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      const ElGamalCiphertext& ct = step.shuffled[i][l];
      step.decrypted[i][l] = {ct.a, g.MulElems(ct.b, flat_inv[cell++])};
    }
  }
  ParallelFor(rows, DefaultCryptoThreads(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
        const ElGamalCiphertext& ct = step.shuffled[i][l];
        step.decrypt_proofs[i][l] =
            DleqProveWithNonce(g, g.g(), def.server_pubs[server_index], ct.a, ax[i][l],
                               server_priv, nonces[i][l]);
      }
    }
  });
  return step;
}

bool VerifyMixStep(const GroupDef& def, size_t server_index, const CiphertextMatrix& inputs,
                   const MixStep& step) {
  const Group& g = *def.group;
  BigInt remaining = RemainingKey(def, server_index);
  if (!ShuffleVerify(g, remaining, inputs, step.shuffled, step.shuffle_proof)) {
    return false;
  }
  if (step.decrypted.size() != step.shuffled.size() ||
      step.decrypt_proofs.size() != step.shuffled.size()) {
    return false;
  }
  for (size_t i = 0; i < step.shuffled.size(); ++i) {
    if (step.decrypted[i].size() != step.shuffled[i].size() ||
        step.decrypt_proofs[i].size() != step.shuffled[i].size()) {
      return false;
    }
  }
  // One batch inversion for the N ratios, then the whole decrypt layer
  // verifies as a single MultiExp relation (DleqBatchVerify) instead of 4
  // exponentiations per ciphertext.
  std::vector<BigInt> after_b;
  for (size_t i = 0; i < step.shuffled.size(); ++i) {
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      const ElGamalCiphertext& before = step.shuffled[i][l];
      const ElGamalCiphertext& after = step.decrypted[i][l];
      if (after.a != before.a || !g.IsElement(after.b)) {
        return false;
      }
      after_b.push_back(after.b);
    }
  }
  std::vector<BigInt> after_b_inv = g.BatchInvElems(after_b);
  std::vector<DleqBatchItem> items;
  items.reserve(after_b.size());
  size_t cell = 0;
  for (size_t i = 0; i < step.shuffled.size(); ++i) {
    for (size_t l = 0; l < step.shuffled[i].size(); ++l) {
      const ElGamalCiphertext& before = step.shuffled[i][l];
      items.push_back({before.a, g.MulElems(before.b, after_b_inv[cell++]),
                       step.decrypt_proofs[i][l]});
    }
  }
  return DleqBatchVerify(g, g.g(), def.server_pubs[server_index], items);
}

CiphertextMatrix::value_type EncryptPseudonymKey(const GroupDef& def,
                                                 const BigInt& pseudonym_pub, SecureRng& rng) {
  return {ElGamalEncrypt(*def.group, RemainingKey(def, 0), pseudonym_pub, rng)};
}

size_t MessageBlockWidth(const GroupDef& def, size_t len) {
  size_t cap = def.group->MessageCapacity();
  // First block carries a 4-byte length header.
  size_t total = len + 4;
  return (total + cap - 1) / cap;
}

std::optional<std::vector<ElGamalCiphertext>> EncryptMessageBlocks(const GroupDef& def,
                                                                   const Bytes& message,
                                                                   size_t width,
                                                                   SecureRng& rng) {
  const Group& g = *def.group;
  size_t cap = g.MessageCapacity();
  if (MessageBlockWidth(def, message.size()) > width) {
    return std::nullopt;
  }
  Bytes framed;
  framed.reserve(4 + message.size());
  for (int b = 0; b < 4; ++b) {
    framed.push_back(static_cast<uint8_t>(message.size() >> (8 * b)));
  }
  framed.insert(framed.end(), message.begin(), message.end());
  framed.resize(width * cap, 0);

  BigInt combined = RemainingKey(def, 0);
  std::vector<ElGamalCiphertext> row(width);
  for (size_t l = 0; l < width; ++l) {
    Bytes block(framed.begin() + l * cap, framed.begin() + (l + 1) * cap);
    auto elem = g.EncodeMessage(block);
    if (!elem.has_value()) {
      return std::nullopt;
    }
    row[l] = ElGamalEncrypt(g, combined, *elem, rng);
  }
  return row;
}

std::optional<Bytes> DecodeMessageBlocks(const GroupDef& def,
                                         const std::vector<ElGamalCiphertext>& row) {
  const Group& g = *def.group;
  Bytes framed;
  for (const ElGamalCiphertext& ct : row) {
    auto block = g.DecodeMessage(ct.b);
    if (!block.has_value()) {
      return std::nullopt;
    }
    framed.insert(framed.end(), block->begin(), block->end());
  }
  if (framed.size() < 4) {
    return std::nullopt;
  }
  size_t len = 0;
  for (int b = 0; b < 4; ++b) {
    len |= static_cast<size_t>(framed[b]) << (8 * b);
  }
  if (len + 4 > framed.size()) {
    return std::nullopt;
  }
  return Bytes(framed.begin() + 4, framed.begin() + 4 + len);
}

ShuffleCascadeResult RunShuffleCascade(const GroupDef& def,
                                       const std::vector<BigInt>& server_privs,
                                       const CiphertextMatrix& submissions, SecureRng& rng) {
  ShuffleCascadeResult result;
  CiphertextMatrix current = submissions;
  for (size_t j = 0; j < def.num_servers(); ++j) {
    MixStep step = KeyShuffleMixStep(def, j, server_privs[j], current, rng);
    current = step.decrypted;
    result.steps.push_back(std::move(step));
  }
  result.final_rows = current;
  return result;
}

bool VerifyShuffleCascade(const GroupDef& def, const CiphertextMatrix& submissions,
                          const ShuffleCascadeResult& result) {
  if (result.steps.size() != def.num_servers()) {
    return false;
  }
  // Every step's claimed inputs are already in hand (step j consumes step
  // j-1's decrypted matrix), so the M step verifications are independent and
  // fan out across workers; the chaining itself is enforced by passing
  // exactly those matrices as the expected inputs.
  const size_t steps = result.steps.size();
  if (steps == 0) {
    return submissions == result.final_rows;
  }
  std::vector<const CiphertextMatrix*> step_inputs(steps);
  step_inputs[0] = &submissions;
  for (size_t j = 1; j < steps; ++j) {
    step_inputs[j] = &result.steps[j - 1].decrypted;
  }
  std::atomic<bool> ok{true};
  ParallelFor(steps, DefaultCryptoThreads(), [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end && ok.load(std::memory_order_relaxed); ++j) {
      if (!VerifyMixStep(def, j, *step_inputs[j], result.steps[j])) {
        ok.store(false, std::memory_order_relaxed);
      }
    }
  });
  return ok.load() && result.steps.back().decrypted == result.final_rows;
}

std::vector<BigInt> PseudonymKeyOrder(const CiphertextMatrix& final_rows) {
  std::vector<BigInt> keys;
  keys.reserve(final_rows.size());
  for (const auto& row : final_rows) {
    keys.push_back(row[0].b);
  }
  return keys;
}

// --- wire codecs ---

namespace {

void WriteElemVec(Writer& w, const Group& g, const std::vector<BigInt>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const BigInt& e : v) {
    w.Raw(g.ElementToBytes(e));
  }
}

bool ReadElemVec(Reader& r, const Group& g, std::vector<BigInt>* out) {
  uint32_t count;
  if (!r.U32(&count) || static_cast<size_t>(count) > r.remaining() / g.ElementBytes()) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    Bytes raw;
    if (!r.Raw(g.ElementBytes(), &raw)) {
      return false;
    }
    auto e = g.ElementFromBytes(raw);
    if (!e.has_value()) {
      return false;
    }
    out->push_back(*e);
  }
  return true;
}

void WriteScalarVec(Writer& w, const Group& g, const std::vector<BigInt>& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (const BigInt& s : v) {
    w.Raw(g.ScalarToBytes(s));
  }
}

bool ReadScalarVec(Reader& r, const Group& g, std::vector<BigInt>* out) {
  uint32_t count;
  if (!r.U32(&count) || static_cast<size_t>(count) > r.remaining() / g.ScalarBytes()) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (uint32_t k = 0; k < count; ++k) {
    Bytes raw;
    if (!r.Raw(g.ScalarBytes(), &raw)) {
      return false;
    }
    auto s = g.ScalarFromBytes(raw);
    if (!s.has_value()) {
      return false;
    }
    out->push_back(*s);
  }
  return true;
}

bool ReadElem(Reader& r, const Group& g, BigInt* out) {
  Bytes raw;
  if (!r.Raw(g.ElementBytes(), &raw)) {
    return false;
  }
  auto e = g.ElementFromBytes(raw);
  if (!e.has_value()) {
    return false;
  }
  *out = *e;
  return true;
}

bool ReadScalar(Reader& r, const Group& g, BigInt* out) {
  Bytes raw;
  if (!r.Raw(g.ScalarBytes(), &raw)) {
    return false;
  }
  auto s = g.ScalarFromBytes(raw);
  if (!s.has_value()) {
    return false;
  }
  *out = *s;
  return true;
}

void WriteMatrix(Writer& w, const Group& g, const CiphertextMatrix& m) {
  const size_t width = m.empty() ? 0 : m[0].size();
  w.U32(static_cast<uint32_t>(m.size()));
  w.U32(static_cast<uint32_t>(width));
  for (const auto& row : m) {
    assert(row.size() == width);
    for (const ElGamalCiphertext& ct : row) {
      w.Raw(g.ElementToBytes(ct.a));
      w.Raw(g.ElementToBytes(ct.b));
    }
  }
}

bool ReadMatrix(Reader& r, const Group& g, CiphertextMatrix* out) {
  uint32_t rows, width;
  if (!r.U32(&rows) || !r.U32(&width)) {
    return false;
  }
  // Hostile-count guard: every cell takes two full elements; reject counts
  // the remaining input cannot possibly hold before allocating anything.
  const size_t cell = 2 * g.ElementBytes();
  if (width == 0 || static_cast<size_t>(width) > r.remaining() / cell ||
      static_cast<size_t>(rows) > r.remaining() / (static_cast<size_t>(width) * cell)) {
    return false;
  }
  out->clear();
  out->reserve(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    std::vector<ElGamalCiphertext> row(width);
    for (uint32_t l = 0; l < width; ++l) {
      if (!ReadElem(r, g, &row[l].a) || !ReadElem(r, g, &row[l].b)) {
        return false;
      }
    }
    out->push_back(std::move(row));
  }
  return true;
}

}  // namespace

Bytes SerializeCiphertextRow(const Group& group, const std::vector<ElGamalCiphertext>& row) {
  Writer w;
  w.U32(static_cast<uint32_t>(row.size()));
  for (const ElGamalCiphertext& ct : row) {
    w.Raw(group.ElementToBytes(ct.a));
    w.Raw(group.ElementToBytes(ct.b));
  }
  return w.Take();
}

std::optional<std::vector<ElGamalCiphertext>> ParseCiphertextRow(const Group& group,
                                                                 const Bytes& data,
                                                                 size_t expected_width) {
  Reader r(data);
  uint32_t width;
  if (!r.U32(&width) || width != expected_width) {
    return std::nullopt;
  }
  std::vector<ElGamalCiphertext> row(width);
  for (uint32_t l = 0; l < width; ++l) {
    if (!ReadElem(r, group, &row[l].a) || !ReadElem(r, group, &row[l].b)) {
      return std::nullopt;
    }
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return row;
}

Bytes SerializeMixStep(const Group& group, const MixStep& step) {
  Writer w;
  WriteMatrix(w, group, step.shuffled);
  const ShuffleProof& p = step.shuffle_proof;
  w.Raw(group.ElementToBytes(p.gamma_commit));
  WriteElemVec(w, group, p.f_elems);
  WriteElemVec(w, group, p.perm_proof.ilmpp.commits);
  WriteScalarVec(w, group, p.perm_proof.ilmpp.responses);
  WriteElemVec(w, group, p.q_a);
  WriteElemVec(w, group, p.q_b);
  WriteElemVec(w, group, p.bind_t_f);
  WriteElemVec(w, group, p.bind_t_qa);
  WriteElemVec(w, group, p.bind_t_qb);
  WriteScalarVec(w, group, p.bind_z);
  WriteElemVec(w, group, p.prod_t_a);
  WriteElemVec(w, group, p.prod_t_b);
  w.Raw(group.ElementToBytes(p.prod_t_gamma));
  w.Raw(group.ScalarToBytes(p.prod_z_s));
  WriteScalarVec(w, group, p.prod_z_t);
  WriteMatrix(w, group, step.decrypted);
  // DLEQ proofs, one per decrypted cell, in row-major order.
  for (const auto& row : step.decrypt_proofs) {
    for (const DleqProof& proof : row) {
      w.Raw(group.ElementToBytes(proof.commit1));
      w.Raw(group.ElementToBytes(proof.commit2));
      w.Raw(group.ScalarToBytes(proof.response));
    }
  }
  return w.Take();
}

std::optional<MixStep> ParseMixStep(const Group& group, const Bytes& data) {
  Reader r(data);
  MixStep step;
  if (!ReadMatrix(r, group, &step.shuffled)) {
    return std::nullopt;
  }
  ShuffleProof& p = step.shuffle_proof;
  if (!ReadElem(r, group, &p.gamma_commit) || !ReadElemVec(r, group, &p.f_elems) ||
      !ReadElemVec(r, group, &p.perm_proof.ilmpp.commits) ||
      !ReadScalarVec(r, group, &p.perm_proof.ilmpp.responses) ||
      !ReadElemVec(r, group, &p.q_a) || !ReadElemVec(r, group, &p.q_b) ||
      !ReadElemVec(r, group, &p.bind_t_f) || !ReadElemVec(r, group, &p.bind_t_qa) ||
      !ReadElemVec(r, group, &p.bind_t_qb) || !ReadScalarVec(r, group, &p.bind_z) ||
      !ReadElemVec(r, group, &p.prod_t_a) || !ReadElemVec(r, group, &p.prod_t_b) ||
      !ReadElem(r, group, &p.prod_t_gamma) || !ReadScalar(r, group, &p.prod_z_s) ||
      !ReadScalarVec(r, group, &p.prod_z_t) || !ReadMatrix(r, group, &step.decrypted)) {
    return std::nullopt;
  }
  // Shapes must agree before reading the per-cell DLEQ proofs (whose count is
  // implied by the decrypted matrix, already bounded by the input size).
  if (step.decrypted.size() != step.shuffled.size()) {
    return std::nullopt;
  }
  step.decrypt_proofs.resize(step.decrypted.size());
  for (size_t i = 0; i < step.decrypted.size(); ++i) {
    if (step.decrypted[i].size() != step.shuffled[i].size()) {
      return std::nullopt;
    }
    step.decrypt_proofs[i].resize(step.decrypted[i].size());
    for (size_t l = 0; l < step.decrypted[i].size(); ++l) {
      DleqProof& proof = step.decrypt_proofs[i][l];
      if (!ReadElem(r, group, &proof.commit1) || !ReadElem(r, group, &proof.commit2) ||
          !ReadScalar(r, group, &proof.response)) {
        return std::nullopt;
      }
    }
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  return step;
}

}  // namespace dissent
