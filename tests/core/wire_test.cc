// Typed wire codec (wire.h): canonical round-trips for every WireMessage
// type, and strict rejection of malformed/hostile encodings.
#include "src/core/wire.h"

#include <gtest/gtest.h>

#include <set>

#include "src/util/serialize.h"

namespace dissent {
namespace {

template <typename T>
const T& RoundTrip(const WireMessage& msg) {
  Bytes encoded = SerializeWire(msg);
  auto back = ParseWire(encoded);
  EXPECT_TRUE(back.has_value()) << WireTypeName(msg);
  EXPECT_TRUE(std::holds_alternative<T>(*back)) << WireTypeName(msg);
  // Canonical: re-encoding the parse reproduces the exact bytes.
  EXPECT_EQ(SerializeWire(*back), encoded) << WireTypeName(msg);
  static T decoded;
  decoded = std::get<T>(*back);
  return decoded;
}

TEST(WireTest, ClientSubmitRoundTrip) {
  wire::ClientSubmit m{42, 7, BytesOf("ciphertext bytes")};
  const auto& d = RoundTrip<wire::ClientSubmit>(m);
  EXPECT_EQ(d.round, 42u);
  EXPECT_EQ(d.client_id, 7u);
  EXPECT_EQ(d.ciphertext, BytesOf("ciphertext bytes"));
}

TEST(WireTest, InventoryRoundTrip) {
  wire::Inventory m{9, 2, {1, 5, 8, 1000}};
  const auto& d = RoundTrip<wire::Inventory>(m);
  EXPECT_EQ(d.round, 9u);
  EXPECT_EQ(d.server_id, 2u);
  EXPECT_EQ(d.clients, (std::vector<uint32_t>{1, 5, 8, 1000}));
  // Empty inventory is legal (a server that heard from nobody).
  const auto& e = RoundTrip<wire::Inventory>(wire::Inventory{1, 0, {}});
  EXPECT_TRUE(e.clients.empty());
}

TEST(WireTest, CommitAndServerCiphertextRoundTrip) {
  const auto& c = RoundTrip<wire::Commit>(wire::Commit{3, 1, Bytes(32, 0xab)});
  EXPECT_EQ(c.commitment, Bytes(32, 0xab));
  const auto& s =
      RoundTrip<wire::ServerCiphertext>(wire::ServerCiphertext{3, 1, Bytes(100, 0x5a)});
  EXPECT_EQ(s.ciphertext, Bytes(100, 0x5a));
}

TEST(WireTest, SignatureShareRoundTrip) {
  const auto& d = RoundTrip<wire::SignatureShare>(
      wire::SignatureShare{11, 3, BytesOf("serialized schnorr")});
  EXPECT_EQ(d.round, 11u);
  EXPECT_EQ(d.signature, BytesOf("serialized schnorr"));
}

TEST(WireTest, OutputRoundTrip) {
  wire::Output m;
  m.round = 77;
  m.cleartext = Bytes(50, 0x11);
  m.signatures = {BytesOf("sig0"), BytesOf("sig1"), BytesOf("sig2")};
  const auto& d = RoundTrip<wire::Output>(m);
  EXPECT_EQ(d.round, 77u);
  EXPECT_EQ(d.cleartext, Bytes(50, 0x11));
  ASSERT_EQ(d.signatures.size(), 3u);
  EXPECT_EQ(d.signatures[1], BytesOf("sig1"));
}

TEST(WireTest, AccusationPhaseRoundTrip) {
  const auto& s = RoundTrip<wire::BlameStart>(wire::BlameStart{55});
  EXPECT_EQ(s.session, 55u);
  const auto& a = RoundTrip<wire::AccusationSubmit>(
      wire::AccusationSubmit{55, 4, Bytes(160, 0x77), BytesOf("row-sig")});
  EXPECT_EQ(a.session, 55u);
  EXPECT_EQ(a.client_id, 4u);
  EXPECT_EQ(a.blame_ciphertext.size(), 160u);
  EXPECT_EQ(a.signature, BytesOf("row-sig"));
  const auto& v = RoundTrip<wire::BlameVerdict>(
      wire::BlameVerdict{55, 123, wire::BlameVerdict::kServerExposed, 2});
  EXPECT_EQ(v.session, 55u);
  EXPECT_EQ(v.round, 123u);
  EXPECT_EQ(v.kind, wire::BlameVerdict::kServerExposed);
  EXPECT_EQ(v.culprit, 2u);
}

TEST(WireTest, BlameGossipRoundTrip) {
  wire::BlameRoster roster{
      9, 1, {{2, BytesOf("row-a"), BytesOf("sig-a")}, {7, BytesOf("row-b"), BytesOf("sig-b")}}};
  const auto& r = RoundTrip<wire::BlameRoster>(roster);
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_EQ(r.entries[0].client_id, 2u);
  EXPECT_EQ(r.entries[1].row, BytesOf("row-b"));
  EXPECT_EQ(r.entries[1].signature, BytesOf("sig-b"));
  // Empty roster is legal (a server whose clients all vanished).
  const auto& e = RoundTrip<wire::BlameRoster>(wire::BlameRoster{9, 0, {}});
  EXPECT_TRUE(e.entries.empty());

  const auto& m = RoundTrip<wire::BlameMix>(wire::BlameMix{9, 2, Bytes(500, 0x31)});
  EXPECT_EQ(m.server_id, 2u);
  EXPECT_EQ(m.step.size(), 500u);

  wire::TraceEvidence ev;
  ev.session = 9;
  ev.server_id = 3;
  ev.round = 8;
  ev.bit_index = 4242;
  ev.present = true;
  ev.own_share = {1, 5, 6};
  ev.client_ct_bits = Bytes{0x03};
  ev.server_ct_bit = 1;
  ev.pad_bits = Bytes{0xff, 0x0f};
  const auto& t = RoundTrip<wire::TraceEvidence>(ev);
  EXPECT_EQ(t.bit_index, 4242u);
  EXPECT_EQ(t.own_share, (std::vector<uint32_t>{1, 5, 6}));
  EXPECT_EQ(t.client_ct_bits, Bytes{0x03});

  const auto& c = RoundTrip<wire::BlameChallenge>(
      wire::BlameChallenge{9, 8, 4242, 5, Bytes{0x07}});
  EXPECT_EQ(c.client_id, 5u);
  EXPECT_EQ(c.pad_bits, Bytes{0x07});

  const auto& reb = RoundTrip<wire::BlameRebuttal>(
      wire::BlameRebuttal{9, 5, BytesOf("dleq"), BytesOf("schnorr")});
  EXPECT_EQ(reb.client_id, 5u);
  EXPECT_EQ(reb.signature, BytesOf("schnorr"));
  // Empty rebuttal (concession) is legal — but still signed.
  const auto& concede = RoundTrip<wire::BlameRebuttal>(
      wire::BlameRebuttal{9, 5, {}, BytesOf("schnorr")});
  EXPECT_TRUE(concede.rebuttal.empty());
}

TEST(WireTest, RejectsHostileBlameFrames) {
  // Roster entries out of order (the merged shuffle input must be canonical).
  Writer w;
  w.U8(10);  // BlameRoster tag
  w.U64(1);
  w.U32(0);
  w.U32(2);
  w.U32(7);
  w.Blob(BytesOf("x"));
  w.Blob(BytesOf("sx"));
  w.U32(3);  // 7 then 3: not strictly increasing
  w.Blob(BytesOf("y"));
  w.Blob(BytesOf("sy"));
  EXPECT_FALSE(ParseWire(w.data()).has_value());

  // Hostile roster count with a 4-byte body.
  Writer w2;
  w2.U8(10);
  w2.U64(1);
  w2.U32(0);
  w2.U32(0xffffffff);
  EXPECT_FALSE(ParseWire(w2.data()).has_value());

  // TraceEvidence bitmap of the wrong width for its own-share list.
  Writer w3;
  w3.U8(12);  // TraceEvidence tag
  w3.U64(1);
  w3.U32(0);
  w3.U64(1);
  w3.U64(9);
  w3.Bool(true);
  w3.U32(2);  // two own-share entries
  w3.U32(1);
  w3.U32(4);
  w3.Blob(Bytes(2, 0xff));  // bitmap should be 1 byte, not 2
  w3.U8(0);
  w3.Blob(Bytes(1, 0x01));
  EXPECT_FALSE(ParseWire(w3.data()).has_value());

  // Stray bits beyond the last own-share entry are non-canonical.
  Writer w4;
  w4.U8(12);
  w4.U64(1);
  w4.U32(0);
  w4.U64(1);
  w4.U64(9);
  w4.Bool(true);
  w4.U32(2);
  w4.U32(1);
  w4.U32(4);
  w4.Blob(Bytes(1, 0xff));  // bits 2..7 set for a 2-entry list
  w4.U8(0);
  w4.Blob(Bytes(1, 0x01));
  EXPECT_FALSE(ParseWire(w4.data()).has_value());

  // BlameVerdict with an unknown kind.
  Writer w5;
  w5.U8(8);  // BlameVerdict tag
  w5.U64(1);
  w5.U64(1);
  w5.U8(3);  // beyond kServerExposed
  w5.U32(0);
  EXPECT_FALSE(ParseWire(w5.data()).has_value());
}

TEST(WireTest, RejectsUnknownTagAndEmpty) {
  EXPECT_FALSE(ParseWire({}).has_value());
  EXPECT_FALSE(ParseWire({0}).has_value());
  EXPECT_FALSE(ParseWire({99}).has_value());
  EXPECT_FALSE(ParseWire({0xff, 1, 2, 3}).has_value());
}

TEST(WireTest, RejectsTrailingGarbage) {
  Bytes ok = SerializeWire(wire::Commit{1, 0, BytesOf("c")});
  ASSERT_TRUE(ParseWire(ok).has_value());
  Bytes extended = ok;
  extended.push_back(0);
  EXPECT_FALSE(ParseWire(extended).has_value())
      << "trailing bytes must not be smuggled under a valid message";
}

TEST(WireTest, RejectsTruncation) {
  for (const WireMessage& m : std::initializer_list<WireMessage>{
           wire::ClientSubmit{1, 2, Bytes(9, 3)},
           wire::Inventory{1, 0, {4, 9}},
           wire::Output{1, Bytes(8, 1), {BytesOf("s0"), BytesOf("s1")}},
       }) {
    Bytes full = SerializeWire(m);
    for (size_t len = 0; len < full.size(); ++len) {
      EXPECT_FALSE(ParseWire(Bytes(full.begin(), full.begin() + len)).has_value())
          << WireTypeName(m) << " truncated to " << len;
    }
  }
}

TEST(WireTest, RejectsHostileCounts) {
  // An Inventory claiming 2^32-1 entries with a 4-byte body must be rejected
  // without attempting the allocation (the PR-1 DecodeFrames bad_alloc class
  // of bug).
  Writer w;
  w.U8(2);  // Inventory tag
  w.U64(1);
  w.U32(0);
  w.U32(0xffffffff);  // hostile count
  w.U32(7);           // only one actual entry
  EXPECT_FALSE(ParseWire(w.data()).has_value());

  // Same for Output's signature count.
  Writer w2;
  w2.U8(6);  // Output tag
  w2.U64(1);
  w2.Blob(BytesOf("ct"));
  w2.U32(0x7fffffff);  // hostile count
  EXPECT_FALSE(ParseWire(w2.data()).has_value());
}

TEST(WireTest, RejectsNonCanonicalInventory) {
  // Out-of-order or duplicate entries have no canonical meaning.
  Writer w;
  w.U8(2);
  w.U64(1);
  w.U32(0);
  w.U32(2);
  w.U32(9);
  w.U32(4);  // 9 then 4: not strictly increasing
  EXPECT_FALSE(ParseWire(w.data()).has_value());
  Writer w2;
  w2.U8(2);
  w2.U64(1);
  w2.U32(0);
  w2.U32(2);
  w2.U32(4);
  w2.U32(4);  // duplicate
  EXPECT_FALSE(ParseWire(w2.data()).has_value());
}

TEST(WireTest, DistinctTagsPerType) {
  // Every variant alternative serializes to a distinct leading tag byte.
  std::vector<WireMessage> all = {
      wire::ClientSubmit{},   wire::Inventory{},      wire::Commit{},
      wire::ServerCiphertext{}, wire::SignatureShare{}, wire::Output{},
      wire::BlameStart{},     wire::AccusationSubmit{}, wire::BlameRoster{},
      wire::BlameMix{},       wire::TraceEvidence{},  wire::BlameChallenge{},
      wire::BlameRebuttal{},  wire::BlameVerdict{},
  };
  std::set<uint8_t> tags;
  for (const auto& m : all) {
    Bytes b = SerializeWire(m);
    ASSERT_FALSE(b.empty());
    EXPECT_TRUE(tags.insert(b[0]).second) << WireTypeName(m);
  }
  EXPECT_EQ(tags.size(), all.size());
}

TEST(WireTest, RoutingCoversEveryAlternative) {
  // The two per-frame routing decisions every client-multiplexing transport
  // shares, for every WireMessage alternative: which client a frame on a
  // client link claims to be, and which of the clients hosted behind one
  // link (ids 4..6 here) a server frame reaches.
  constexpr size_t kFirst = 4, kCount = 3;
  const std::pair<size_t, size_t> none{kFirst, kFirst};
  const std::pair<size_t, size_t> all{kFirst, kFirst + kCount};
  struct Case {
    WireMessage msg;
    std::optional<uint32_t> claimed;
    std::pair<size_t, size_t> recipients;
  };
  const std::vector<Case> cases = {
      {wire::ClientSubmit{7, 5, {}}, 5, none},
      {wire::Inventory{}, std::nullopt, none},
      {wire::Commit{}, std::nullopt, none},
      {wire::ServerCiphertext{}, std::nullopt, none},
      {wire::SignatureShare{}, std::nullopt, none},
      {wire::Output{}, std::nullopt, all},
      {wire::BlameStart{}, std::nullopt, all},
      {wire::AccusationSubmit{7, 6, {}, {}}, 6, none},
      {wire::BlameRoster{}, std::nullopt, none},
      {wire::BlameMix{}, std::nullopt, none},
      {wire::TraceEvidence{}, std::nullopt, none},
      {wire::BlameChallenge{7, 6, 99, 5, {}}, std::nullopt, {5, 6}},
      {wire::BlameRebuttal{7, 9, {}, {}}, 9, none},
      {wire::BlameVerdict{}, std::nullopt, all},
      {wire::Ack{1, 3, 6, {}}, 3, {6, 7}},
      {wire::Reliable{1, 2, 4, {}}, 2, {4, 5}},
      {wire::CatchUpRequest{0, 4}, 4, none},
      {wire::RoundSummary{}, std::nullopt, all},
      {wire::VerdictShare{}, std::nullopt, none},
      {wire::RoundAbort{7, 1}, std::nullopt, none},
      {wire::AbortPrepare{}, std::nullopt, none},
      {wire::AbortCommit{}, std::nullopt, none},
      {wire::ServerCatchUpRequest{}, std::nullopt, none},
      {wire::ServerCatchUpBatch{}, std::nullopt, none},
      // Unicast addressed to a client hosted behind another link.
      {wire::BlameChallenge{7, 6, 99, 7, {}}, std::nullopt, none},
      {wire::Reliable{1, 2, 3, {}}, 2, none},
  };
  std::set<size_t> seen;
  for (const Case& c : cases) {
    seen.insert(c.msg.index());
    EXPECT_EQ(ClaimedClient(c.msg), c.claimed) << WireTypeName(c.msg);
    EXPECT_EQ(HostedRecipients(c.msg, kFirst, kCount), c.recipients) << WireTypeName(c.msg);
  }
  EXPECT_EQ(seen.size(), std::variant_size_v<WireMessage>);
}

}  // namespace
}  // namespace dissent
