// Wire protocol: message round trips, typed RPC dispatch, malformed input.

#include "core/protocol.h"

#include <gtest/gtest.h>

#include "core/smartcard.h"
#include "core/system.h"
#include "crypto/blind_rsa.h"
#include "crypto/drbg.h"
#include "net/rpc.h"

namespace p2drm {
namespace core {
namespace protocol {
namespace {

TEST(ProtoBigInt, RoundTrip) {
  net::ByteWriter w;
  bignum::BigInt v = bignum::BigInt::FromHex("deadbeef00112233445566778899");
  WriteBigInt(&w, v);
  WriteBigInt(&w, bignum::BigInt(0));
  net::ByteReader r(w.Bytes());
  EXPECT_EQ(ReadBigInt(&r).ToHex(), v.ToHex());
  EXPECT_TRUE(ReadBigInt(&r).IsZero());
}

crypto::RsaPublicKey SomeKey() {
  static crypto::RsaPublicKey key = [] {
    crypto::HmacDrbg rng("proto-key");
    return crypto::GenerateRsaKey(256, &rng).PublicKey();
  }();
  return key;
}

TEST(ProtoMessages, EnrolRoundTrip) {
  EnrolRequest req;
  req.holder_name = "alice";
  req.master_key = SomeKey();
  // The tag is NOT part of the body — it rides in the RPC envelope.
  auto bytes = req.Encode();
  net::ByteReader r(bytes);
  EnrolRequest back = EnrolRequest::Decode(&r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.holder_name, "alice");
  EXPECT_TRUE(back.master_key == req.master_key);
}

TEST(ProtoMessages, WithdrawRoundTrip) {
  WithdrawRequest req;
  req.account = "bob";
  req.denomination = 50;
  req.blinded = bignum::BigInt::FromHex("abcdef");
  auto bytes = req.Encode();
  net::ByteReader r(bytes);
  WithdrawRequest back = WithdrawRequest::Decode(&r);
  EXPECT_EQ(back.account, "bob");
  EXPECT_EQ(back.denomination, 50u);
  EXPECT_EQ(back.blinded.ToHex(), "abcdef");

  WithdrawResponse resp;
  resp.blind_signature = bignum::BigInt::FromHex("1234");
  WithdrawResponse rback = WithdrawResponse::Decode(resp.Encode());
  EXPECT_EQ(rback.blind_signature.ToHex(), "1234");
}

TEST(ProtoMessages, PurchaseRoundTrip) {
  PurchaseRequest req;
  req.buyer.pseudonym_key = SomeKey();
  req.buyer.escrow = {1, 2};
  req.buyer.ca_signature = {3, 4};
  req.content_id = 42;
  Coin c;
  c.serial.fill(9);
  c.denomination = 10;
  c.signature = {5};
  req.payment = {c, c};
  auto bytes = req.Encode();
  net::ByteReader r(bytes);
  PurchaseRequest back = PurchaseRequest::Decode(&r);
  EXPECT_EQ(back.content_id, 42u);
  ASSERT_EQ(back.payment.size(), 2u);
  EXPECT_EQ(back.payment[0].denomination, 10u);
  EXPECT_EQ(back.buyer.escrow, req.buyer.escrow);
}

// A list whose u32 count claims 0xFFFFFFFF elements: the decoder must
// reject it as malformed input, not size an allocation from it.
std::vector<std::uint8_t> WithHostileCount(std::vector<std::uint8_t> bytes) {
  // Both encodings below end in their (empty) list's count.
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = 0xff;
  }
  return bytes;
}

TEST(ProtoMessages, HostileCountsThrowCodecError) {
  PurchaseRequest req;
  req.buyer.pseudonym_key = SomeKey();
  req.content_id = 42;
  std::vector<std::uint8_t> purchase = WithHostileCount(req.Encode());
  net::ByteReader r(purchase);
  EXPECT_THROW(PurchaseRequest::Decode(&r), net::CodecError);

  EXPECT_THROW(CatalogResponse::Decode(WithHostileCount(
                   CatalogResponse{}.Encode())),
               net::CodecError);
}

TEST(ProtoMessages, RequestTagsAreDeclared) {
  // The typed stub keys on Req::kTag; pin the wire values.
  EXPECT_EQ(EnrolRequest::kTag, Tag::kEnrol);
  EXPECT_EQ(WithdrawRequest::kTag, Tag::kWithdraw);
  EXPECT_EQ(PurchaseRequest::kTag, Tag::kPurchase);
  EXPECT_EQ(RedeemRequest::kTag, Tag::kRedeem);
  EXPECT_EQ(OpenEscrowRequest::kTag, Tag::kOpenEscrow);
  // No protocol tag may collide with the reserved batch tag.
  EXPECT_NE(static_cast<std::uint8_t>(Tag::kOpenEscrow), net::kBatchTag);
}

TEST(ProtoMessages, CatalogRoundTrip) {
  CatalogResponse resp;
  Offer o;
  o.content_id = 7;
  o.title = "Title";
  o.price = 30;
  o.rights = rel::Rights::FullRetail();
  resp.offers = {o, o};
  CatalogResponse back = CatalogResponse::Decode(resp.Encode());
  ASSERT_EQ(back.offers.size(), 2u);
  EXPECT_EQ(back.offers[0].title, "Title");
  EXPECT_TRUE(back.offers[1].rights == o.rights);
}

TEST(ProtoMessages, FetchContentRoundTrip) {
  FetchContentResponse resp;
  resp.content.content_id = 3;
  resp.content.nonce.fill(7);
  resp.content.ciphertext = {1, 2, 3};
  FetchContentResponse back = FetchContentResponse::Decode(resp.Encode());
  EXPECT_EQ(back.content.content_id, 3u);
  EXPECT_EQ(back.content.nonce[0], 7);
  EXPECT_EQ(back.content.ciphertext, resp.content.ciphertext);
}

TEST(ProtoMessages, OpenEscrowRoundTrip) {
  OpenEscrowResponse resp;
  resp.opened = true;
  resp.card_id = 99;
  resp.reason = "";
  OpenEscrowResponse back = OpenEscrowResponse::Decode(resp.Encode());
  EXPECT_TRUE(back.opened);
  EXPECT_EQ(back.card_id, 99u);
}

// -- endpoint dispatch through a real system ---------------------------------

class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest()
      : rng_("dispatch"),
        system_(Config(), &rng_),
        rpc_(&system_.transport(), "x") {}

  static SystemConfig Config() {
    SystemConfig cfg;
    cfg.ca_key_bits = 512;
    cfg.ttp_key_bits = 512;
    cfg.bank_key_bits = 512;
    cfg.cp.signing_key_bits = 512;
    return cfg;
  }

  /// Sends a hand-built envelope and decodes the response envelope.
  net::ResponseEnvelope RawRoundTrip(const std::string& endpoint,
                                     const net::RequestEnvelope& env) {
    auto raw = system_.transport().Call("x", endpoint, env.Encode());
    return net::ResponseEnvelope::Decode(raw);
  }

  crypto::HmacDrbg rng_;
  P2drmSystem system_;
  net::Rpc rpc_;
};

TEST_F(DispatchTest, UnknownTagReturnsStatus) {
  net::RequestEnvelope env;
  env.tag = 0x7f;  // no such protocol message
  env.correlation_id = 5;
  for (const char* ep :
       {P2drmSystem::kCaEndpoint, P2drmSystem::kBankEndpoint,
        P2drmSystem::kCpEndpoint, P2drmSystem::kTtpEndpoint}) {
    net::ResponseEnvelope resp = RawRoundTrip(ep, env);
    EXPECT_EQ(resp.status, Status::kUnknownTag) << ep;
    EXPECT_EQ(resp.correlation_id, 5u) << ep;
  }
}

TEST_F(DispatchTest, TruncatedPayloadReturnsBadRequest) {
  net::RequestEnvelope env;
  env.tag = static_cast<std::uint8_t>(Tag::kPurchase);
  env.payload = {0x00};  // far too short for a PurchaseRequest
  net::ResponseEnvelope resp = RawRoundTrip(P2drmSystem::kCpEndpoint, env);
  EXPECT_EQ(resp.status, Status::kBadRequest);
}

TEST_F(DispatchTest, HostilePurchaseCountFailsOnlyItsBatchItem) {
  // An honest buyer: a CA-certified pseudonym and coins summing to the
  // price, withdrawn from the bank.
  rel::ContentId content = system_.cp().Publish(
      "A", {1, 2, 3}, 30, rel::Rights::FullRetail());
  SmartCard card("pat", 512, &rng_);
  card.StoreIdentityCertificate(system_.ca().Enrol("pat", card.MasterKey()));
  PseudonymRequest preq =
      card.BeginPseudonym(system_.ca().PublicKey(), system_.ttp().EscrowKey());
  bignum::BigInt psig =
      system_.ca().SignPseudonymBlinded(card.CardId(), preq.blinding.blinded);
  Pseudonym* buyer =
      card.FinishPseudonym(std::move(preq), psig, system_.ca().PublicKey());
  ASSERT_NE(buyer, nullptr);
  system_.bank().OpenAccount("pat", 100);
  PurchaseRequest honest;
  honest.buyer = buyer->cert;
  honest.content_id = content;
  for (std::uint32_t d : PlanCoins(30)) {
    Coin coin;
    rng_.Fill(coin.serial.data(), coin.serial.size());
    coin.denomination = d;
    const crypto::RsaPublicKey& key = system_.bank().DenominationKey(d);
    crypto::BlindingContext ctx =
        crypto::BlindMessage(key, coin.CanonicalBytes(), &rng_);
    bignum::BigInt blind_sig;
    ASSERT_EQ(system_.bank().Withdraw("pat", d, ctx.blinded, &blind_sig),
              Status::kOk);
    coin.signature = crypto::Unblind(key, ctx, blind_sig);
    honest.payment.push_back(coin);
  }
  PurchaseRequest empty = honest;
  empty.payment.clear();

  // One batch envelope: the honest purchase, then one whose coin count
  // claims 0xFFFFFFFF coins.
  net::ByteWriter body;
  body.U32(2);
  body.U8(static_cast<std::uint8_t>(Tag::kPurchase));
  body.Blob(honest.Encode());
  body.U8(static_cast<std::uint8_t>(Tag::kPurchase));
  body.Blob(WithHostileCount(empty.Encode()));
  net::RequestEnvelope env;
  env.tag = net::kBatchTag;
  env.payload = body.Take();
  net::ResponseEnvelope resp = RawRoundTrip(P2drmSystem::kCpEndpoint, env);
  ASSERT_EQ(resp.status, Status::kOk);

  net::ByteReader r(resp.payload);
  ASSERT_EQ(r.U32(), 2u);
  EXPECT_EQ(static_cast<Status>(r.U8()), Status::kOk);
  PurchaseResponse bought = PurchaseResponse::Decode(r.Blob());
  EXPECT_EQ(bought.license.content_id, content);
  EXPECT_EQ(static_cast<Status>(r.U8()), Status::kBadRequest);
  r.Blob();
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(DispatchTest, VersionMismatchIsRejected) {
  net::RequestEnvelope env;
  env.version = 99;
  env.tag = static_cast<std::uint8_t>(Tag::kCatalog);
  net::ResponseEnvelope resp = RawRoundTrip(P2drmSystem::kCpEndpoint, env);
  EXPECT_EQ(resp.status, Status::kVersionMismatch);
}

TEST_F(DispatchTest, CatalogOverTheWire) {
  system_.cp().Publish("A", {1, 2, 3}, 5, rel::Rights::UnlimitedPlay());
  auto resp = rpc_.Call(P2drmSystem::kCpEndpoint, CatalogRequest{});
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value.offers.size(), 1u);
  EXPECT_EQ(resp.value.offers[0].title, "A");
}

TEST_F(DispatchTest, FetchUnknownContentReturnsStatus) {
  FetchContentRequest req;
  req.content_id = 12345;
  auto resp = rpc_.Call(P2drmSystem::kCpEndpoint, req);
  EXPECT_EQ(resp.status, Status::kUnknownContent);
}

TEST_F(DispatchTest, UnknownEndpointReturnsUnavailable) {
  auto resp = rpc_.Call("no-such-endpoint", CatalogRequest{});
  EXPECT_EQ(resp.status, Status::kUnavailable);
}

TEST_F(DispatchTest, CrlFetchOverTheWire) {
  system_.cp().Revoke(rel::KeyFingerprint{});
  auto resp = rpc_.Call(P2drmSystem::kCpEndpoint, FetchCrlRequest{});
  ASSERT_TRUE(resp.ok());
  auto crl = store::RevocationList::Deserialize(
      resp.value.crl_snapshot, store::CrlStrategy::kSortedSet);
  EXPECT_EQ(crl.Size(), 1u);
}

}  // namespace
}  // namespace protocol
}  // namespace core
}  // namespace p2drm
