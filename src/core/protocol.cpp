#include "core/protocol.h"

namespace p2drm {
namespace core {
namespace protocol {

void WriteBigInt(net::ByteWriter* w, const bignum::BigInt& v) {
  w->Blob(v.ToBytes());
}

bignum::BigInt ReadBigInt(net::ByteReader* r) {
  return bignum::BigInt::FromBytes(r->Blob());
}

namespace {

void WriteOffer(net::ByteWriter* w, const Offer& o) {
  w->U64(o.content_id);
  w->String(o.title);
  w->U64(o.price);
  o.rights.Encode(w);
}

/// Smallest encodings of one list element: a coin blob is at least its
/// u32 length prefix; an offer is id, title length prefix, price and the
/// fixed-size rights record (u8 flags, u32 plays, u64 expiry, u8 level).
constexpr std::size_t kMinCoinBytes = 4;
constexpr std::size_t kMinOfferBytes = 8 + 4 + 8 + (1 + 4 + 8 + 1);

/// Reads a u32 element count, rejecting one the unread bytes cannot hold
/// at \p min_item_bytes per element, so a hostile count fails as a
/// CodecError instead of sizing a reserve().
std::uint32_t ReadCount(net::ByteReader* r, std::size_t min_item_bytes) {
  std::uint32_t n = r->U32();
  if (n > r->Remaining() / min_item_bytes) {
    throw net::CodecError("element count exceeds payload");
  }
  return n;
}

Offer ReadOffer(net::ByteReader* r) {
  Offer o;
  o.content_id = r->U64();
  o.title = r->String();
  o.price = r->U64();
  o.rights = rel::Rights::Decode(r);
  return o;
}

}  // namespace

// -- CA -----------------------------------------------------------------

std::vector<std::uint8_t> EnrolRequest::Encode() const {
  net::ByteWriter w;
  w.String(holder_name);
  w.Blob(master_key.Serialize());
  return w.Take();
}

EnrolRequest EnrolRequest::Decode(net::ByteReader* r) {
  EnrolRequest m;
  m.holder_name = r->String();
  m.master_key = crypto::RsaPublicKey::Deserialize(r->Blob());
  return m;
}

std::vector<std::uint8_t> EnrolResponse::Encode() const {
  net::ByteWriter w;
  w.Blob(certificate.Serialize());
  return w.Take();
}

EnrolResponse EnrolResponse::Decode(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  EnrolResponse m;
  m.certificate = IdentityCertificate::Deserialize(r.Blob());
  return m;
}

std::vector<std::uint8_t> PseudonymSignRequest::Encode() const {
  net::ByteWriter w;
  w.U64(card_id);
  WriteBigInt(&w, blinded);
  return w.Take();
}

PseudonymSignRequest PseudonymSignRequest::Decode(net::ByteReader* r) {
  PseudonymSignRequest m;
  m.card_id = r->U64();
  m.blinded = ReadBigInt(r);
  return m;
}

std::vector<std::uint8_t> PseudonymSignResponse::Encode() const {
  net::ByteWriter w;
  WriteBigInt(&w, blind_signature);
  return w.Take();
}

PseudonymSignResponse PseudonymSignResponse::Decode(
    const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  PseudonymSignResponse m;
  m.blind_signature = ReadBigInt(&r);
  return m;
}

std::vector<std::uint8_t> DeviceCertRequest::Encode() const {
  net::ByteWriter w;
  w.Blob(device_key.Serialize());
  w.U8(security_level);
  return w.Take();
}

DeviceCertRequest DeviceCertRequest::Decode(net::ByteReader* r) {
  DeviceCertRequest m;
  m.device_key = crypto::RsaPublicKey::Deserialize(r->Blob());
  m.security_level = r->U8();
  return m;
}

std::vector<std::uint8_t> DeviceCertResponse::Encode() const {
  net::ByteWriter w;
  w.Blob(certificate.Serialize());
  return w.Take();
}

DeviceCertResponse DeviceCertResponse::Decode(
    const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  DeviceCertResponse m;
  m.certificate = DeviceCertificate::Deserialize(r.Blob());
  return m;
}

// -- bank ---------------------------------------------------------------

std::vector<std::uint8_t> WithdrawRequest::Encode() const {
  net::ByteWriter w;
  w.String(account);
  w.U32(denomination);
  WriteBigInt(&w, blinded);
  return w.Take();
}

WithdrawRequest WithdrawRequest::Decode(net::ByteReader* r) {
  WithdrawRequest m;
  m.account = r->String();
  m.denomination = r->U32();
  m.blinded = ReadBigInt(r);
  return m;
}

std::vector<std::uint8_t> WithdrawResponse::Encode() const {
  net::ByteWriter w;
  WriteBigInt(&w, blind_signature);
  return w.Take();
}

WithdrawResponse WithdrawResponse::Decode(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  WithdrawResponse m;
  m.blind_signature = ReadBigInt(&r);
  return m;
}

std::vector<std::uint8_t> DepositRequest::Encode() const {
  net::ByteWriter w;
  w.Blob(coin.Serialize());
  w.String(merchant_account);
  return w.Take();
}

DepositRequest DepositRequest::Decode(net::ByteReader* r) {
  DepositRequest m;
  m.coin = Coin::Deserialize(r->Blob());
  m.merchant_account = r->String();
  return m;
}

std::vector<std::uint8_t> DepositResponse::Encode() const { return {}; }

DepositResponse DepositResponse::Decode(const std::vector<std::uint8_t>&) {
  return {};
}

// -- content provider ------------------------------------------------------

std::vector<std::uint8_t> CatalogRequest::Encode() const { return {}; }

std::vector<std::uint8_t> CatalogResponse::Encode() const {
  net::ByteWriter w;
  w.U32(static_cast<std::uint32_t>(offers.size()));
  for (const Offer& o : offers) WriteOffer(&w, o);
  return w.Take();
}

CatalogResponse CatalogResponse::Decode(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  CatalogResponse m;
  std::uint32_t n = ReadCount(&r, kMinOfferBytes);
  m.offers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.offers.push_back(ReadOffer(&r));
  return m;
}

std::vector<std::uint8_t> PurchaseRequest::Encode() const {
  net::ByteWriter w;
  w.Blob(buyer.Serialize());
  w.U64(content_id);
  w.U32(static_cast<std::uint32_t>(payment.size()));
  for (const Coin& c : payment) w.Blob(c.Serialize());
  return w.Take();
}

PurchaseRequest PurchaseRequest::Decode(net::ByteReader* r) {
  PurchaseRequest m;
  m.buyer = PseudonymCertificate::Deserialize(r->Blob());
  m.content_id = r->U64();
  std::uint32_t n = ReadCount(r, kMinCoinBytes);
  m.payment.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.payment.push_back(Coin::Deserialize(r->Blob()));
  }
  return m;
}

std::vector<std::uint8_t> PurchaseResponse::Encode() const {
  net::ByteWriter w;
  w.Blob(license.Serialize());
  return w.Take();
}

PurchaseResponse PurchaseResponse::Decode(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  PurchaseResponse m;
  m.license = rel::License::Deserialize(r.Blob());
  return m;
}

std::vector<std::uint8_t> ExchangeRequest::Encode() const {
  net::ByteWriter w;
  w.Blob(license.Serialize());
  w.Blob(possession_sig);
  return w.Take();
}

ExchangeRequest ExchangeRequest::Decode(net::ByteReader* r) {
  ExchangeRequest m;
  m.license = rel::License::Deserialize(r->Blob());
  m.possession_sig = r->Blob();
  return m;
}

std::vector<std::uint8_t> ExchangeResponse::Encode() const {
  net::ByteWriter w;
  w.Blob(anonymous_license.Serialize());
  return w.Take();
}

ExchangeResponse ExchangeResponse::Decode(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  ExchangeResponse m;
  m.anonymous_license = rel::License::Deserialize(r.Blob());
  return m;
}

std::vector<std::uint8_t> RedeemRequest::Encode() const {
  net::ByteWriter w;
  w.Blob(anonymous_license.Serialize());
  w.Blob(taker.Serialize());
  return w.Take();
}

RedeemRequest RedeemRequest::Decode(net::ByteReader* r) {
  RedeemRequest m;
  m.anonymous_license = rel::License::Deserialize(r->Blob());
  m.taker = PseudonymCertificate::Deserialize(r->Blob());
  return m;
}

std::vector<std::uint8_t> FetchContentRequest::Encode() const {
  net::ByteWriter w;
  w.U64(content_id);
  return w.Take();
}

FetchContentRequest FetchContentRequest::Decode(net::ByteReader* r) {
  FetchContentRequest m;
  m.content_id = r->U64();
  return m;
}

std::vector<std::uint8_t> FetchContentResponse::Encode() const {
  net::ByteWriter w;
  w.U64(content.content_id);
  w.Fixed(content.nonce);
  w.Blob(content.ciphertext);
  return w.Take();
}

FetchContentResponse FetchContentResponse::Decode(
    const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  FetchContentResponse m;
  m.content.content_id = r.U64();
  m.content.nonce = r.Fixed<12>();
  m.content.ciphertext = r.Blob();
  return m;
}

std::vector<std::uint8_t> FetchCrlRequest::Encode() const { return {}; }

std::vector<std::uint8_t> FetchCrlResponse::Encode() const {
  net::ByteWriter w;
  w.Blob(crl_snapshot);
  return w.Take();
}

FetchCrlResponse FetchCrlResponse::Decode(const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  FetchCrlResponse m;
  m.crl_snapshot = r.Blob();
  return m;
}

// -- TTP ---------------------------------------------------------------------

std::vector<std::uint8_t> OpenEscrowRequest::Encode() const {
  net::ByteWriter w;
  w.Blob(evidence.Serialize());
  return w.Take();
}

OpenEscrowRequest OpenEscrowRequest::Decode(net::ByteReader* r) {
  OpenEscrowRequest m;
  m.evidence = FraudEvidence::Deserialize(r->Blob());
  return m;
}

std::vector<std::uint8_t> OpenEscrowResponse::Encode() const {
  net::ByteWriter w;
  w.U8(opened ? 1 : 0);
  w.U64(card_id);
  w.String(reason);
  return w.Take();
}

OpenEscrowResponse OpenEscrowResponse::Decode(
    const std::vector<std::uint8_t>& b) {
  net::ByteReader r(b);
  OpenEscrowResponse m;
  m.opened = r.U8() != 0;
  m.card_id = r.U64();
  m.reason = r.String();
  return m;
}

}  // namespace protocol
}  // namespace core
}  // namespace p2drm
