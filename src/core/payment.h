#ifndef P2DRM_CORE_PAYMENT_H_
#define P2DRM_CORE_PAYMENT_H_

/// \file payment.h
/// \brief Anonymous payment: Chaum-style blind-signature e-cash.
///
/// The paper's purchase protocol needs payment that does not identify the
/// buyer to the content provider *or* let the bank link a withdrawal to a
/// spend. Coins are fixed-denomination serials blind-signed by the bank;
/// withdrawal is identified (the account is debited), deposit is anonymous,
/// and double-spending is caught by the serial set. The identified
/// `DirectDebit` path is the baseline-DRM payment and is deliberately
/// privacy-leaking: the bank records payee and amount.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/random_source.h"
#include "core/errors.h"
#include "crypto/rsa.h"
#include "server/batch_pipeline.h"
#include "server/batch_verifier.h"
#include "server/server_runtime.h"

namespace p2drm {
namespace core {

/// A bearer coin: random serial blind-signed under the denomination key.
struct Coin {
  std::array<std::uint8_t, 16> serial{};
  std::uint32_t denomination = 0;
  std::vector<std::uint8_t> signature;  ///< bank RSA-FDH over CanonicalBytes

  /// The byte string the bank's blind signature covers.
  std::vector<std::uint8_t> CanonicalBytes() const;
  std::vector<std::uint8_t> Serialize() const;
  static Coin Deserialize(const std::vector<std::uint8_t>& b);
};

/// Record of an identified (baseline) debit — the privacy leak we measure.
struct DebitRecord {
  std::string account;
  std::string payee;
  std::uint64_t amount = 0;
  std::uint64_t timestamp_s = 0;
};

/// Bank-side configuration.
struct PaymentProviderConfig {
  /// Number of deposit shards: the server::ServerRuntime's workers own
  /// the spent-serial partitions, so coin double-spend checks shard like
  /// the provider's spent set. 0 runs as 1 shard. Single deposits route
  /// through the same shards, so batched and unbatched traffic can never
  /// double-credit one serial.
  std::size_t deposit_shards = 0;
  /// Per-shard bounded-queue capacity (coins). DepositBatch calls that
  /// would overflow a shard queue are shed with Status::kOverloaded.
  std::size_t deposit_queue_capacity = 4096;
};

/// The bank / payment provider actor.
class PaymentProvider {
 public:
  /// One signing key per denomination (a blind signature cannot carry the
  /// denomination in the message — the key *is* the denomination).
  PaymentProvider(std::size_t modulus_bits, bignum::RandomSource* rng,
                  const PaymentProviderConfig& config = PaymentProviderConfig());
  ~PaymentProvider();

  /// Supported coin denominations, ascending.
  static const std::vector<std::uint32_t>& Denominations();

  /// Verification key for \p denomination. Throws for unknown values.
  const crypto::RsaPublicKey& DenominationKey(std::uint32_t denomination) const;

  /// Opens an account with an initial balance.
  void OpenAccount(const std::string& account, std::uint64_t balance);

  std::uint64_t Balance(const std::string& account) const;

  /// Identified withdrawal: debits \p account by \p denomination and blind-
  /// signs the coin request. The bank learns who withdrew how much, but not
  /// the coin serial.
  Status Withdraw(const std::string& account, std::uint32_t denomination,
                  const bignum::BigInt& blinded, bignum::BigInt* blind_sig);

  /// Anonymous deposit by a merchant. Verifies the coin, rejects double
  /// spends by serial, credits \p merchant_account. The serial check
  /// serializes on the coin's home shard (never shed), exactly like one
  /// item of a DepositBatch.
  Status Deposit(const Coin& coin, const std::string& merchant_account);

  /// One decoded batched-deposit item (matches the wire DepositRequest).
  struct DepositItem {
    Coin coin;
    std::string merchant_account;
  };

  /// Deposits a whole batch through the bank's server::BatchPipeline:
  /// verify (one same-key group per denomination, each coin checked once
  /// on the denomination key's cached Montgomery context), mutate (serial
  /// inserts on each coin's home shard — the backpressure point), commit
  /// (account credits, serialized on the dispatch thread).
  /// Per-item statuses are index-aligned and match Deposit() item for
  /// item; a duplicate serial — within the batch or across batches and
  /// single deposits — yields exactly one credit, every repeat a typed
  /// kDoubleSpend. Items shed by a full shard queue (only possible when
  /// \p shed_on_full) return kOverloaded with no trace: the serial is
  /// not burned and the coin may be re-deposited.
  std::vector<Status> DepositBatch(const std::vector<DepositItem>& items,
                                   bool shed_on_full = true);

  /// The deposit shard runtime that owns the spent serials; never null.
  const server::ServerRuntime* DepositRuntime() const {
    return runtime_.get();
  }

  /// Wires tracing + metrics into the deposit pipeline (and the deposit
  /// runtime's queue accounting). Same contract as
  /// ContentProvider::set_observability.
  void set_observability(const obs::Sink& sink, const std::string& prefix = "");

  /// Baseline identified debit: moves funds and records the transaction.
  Status DirectDebit(const std::string& account, const std::string& payee,
                     std::uint64_t amount, std::uint64_t timestamp_s);

  /// The identified-transaction log (baseline privacy-leak accounting).
  const std::vector<DebitRecord>& DebitLog() const { return debit_log_; }

  /// Number of coins deposited (audit).
  std::uint64_t DepositedCoins() const { return deposited_coins_; }
  /// Number of rejected double-spend attempts.
  std::uint64_t DoubleSpendAttempts() const { return double_spend_attempts_; }

 private:
  /// Serial-set insert for one coin on its home shard: kOk (fresh) or
  /// kDoubleSpend.
  Status SpendSerial(const Coin& coin);
  static rel::LicenseId SerialKey(const Coin& coin);

  PaymentProviderConfig config_;
  bignum::RandomSource* rng_;
  std::map<std::uint32_t, crypto::RsaPrivateKey> denom_keys_;
  std::map<std::uint32_t, crypto::RsaPublicKey> denom_pub_;
  std::map<std::string, std::uint64_t> accounts_;
  std::unique_ptr<server::ServerRuntime> runtime_;  ///< spent serials
  server::BatchVerifier verifier_;
  std::vector<DebitRecord> debit_log_;
  std::uint64_t deposited_coins_ = 0;
  std::uint64_t double_spend_attempts_ = 0;
  server::PipelineObs obs_deposit_;  ///< null endpoints = off
  /// Zero workers: deposits sign nothing, and their coin checks run on
  /// the calling thread.
  server::SignerPool inline_pool_{0};
  server::BatchPipeline pipeline_{
      server::BatchPipeline::Config{&inline_pool_, nullptr}};
};

/// Client-side helper: splits \p amount into available denominations,
/// largest first. Returns empty when \p amount is 0.
std::vector<std::uint32_t> PlanCoins(std::uint64_t amount);

}  // namespace core
}  // namespace p2drm

#endif  // P2DRM_CORE_PAYMENT_H_
