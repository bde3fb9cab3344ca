#include "store/revocation_list.h"

#include "net/codec.h"

namespace p2drm {
namespace store {

RevocationList::RevocationList(CrlStrategy strategy,
                               std::size_t expected_entries)
    : strategy_(strategy) {
  if (strategy_ == CrlStrategy::kBloomFronted) {
    bloom_ = std::make_unique<BloomFilter>(expected_entries);
  }
}

void RevocationList::Revoke(const rel::DeviceId& id) {
  if (!members_.insert(id).second) return;
  if (bloom_) bloom_->Insert(id.data(), id.size());
  ++version_;
}

bool RevocationList::IsRevoked(const rel::DeviceId& id) const {
  // bloom_ exists only under kBloomFronted: its negative answer is final.
  if (bloom_ && !bloom_->MayContain(id.data(), id.size())) return false;
  return members_.count(id) != 0;
}

std::vector<rel::DeviceId> RevocationList::Entries() const {
  return std::vector<rel::DeviceId>(members_.begin(), members_.end());
}

std::vector<std::uint8_t> RevocationList::Serialize() const {
  net::ByteWriter w;
  w.U64(version_);
  w.U32(static_cast<std::uint32_t>(members_.size()));
  for (const auto& id : members_) w.Fixed(id);
  return w.Take();
}

RevocationList RevocationList::Deserialize(
    const std::vector<std::uint8_t>& bytes, CrlStrategy strategy) {
  net::ByteReader r(bytes);
  std::uint64_t version = r.U64();
  std::uint32_t count = r.U32();
  RevocationList out(strategy, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    rel::DeviceId id = r.Fixed<32>();
    out.Revoke(id);
  }
  r.ExpectEnd();
  out.version_ = version;
  return out;
}

std::size_t RevocationList::MemoryBytes() const {
  constexpr std::size_t kIdBytes = sizeof(rel::DeviceId);
  // std::set node overhead: 3 pointers + color ≈ 32B on 64-bit.
  std::size_t base = members_.size() * (kIdBytes + 32);
  if (bloom_) base += bloom_->SizeBytes();
  return base;
}

}  // namespace store
}  // namespace p2drm
