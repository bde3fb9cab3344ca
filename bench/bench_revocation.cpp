// RF-3: Revocation-list membership cost versus CRL size, per strategy.
//
// Devices check the CRL on every cooperation and the provider on every
// purchase. The Bloom-fronted variant answers the common negative case in
// O(k) hash probes; the sorted set pays O(log n); the linear strawman
// (a bench-local vector probed with std::find, not a store strategy)
// degrades linearly. Both hit and miss paths are measured.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "gbench_json_main.h"

#include "store/revocation_list.h"

namespace {

using p2drm::rel::DeviceId;
using p2drm::store::CrlStrategy;
using p2drm::store::RevocationList;

DeviceId MakeDev(std::uint64_t n) {
  DeviceId d{};
  std::uint64_t mixed = n * 0x9e3779b97f4a7c15ull + 0x1234;
  for (int i = 0; i < 8; ++i) d[i] = static_cast<std::uint8_t>(n >> (8 * i));
  for (int i = 8; i < 16; ++i) {
    d[i] = static_cast<std::uint8_t>(mixed >> (8 * (i - 8)));
  }
  return d;
}

template <CrlStrategy kStrategy>
void BM_CrlMiss(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  RevocationList crl(kStrategy, n);
  for (std::size_t i = 0; i < n; ++i) crl.Revoke(MakeDev(i));
  std::uint64_t probe = n + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crl.IsRevoked(MakeDev(probe++)));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_TEMPLATE(BM_CrlMiss, CrlStrategy::kBloomFronted)
    ->Arg(100)->Arg(10000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_CrlMiss, CrlStrategy::kSortedSet)
    ->Arg(100)->Arg(10000)->Arg(1000000);

/// The linear-scan strawman: \p n revoked ids in insertion order.
std::vector<DeviceId> LinearCrl(std::size_t n) {
  std::vector<DeviceId> crl;
  for (std::size_t i = 0; i < n; ++i) crl.push_back(MakeDev(i));
  return crl;
}

bool LinearIsRevoked(const std::vector<DeviceId>& crl, const DeviceId& id) {
  return std::find(crl.begin(), crl.end(), id) != crl.end();
}

void BM_CrlMissLinearScan(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<DeviceId> crl = LinearCrl(n);
  std::uint64_t probe = n + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearIsRevoked(crl, MakeDev(probe++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrlMissLinearScan)->Arg(100)->Arg(10000);

template <CrlStrategy kStrategy>
void BM_CrlHit(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  RevocationList crl(kStrategy, n);
  for (std::size_t i = 0; i < n; ++i) crl.Revoke(MakeDev(i));
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crl.IsRevoked(MakeDev(probe++ % n)));
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_TEMPLATE(BM_CrlHit, CrlStrategy::kBloomFronted)
    ->Arg(10000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_CrlHit, CrlStrategy::kSortedSet)
    ->Arg(10000)->Arg(1000000);

void BM_CrlHitLinearScan(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<DeviceId> crl = LinearCrl(n);
  std::uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearIsRevoked(crl, MakeDev(probe++ % n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrlHitLinearScan)->Arg(10000);

void BM_CrlSerializeSnapshot(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  RevocationList crl(CrlStrategy::kSortedSet, n);
  for (std::size_t i = 0; i < n; ++i) crl.Revoke(MakeDev(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crl.Serialize());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * 32));
}
BENCHMARK(BM_CrlSerializeSnapshot)->Arg(1000)->Arg(100000);

}  // namespace

P2DRM_GBENCH_JSON_MAIN("bench_revocation")
