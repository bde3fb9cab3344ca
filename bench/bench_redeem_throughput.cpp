// RF-2: Redemption throughput versus spent-set size, per container — plus
// the RPC batching ablation.
//
// The double-redemption check is one membership test + one insert on the
// provider's hot path. The rows compare the production table
// (store::FlatIdTable, docs/storage.md) with three bench-local baselines:
// a std::unordered_set, a sorted vector and a linear-scan vector. The
// spent set is never the bottleneck at realistic sizes with a hashed
// container (the public-key work dominates), while the linear-scan
// strawman collapses.
//
// The BM_Rpc* pair isolates the wire layer: the same 64 requests sent as
// 64 envelopes versus one kBatch envelope, over a transport with a
// WAN-ish latency model. The simulated-time counter shows the
// per-message latency amortization batching buys on the redeem path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "gbench_json_main.h"

#include "crypto/drbg.h"
#include "net/rpc.h"
#include "store/flat_table.h"

namespace {

using p2drm::rel::LicenseId;
using p2drm::store::FlatIdTable;

// Bench-local baselines with the Insert/Contains pair of FlatIdTable.
struct HashSetIds {
  bool Insert(const LicenseId& id) { return set.insert(id).second; }
  bool Contains(const LicenseId& id) const { return set.count(id) != 0; }
  std::unordered_set<LicenseId> set;
};

struct SortedVectorIds {
  bool Insert(const LicenseId& id) {
    auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it != ids.end() && *it == id) return false;
    ids.insert(it, id);
    return true;
  }
  bool Contains(const LicenseId& id) const {
    return std::binary_search(ids.begin(), ids.end(), id);
  }
  std::vector<LicenseId> ids;  // kept ordered
};

struct LinearScanIds {
  bool Insert(const LicenseId& id) {
    if (Contains(id)) return false;
    ids.push_back(id);
    return true;
  }
  bool Contains(const LicenseId& id) const {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }
  std::vector<LicenseId> ids;  // insertion order
};

// Mixed ids: splitmix64 of the counter in bytes 0-7 (a bijection, so the
// ids stay distinct) and a second round in bytes 8-15. std::hash<LicenseId>
// folds bytes 0-7 as they are, so a plain counter there would give the
// hash set consecutive buckets over nodes allocated in order, and its
// lookups would walk memory sequentially as real random ids never do.
std::uint64_t SplitMix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

LicenseId MakeId(std::uint64_t n) {
  LicenseId id;
  const std::uint64_t lo = SplitMix64(n);
  const std::uint64_t hi = SplitMix64(lo);
  std::memcpy(id.bytes.data(), &lo, 8);
  std::memcpy(id.bytes.data() + 8, &hi, 8);
  return id;
}

template <class Set>
void FillSet(Set* set, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) set->Insert(MakeId(i));
}

// Mixed ids arrive in no order, so the sorted vector is preloaded with one
// sort instead of n mid-vector inserts.
void FillSet(SortedVectorIds* set, std::size_t n) {
  set->ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) set->ids.push_back(MakeId(i));
  std::sort(set->ids.begin(), set->ids.end());
}

// Room for the inserts a row makes between refills. Only the hash set
// needs it: without it the window crosses a bucket-array doubling at some
// sizes, and every refill would pay that rehash again. The flat table's
// labelled sizes stay inside one capacity step up to 1.1x.
template <class Set>
void ReserveFor(Set*, std::size_t) {}

void ReserveFor(HashSetIds* set, std::size_t n) { set->set.reserve(n); }

// Each row measures a set of its labelled size: every preload/10
// inserts the set is put back to the preloaded copy, outside the timed
// region, so it never holds more than 1.1x its label however many
// iterations Google Benchmark picks. New ids keep counting up, so every
// insert is fresh.
template <class Set>
void BM_RedeemCheckAndInsert(benchmark::State& state) {
  const std::size_t preload = static_cast<std::size_t>(state.range(0));
  const std::size_t refill_every = std::max<std::size_t>(preload / 10, 1);
  Set preloaded;
  ReserveFor(&preloaded, preload + refill_every);
  FillSet(&preloaded, preload);
  Set set = preloaded;
  std::uint64_t next = preload;
  std::size_t since_refill = 0;
  for (auto _ : state) {
    if (since_refill == refill_every) {
      state.PauseTiming();
      set = preloaded;
      since_refill = 0;
      state.ResumeTiming();
    }
    LicenseId id = MakeId(next++);
    // The redemption path: reject if spent, else mark spent.
    bool fresh = !set.Contains(id) && set.Insert(id);
    benchmark::DoNotOptimize(fresh);
    ++since_refill;
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_TEMPLATE(BM_RedeemCheckAndInsert, FlatIdTable)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_RedeemCheckAndInsert, HashSetIds)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_RedeemCheckAndInsert, SortedVectorIds)
    ->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_TEMPLATE(BM_RedeemCheckAndInsert, LinearScanIds)
    ->Arg(1000)->Arg(10000);

template <class Set>
void BM_DoubleRedeemDetect(benchmark::State& state) {
  // All lookups hit (every id already spent): the fraud-detection path.
  Set set;
  std::size_t preload = static_cast<std::size_t>(state.range(0));
  FillSet(&set, preload);
  std::uint64_t i = 0;
  for (auto _ : state) {
    bool spent = set.Contains(MakeId(i % preload));
    benchmark::DoNotOptimize(spent);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK_TEMPLATE(BM_DoubleRedeemDetect, FlatIdTable)
    ->Arg(10000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_DoubleRedeemDetect, HashSetIds)
    ->Arg(10000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_DoubleRedeemDetect, SortedVectorIds)
    ->Arg(10000)->Arg(1000000);
BENCHMARK_TEMPLATE(BM_DoubleRedeemDetect, LinearScanIds)
    ->Arg(10000);

// -- RPC batching ablation ---------------------------------------------------

// Redeem-sized stand-in request: the payload matches a typical
// RedeemRequest encoding (~700 bytes at 1024-bit keys) without dragging
// RSA into a wire-layer measurement.
struct WireResponse {
  std::vector<std::uint8_t> data;
  std::vector<std::uint8_t> Encode() const {
    p2drm::net::ByteWriter w;
    w.Blob(data);
    return w.Take();
  }
  static WireResponse Decode(const std::vector<std::uint8_t>& b) {
    p2drm::net::ByteReader r(b);
    WireResponse m;
    m.data = r.Blob();
    return m;
  }
};
struct WireRequest {
  static constexpr std::uint8_t kTag = 0x23;
  using Response = WireResponse;
  std::vector<std::uint8_t> data;
  std::vector<std::uint8_t> Encode() const {
    p2drm::net::ByteWriter w;
    w.Blob(data);
    return w.Take();
  }
  static WireRequest Decode(p2drm::net::ByteReader* r) {
    WireRequest m;
    m.data = r->Blob();
    return m;
  }
};

struct WireFixture {
  WireFixture() : transport(Model()), rpc(&transport, "bench") {
    registry.Register<WireRequest>(
        [](const WireRequest& req, WireResponse* resp) {
          resp->data = {req.data.empty() ? std::uint8_t{0} : req.data[0]};
          return p2drm::core::Status::kOk;
        });
    registry.BindTo(&transport, "cp");
  }
  static p2drm::net::LatencyModel Model() {
    p2drm::net::LatencyModel m;
    m.per_message_us = 500;  // WAN-ish round-trip share per message
    m.per_kib_us = 40;
    return m;
  }
  p2drm::net::Transport transport;
  p2drm::net::ServiceRegistry registry;
  p2drm::net::Rpc rpc;
};

void BM_RpcRedeemWireUnbatched(benchmark::State& state) {
  WireFixture fx;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  WireRequest req;
  req.data.assign(700, 0x5a);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      auto resp = fx.rpc.Call("cp", req);
      benchmark::DoNotOptimize(resp);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  const double iters = static_cast<double>(state.iterations());
  state.counters["msgs/batch"] =
      static_cast<double>(fx.transport.GrandTotal().messages) / iters;
  state.counters["sim_us/item"] =
      static_cast<double>(fx.transport.SimulatedTimeUs()) / (iters * n);
}
BENCHMARK(BM_RpcRedeemWireUnbatched)->Arg(64);

void BM_RpcRedeemWireBatched(benchmark::State& state) {
  WireFixture fx;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  WireRequest req;
  req.data.assign(700, 0x5a);
  std::vector<WireRequest> batch(n, req);
  for (auto _ : state) {
    auto resps = fx.rpc.CallBatch("cp", batch);
    benchmark::DoNotOptimize(resps);
  }
  state.SetItemsProcessed(state.iterations() * n);
  const double iters = static_cast<double>(state.iterations());
  state.counters["msgs/batch"] =
      static_cast<double>(fx.transport.GrandTotal().messages) / iters;
  state.counters["sim_us/item"] =
      static_cast<double>(fx.transport.SimulatedTimeUs()) / (iters * n);
}
BENCHMARK(BM_RpcRedeemWireBatched)->Arg(64);

}  // namespace

P2DRM_GBENCH_JSON_MAIN("bench_redeem_throughput",
                       cfg.Str("spent_set_backends", "flat,hash,sorted,linear");
                       cfg.Str("preload_sizes", "1000..1000000");
                       cfg.Num("rpc_batch_items", 64);
                       cfg.Str("wire_model", "WAN latency, simulated time");)
