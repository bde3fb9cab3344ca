#ifndef P2DRM_BENCH_GBENCH_JSON_MAIN_H_
#define P2DRM_BENCH_GBENCH_JSON_MAIN_H_

// Shared main() for the Google-Benchmark benches: the console report
// stays on stdout, and a machine-readable copy of every counter lands in
// BENCH_<name>.json (gbench's own JSON schema) so CI jobs can assert on
// throughput without scraping text. Use instead of BENCHMARK_MAIN():
//
//   P2DRM_GBENCH_JSON_MAIN("bench_crypto")
//
// A bench can also publish its configuration — the knobs a result is
// meaningless without, same idea as sim::BenchReport's "config" block —
// by appending statements against the in-scope `cfg` builder:
//
//   P2DRM_GBENCH_JSON_MAIN("bench_transfer",
//                          cfg.Num("rsa_bits", 512);
//                          cfg.Str("chain", "issue->transfer->redeem");)
//
// The block is injected into the JSON file as a top-level "config"
// object after gbench writes it. When the command line overrides
// --benchmark_out, the file (and possibly its format) belongs to the
// caller, so injection is skipped.
//
// Implemented by injecting --benchmark_out/--benchmark_out_format into
// argv (portable across benchmark-library versions).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

namespace p2drm {
namespace bench_detail {

/// Builder for the injected "config" JSON object.
class GbenchConfig {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", value);
    entries_.push_back({key, buf, /*quoted=*/false});
  }
  void Bool(const std::string& key, bool value) {
    entries_.push_back({key, value ? "true" : "false", /*quoted=*/false});
  }
  void Str(const std::string& key, const std::string& value) {
    entries_.push_back({key, value, /*quoted=*/true});
  }
  bool empty() const { return entries_.empty(); }

  std::string ToJson() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\n      ";
      AppendEscaped(&out, entries_[i].key);
      out += ": ";
      if (entries_[i].quoted) {
        AppendEscaped(&out, entries_[i].value);
      } else {
        out += entries_[i].value;
      }
    }
    out += "\n    }";
    return out;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool quoted;
  };

  static void AppendEscaped(std::string* out, const std::string& s) {
    out->push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': *out += "\\\""; break;
        case '\\': *out += "\\\\"; break;
        case '\n': *out += "\\n"; break;
        case '\t': *out += "\\t"; break;
        default: out->push_back(c);
      }
    }
    out->push_back('"');
  }

  std::vector<Entry> entries_;
};

/// Splices `"config": {...},` into \p path right after the opening brace
/// of gbench's JSON document. Best-effort: a missing or unparseable file
/// leaves everything untouched (the bench already succeeded).
inline void InjectConfigBlock(const std::string& path,
                              const GbenchConfig& cfg) {
  if (cfg.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::string doc;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, got);
  std::fclose(f);
  std::size_t brace = doc.find('{');
  if (brace == std::string::npos) return;
  std::string block = "\n    \"config\": " + cfg.ToJson() + ",";
  doc.insert(brace + 1, block);
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

}  // namespace bench_detail
}  // namespace p2drm

#define P2DRM_GBENCH_JSON_MAIN(name, ...)                                    \
  int main(int argc, char** argv) {                                          \
    bool has_out = false;                                                    \
    for (int i = 1; i < argc; ++i) {                                         \
      if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {           \
        has_out = true;                                                      \
      }                                                                      \
    }                                                                        \
    const std::string default_out = std::string("BENCH_") + name + ".json";  \
    std::vector<std::string> args(argv, argv + argc);                        \
    if (!has_out) {                                                          \
      args.push_back("--benchmark_out=" + default_out);                      \
      args.push_back("--benchmark_out_format=json");                         \
    }                                                                        \
    std::vector<char*> cargs;                                                \
    for (std::string& a : args) cargs.push_back(&a[0]);                      \
    int cargc = static_cast<int>(cargs.size());                              \
    ::benchmark::Initialize(&cargc, cargs.data());                           \
    if (::benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) {     \
      return 1;                                                              \
    }                                                                        \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    if (!has_out) {                                                          \
      ::p2drm::bench_detail::GbenchConfig cfg;                               \
      __VA_ARGS__                                                            \
      ::p2drm::bench_detail::InjectConfigBlock(default_out, cfg);            \
    }                                                                        \
    return 0;                                                                \
  }

#endif  // P2DRM_BENCH_GBENCH_JSON_MAIN_H_
