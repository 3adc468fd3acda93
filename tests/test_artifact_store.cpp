// Tests for the persistent artifact store, its get_or_compute helper, the
// store-backed OracleCache, the sharded (pooled) Oracle search, and the
// weight-serialization round trips the store's blobs carry.  The contract under test throughout:
// warm reuse is bitwise identical to cold computation, and a damaged store
// is silently recomputed, never a crash.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/thread_pool.h"
#include "core/artifact_store.h"
#include "core/il_policy.h"
#include "core/oracle.h"
#include "core/rl_controller.h"
#include "core/runner.h"
#include "ml/qlearn.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {
namespace {

namespace fs = std::filesystem;

/// Fresh empty store directory under the gtest temp root.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("oal-store-" + name);
  fs::remove_all(dir);
  return dir;
}

/// The single store file in `dir` (fails the test if there isn't exactly one).
fs::path only_file(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? fs::path() : files.front();
}

void corrupt_byte(const fs::path& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

std::vector<soc::SnippetDescriptor> test_trace(const char* app, std::size_t n,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  return workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name(app), n, rng);
}

TEST(ArtifactStoreBlob, RoundTripAndMiss) {
  auto store = ArtifactStore(fresh_dir("blob").string());
  const std::vector<double> values{1.0, -2.5, 0.0, 1e300, -0.0};
  store.put_blob("weights", 42, values);
  const auto back = store.get_blob("weights", 42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, values);
  EXPECT_FALSE(store.get_blob("weights", 43).has_value());   // other key
  EXPECT_FALSE(store.get_blob("other", 42).has_value());     // other name
  // Overwrite is atomic and last-writer-wins.
  store.put_blob("weights", 42, {7.0});
  EXPECT_EQ(store.get_blob("weights", 42), std::vector<double>{7.0});
}

TEST(ArtifactStoreBlob, RejectsVersionMismatch) {
  const fs::path dir = fresh_dir("version");
  ArtifactStore store(dir.string());
  store.put_blob("w", 1, {1.0, 2.0});
  corrupt_byte(only_file(dir), 8);  // header: magic u64, then version u32
  EXPECT_FALSE(store.get_blob("w", 1).has_value());
  const auto files = store.inspect();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_FALSE(files[0].valid);
  EXPECT_NE(files[0].detail.find("version"), std::string::npos);
  EXPECT_EQ(store.gc(), 1u);
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(ArtifactStoreBlob, RejectsTruncation) {
  const fs::path dir = fresh_dir("trunc");
  ArtifactStore store(dir.string());
  store.put_blob("w", 1, {1.0, 2.0, 3.0});
  const fs::path file = only_file(dir);
  fs::resize_file(file, fs::file_size(file) - 5);
  EXPECT_FALSE(store.get_blob("w", 1).has_value());
  const auto files = store.inspect();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_FALSE(files[0].valid);
}

TEST(ArtifactStoreBlob, RejectsChecksumCorruption) {
  const fs::path dir = fresh_dir("checksum");
  ArtifactStore store(dir.string());
  store.put_blob("w", 1, {1.0, 2.0, 3.0});
  corrupt_byte(only_file(dir), 32 + 9);  // a payload byte past the header
  EXPECT_FALSE(store.get_blob("w", 1).has_value());
  const auto files = store.inspect();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_FALSE(files[0].valid);
  EXPECT_NE(files[0].detail.find("checksum"), std::string::npos);
}

/// Writes a store file by hand: the 32-byte header (magic, version, `kind`,
/// `count`, FNV-1a checksum of `payload`), then `payload`.
void write_store_file(const fs::path& file, std::uint32_t kind, std::uint64_t count,
                      const std::vector<unsigned char>& payload) {
  std::uint64_t checksum = common::kFnvOffsetBasis;
  for (unsigned char b : payload) {
    checksum ^= b;
    checksum *= 1099511628211ULL;
  }
  std::vector<unsigned char> bytes;
  const auto put = [&bytes](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
  };
  put(ArtifactStore::kMagic, 8);
  put(ArtifactStore::kVersion, 4);
  put(kind, 4);
  put(count, 8);
  put(checksum, 8);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  std::ofstream(file, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

TEST(ArtifactStoreFiles, ShortOrChangedSizeFileIsRejected) {
  // A file is read whole with one sized read, then its size is held to the
  // header's record count.  Cut mid-record, grown by a byte, or carrying a
  // count whose byte size wraps to the payload's, it is rejected (and so
  // recomputed), never decoded past its end.
  const fs::path dir = fresh_dir("sizes");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("FFT", 2, 17);
  {
    OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)cache.config(plat, s, Objective::kEnergy);
    ASSERT_EQ(cache.flush(), trace.size());
  }
  const fs::path bucket = only_file(dir);
  const std::uintmax_t size = fs::file_size(bucket);
  ASSERT_EQ(size, 32u + 96u * trace.size());
  const auto expect_rejected = [&](const std::string& what) {
    const ArtifactStore store(dir.string());
    EXPECT_TRUE(store.load_oracle_entries().empty()) << what;
    const auto files = store.inspect();
    ASSERT_EQ(files.size(), 1u) << what;
    EXPECT_FALSE(files[0].valid) << what;
    EXPECT_NE(files[0].detail.find("size mismatch"), std::string::npos) << files[0].detail;
    OracleCache cold(std::make_shared<ArtifactStore>(dir.string()));
    EXPECT_EQ(cold.store_loaded(), 0u) << what;
  };
  const fs::path saved = dir.string() + ".bucket";
  fs::copy_file(bucket, saved, fs::copy_options::overwrite_existing);

  fs::resize_file(bucket, size - 40);  // cut inside the last record
  expect_rejected("short by 40 bytes");
  fs::copy_file(saved, bucket, fs::copy_options::overwrite_existing);
  fs::resize_file(bucket, size + 1);  // one stray byte after the last record
  expect_rejected("one byte longer");

  // 2^59 records of 96 bytes wrap to 0 bytes: an empty payload with a valid
  // checksum must not pass for 2^59 records.
  fs::remove(bucket);
  write_store_file(bucket, ArtifactStore::kKindOracle, 1ULL << 59, {});
  expect_rejected("wrapping record count");
  fs::remove(bucket);
  fs::remove(saved);

  // The same for a blob: 2^61 doubles wrap to 0 bytes.
  ArtifactStore store(dir.string());
  store.put_blob("w", 5, {1.0, 2.0});
  write_store_file(only_file(dir), ArtifactStore::kKindBlob, 1ULL << 61, {});
  EXPECT_FALSE(store.get_blob("w", 5).has_value());
  const auto files = store.inspect();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_FALSE(files[0].valid);
}

/// Minimal stored artifact for the get_or_compute tests: one value, and an
/// import that rejects negative values (leaving the artifact blank).
struct OneValue {
  double value = 0.0;
  std::vector<double> export_artifact() const { return {value}; }
  bool import_artifact(const std::vector<double>& in) {
    if (in.size() != 1 || in[0] < 0.0) return false;
    value = in[0];
    return true;
  }
};

/// get_or_compute with a compute that counts its calls, checks it starts
/// from a blank artifact, and stores 3.
OneValue get_or_compute_3(ArtifactStore* store, int& calls) {
  return get_or_compute(store, "v", 1, OneValue{}, [&](OneValue& v) {
    ++calls;
    EXPECT_EQ(v.value, 0.0);
    v.value = 3.0;
  });
}

TEST(GetOrCompute, NullStoreComputes) {
  int calls = 0;
  EXPECT_EQ(get_or_compute_3(nullptr, calls).value, 3.0);
  EXPECT_EQ(calls, 1);
}

TEST(GetOrCompute, MissComputesAndPuts) {
  ArtifactStore store(fresh_dir("goc-miss").string());
  int calls = 0;
  EXPECT_EQ(get_or_compute_3(&store, calls).value, 3.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(store.get_blob("v", 1), std::vector<double>{3.0});
}

TEST(GetOrCompute, HitNeverComputes) {
  ArtifactStore store(fresh_dir("goc-hit").string());
  store.put_blob("v", 1, {5.0});
  int calls = 0;
  EXPECT_EQ(get_or_compute_3(&store, calls).value, 5.0);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(store.get_blob("v", 1), std::vector<double>{5.0});
}

TEST(GetOrCompute, CorruptBlobRecomputesAndOverwrites) {
  const fs::path dir = fresh_dir("goc-corrupt");
  ArtifactStore store(dir.string());
  store.put_blob("v", 1, {5.0});
  corrupt_byte(only_file(dir), 32 + 3);  // a payload byte past the header
  int calls = 0;
  EXPECT_EQ(get_or_compute_3(&store, calls).value, 3.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(store.get_blob("v", 1), std::vector<double>{3.0});
}

TEST(GetOrCompute, RejectedImportRecomputesAndOverwrites) {
  ArtifactStore store(fresh_dir("goc-reject").string());
  store.put_blob("v", 1, {-5.0});  // a valid blob the import rejects
  int calls = 0;
  EXPECT_EQ(get_or_compute_3(&store, calls).value, 3.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(store.get_blob("v", 1), std::vector<double>{3.0});
}

TEST(OracleStore, CrossProcessWarmReuse) {
  const fs::path dir = fresh_dir("warm");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("FFT", 4, 11);

  std::vector<soc::SocConfig> cold_configs;
  std::vector<double> cold_costs;
  {
    OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) {
      cold_configs.push_back(cache.config(plat, s, Objective::kEnergy));
      cold_costs.push_back(cache.cost(plat, s, Objective::kEnergy));
    }
    EXPECT_EQ(cache.searches(), trace.size());
    EXPECT_EQ(cache.flush(), trace.size());
    EXPECT_EQ(cache.flush(), 0u);  // idempotent: nothing new the second time
  }

  // A second "process": same store directory, fresh cache.  Every lookup is
  // a hit against the preloaded entries — zero searches, identical values.
  OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
  EXPECT_EQ(warm.store_loaded(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(warm.config(plat, trace[i], Objective::kEnergy), cold_configs[i]);
    EXPECT_EQ(warm.cost(plat, trace[i], Objective::kEnergy), cold_costs[i]);
  }
  EXPECT_EQ(warm.searches(), 0u);
  EXPECT_EQ(warm.hits(), 2 * trace.size());
}

/// The bytes of every file in `dir`, by name.
std::map<std::string, std::string> file_bytes(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    out[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(OracleStore, WarmCacheCountsAndValuesMatchCold) {
  // Two platforms and two objectives: four bucket files.  A warm cache
  // serves the stored half of the keys from its preloaded table, searches
  // the other half, and counts exactly as a cold cache does: one lookup per
  // call, one search per key not in the store, size() over both.  Every
  // value is bitwise the cold cache's.
  const fs::path dir = fresh_dir("warm-counts");
  soc::PlatformParams heavy;
  heavy.ceff_big_nf *= 3.0;
  const soc::BigLittlePlatform plat_a, plat_b(heavy);
  const soc::BigLittlePlatform* const plats[] = {&plat_a, &plat_b};
  const Objective objs[] = {Objective::kEnergy, Objective::kPerfPerWatt};
  const auto trace = test_trace("Kmeans", 6, 23);
  const std::size_t stored = 2 * 2 * 3;  // the first 3 snippets per (platform, objective)
  {
    OracleCache fill(std::make_shared<ArtifactStore>(dir.string()));
    for (const soc::BigLittlePlatform* p : plats)
      for (Objective obj : objs)
        for (std::size_t i = 0; i < 3; ++i) (void)fill.config(*p, trace[i], obj);
    ASSERT_EQ(fill.flush(), stored);
  }
  ASSERT_EQ(file_bytes(dir).size(), 4u);

  OracleCache cold;
  OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
  EXPECT_EQ(warm.store_loaded(), stored);
  EXPECT_EQ(warm.size(), stored);
  EXPECT_EQ(warm.lookups(), 0u);
  for (int pass = 0; pass < 2; ++pass) {
    for (const soc::BigLittlePlatform* p : plats)
      for (Objective obj : objs)
        for (const auto& s : trace) {
          EXPECT_EQ(warm.config(*p, s, obj), cold.config(*p, s, obj));
          EXPECT_TRUE(same_bits(warm.cost(*p, s, obj), cold.cost(*p, s, obj)));
        }
  }
  const std::size_t calls = 2 * 2 * 2 * trace.size() * 2;
  EXPECT_EQ(warm.lookups(), calls);
  EXPECT_EQ(cold.lookups(), calls);
  EXPECT_EQ(warm.searches(), 2 * 2 * trace.size() - stored);
  EXPECT_EQ(cold.searches(), 2 * 2 * trace.size());
  EXPECT_EQ(warm.hits(), calls - warm.searches());
  EXPECT_EQ(warm.size(), cold.size());
  EXPECT_EQ(warm.store_loaded(), stored);
}

TEST(OracleStore, DuplicateStoredKeyLoadsOnce) {
  // The same bucket under a second valid name holds every key twice: the
  // first copy loaded wins, and each key counts once.
  const fs::path dir = fresh_dir("dup");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("SHA", 3, 29);
  {
    OracleCache fill(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)fill.config(plat, s, Objective::kEnergy);
  }
  fs::copy_file(only_file(dir), dir / "oracle-0123456789abcdef.bin");
  OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
  EXPECT_EQ(warm.store_loaded(), trace.size());
  EXPECT_EQ(warm.size(), trace.size());
  for (const auto& s : trace)
    EXPECT_EQ(warm.config(plat, s, Objective::kEnergy),
              oracle_config(plat, s, Objective::kEnergy));
  EXPECT_EQ(warm.searches(), 0u);
}

TEST(OracleStore, FlushAfterWarmLoadLeavesBucketsByteIdentical) {
  const fs::path dir = fresh_dir("warm-flush");
  soc::PlatformParams heavy;
  heavy.ceff_big_nf *= 3.0;
  const soc::BigLittlePlatform plat_a, plat_b(heavy);
  const auto trace = test_trace("FFT", 4, 37);
  {
    OracleCache fill(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) {
      (void)fill.config(plat_a, s, Objective::kEnergy);
      (void)fill.config(plat_b, s, Objective::kEnergy);
    }
  }
  const auto before = file_bytes(dir);
  ASSERT_EQ(before.size(), 2u);
  {
    OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)warm.cost(plat_b, s, Objective::kEnergy);
    EXPECT_EQ(warm.searches(), 0u);
    EXPECT_EQ(warm.flush(), 0u);
    // The destructor flushes once more.
  }
  EXPECT_EQ(file_bytes(dir), before);
}

TEST(OracleStore, WarmFlushWithNothingSearchedWritesNoFile) {
  // Preloaded entries came from the store, so flush writes back only what
  // this process searched.  With the bucket deleted after the preload, a
  // flush that re-spilled the preloaded entries would recreate it.
  const fs::path dir = fresh_dir("warm-flush-nothing-new");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("FFT", 4, 41);
  {
    OracleCache fill(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)fill.config(plat, s, Objective::kEnergy);
  }
  {
    OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
    ASSERT_EQ(warm.store_loaded(), trace.size());
    fs::remove(only_file(dir));
    for (const auto& s : trace) (void)warm.cost(plat, s, Objective::kEnergy);
    EXPECT_EQ(warm.searches(), 0u);
    EXPECT_EQ(warm.flush(), 0u);
    EXPECT_TRUE(fs::is_empty(dir));
    // The destructor flushes once more.
  }
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(OracleStore, CorruptBucketRecomputesWithoutCrash) {
  const fs::path dir = fresh_dir("corrupt-bucket");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("Qsort", 2, 5);
  {
    OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)cache.config(plat, s, Objective::kEnergy);
    // Destructor flushes best-effort.
  }
  corrupt_byte(only_file(dir), 0);  // destroy the magic

  OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));
  EXPECT_EQ(cache.store_loaded(), 0u);  // invalid bucket treated as absent
  for (const auto& s : trace)
    EXPECT_EQ(cache.config(plat, s, Objective::kEnergy),
              oracle_config(plat, s, Objective::kEnergy));
  EXPECT_EQ(cache.searches(), trace.size());
  // flush() rewrites the bucket wholesale; the store heals.
  EXPECT_EQ(cache.flush(), trace.size());
  OracleCache healed(std::make_shared<ArtifactStore>(dir.string()));
  EXPECT_EQ(healed.store_loaded(), trace.size());
}

TEST(OracleStore, CompleteTempFileIsIgnoredAndCollected) {
  // A writer's temp file can be complete and checksum-valid in the window
  // before its rename lands.  Readers must not count it next to the bucket
  // it is about to replace, and gc() must treat it as garbage.
  const fs::path dir = fresh_dir("temp-bucket");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("FFT", 3, 13);
  {
    OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));
    for (const auto& s : trace) (void)cache.config(plat, s, Objective::kEnergy);
    EXPECT_EQ(cache.flush(), trace.size());
  }
  const fs::path bucket = only_file(dir);
  const fs::path temp = bucket.string() + ".tmp.4242.7";
  fs::copy_file(bucket, temp);

  ArtifactStore store(dir.string());
  EXPECT_EQ(store.load_oracle_entries().size(), trace.size());
  const auto files = store.inspect();
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    const bool is_temp = f.name == temp.filename().string();
    EXPECT_EQ(f.valid, !is_temp) << f.name;
    if (is_temp) {
      EXPECT_NE(f.detail.find("temp file"), std::string::npos);
      EXPECT_EQ(f.payload_entries, 0u);
    }
  }
  EXPECT_EQ(store.gc(), 1u);
  EXPECT_FALSE(fs::exists(temp));
  EXPECT_TRUE(fs::exists(bucket));
  EXPECT_EQ(OracleCache(std::make_shared<ArtifactStore>(dir.string())).store_loaded(),
            trace.size());
}

TEST(ArtifactStoreFiles, ForeignFilesAreNeitherListedNorCollected) {
  // A store directory may hold files the store did not write (notes, a
  // README, files that only resemble store names).  Only the store's own
  // name patterns are store files: inspect() skips the rest and gc() never
  // deletes them, while a corrupt store file is still listed and collected.
  const fs::path dir = fresh_dir("foreign");
  ArtifactStore store(dir.string());
  store.put_blob("w", 7, {1.0, 2.0});
  const fs::path blob = only_file(dir);
  const fs::path corrupt = dir / "blob-w-00000000000000ff.bin";
  fs::copy_file(blob, corrupt);
  corrupt_byte(corrupt, 40);
  const std::vector<std::string> foreign{
      "notes.txt", "README", "oracle-0123.bin", "oracle-0123456789abcdeg.bin",
      "blob--0123456789abcdef.bin", "blob-w-0123456789abcdef.bin.bak", "x.bin.tmp.1.2"};
  for (const std::string& name : foreign) std::ofstream(dir / name) << "not a store file\n";

  const auto files = store.inspect();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].name, blob.filename().string());
  EXPECT_TRUE(files[0].valid);
  EXPECT_EQ(files[1].name, corrupt.filename().string());
  EXPECT_FALSE(files[1].valid);

  EXPECT_EQ(store.gc(), 1u);
  EXPECT_FALSE(fs::exists(corrupt));
  EXPECT_TRUE(fs::exists(blob));
  for (const std::string& name : foreign) EXPECT_TRUE(fs::exists(dir / name)) << name;
}

TEST(OracleSearch, PooledMatchesSerialBitwise) {
  soc::BigLittlePlatform plat;
  common::ThreadPool pool(4);
  for (const auto& s : test_trace("Kmeans", 3, 21)) {
    const auto serial = oracle_search(plat, s, Objective::kEnergy);
    const auto pooled = oracle_search(plat, s, Objective::kEnergy, &pool);
    EXPECT_EQ(pooled.first, serial.first);  // argmin config, tie-break included
    EXPECT_EQ(pooled.second, serial.second);  // bitwise-equal cost
  }
}

TEST(OracleCache, CoalescesConcurrentColdMisses) {
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("SHA", 1, 31);
  OracleCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<soc::SocConfig> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { got[t] = cache.config(plat, trace[0], Objective::kEnergy); });
  for (auto& th : threads) th.join();
  // One owner searched; everyone else waited for its result.
  EXPECT_EQ(cache.searches(), 1u);
  EXPECT_EQ(cache.lookups(), kThreads);
  EXPECT_EQ(cache.size(), 1u);
  for (const auto& c : got) EXPECT_EQ(c, got[0]);
}

TEST(ThreadPool, RunHelpingNestedFromWorker) {
  // oracle_search inside a pool worker reaches run_helping from a worker
  // thread; run_indexed would deadlock there.  Exercise exactly that shape.
  common::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.run_helping(4, [&](std::size_t) {
    pool.run_helping(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(Collect, PooledMatchesSerialBitwise) {
  const std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("FFT"),
                                             workloads::CpuBenchmarks::by_name("Kmeans")};
  common::ThreadPool pool(4);
  soc::BigLittlePlatform plat_a, plat_b;
  common::Rng rng_a(7), rng_b(7);
  OracleCache cache_a, cache_b;
  const auto serial =
      collect_offline_data(plat_a, apps, Objective::kEnergy, 4, 3, rng_a, &cache_a);
  const auto pooled = collect_offline_data(plat_b, apps, Objective::kEnergy, 4, 3, rng_b,
                                           &cache_b, /*thermal_aware=*/false, &pool);
  ASSERT_EQ(pooled.policy.states.size(), serial.policy.states.size());
  EXPECT_EQ(pooled.policy.states, serial.policy.states);  // Vec == is bitwise here
  EXPECT_EQ(pooled.policy.labels, serial.policy.labels);
  ASSERT_EQ(pooled.model_samples.size(), serial.model_samples.size());
  for (std::size_t i = 0; i < serial.model_samples.size(); ++i) {
    EXPECT_EQ(pooled.model_samples[i].config, serial.model_samples[i].config);
    EXPECT_EQ(pooled.model_samples[i].time_s, serial.model_samples[i].time_s);
    EXPECT_EQ(pooled.model_samples[i].instructions, serial.model_samples[i].instructions);
    EXPECT_EQ(pooled.model_samples[i].power_w, serial.model_samples[i].power_w);
    EXPECT_EQ(pooled.model_samples[i].workload.cpi_obs, serial.model_samples[i].workload.cpi_obs);
  }
  // The rng streams must end at the same position (phase-1 draws are serial).
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

/// True when both doubles vectors hold the same bits.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(OfflineDataset, StoreRestoreMatchesColdComputeBitwise) {
  const std::vector<workloads::AppSpec> apps{workloads::CpuBenchmarks::by_name("FFT"),
                                             workloads::CpuBenchmarks::by_name("Kmeans")};
  common::ThreadPool pool(2);
  const auto fetch = [&](ArtifactStore* store, OracleCache& cache, bool thermal_aware) {
    return offline_dataset(soc::PlatformParams{}, apps, Objective::kEnergy,
                           /*snippets_per_app=*/4, /*configs_per_snippet=*/3,
                           /*collect_seed=*/7, thermal_aware, &cache, store, &pool);
  };
  OracleCache cold_cache;
  const auto cold = fetch(nullptr, cold_cache, false);
  EXPECT_EQ(cold_cache.lookups(), 8u);  // one label per collected snippet

  ArtifactStore store(fresh_dir("offline-dataset").string());
  OracleCache fill_cache, warm_cache;
  const auto filled = fetch(&store, fill_cache, false);  // miss: collects, then puts
  const auto warm = fetch(&store, warm_cache, false);    // hit: restores
  EXPECT_EQ(fill_cache.lookups(), 8u);
  EXPECT_EQ(warm_cache.lookups(), 0u);  // restored without collecting
  EXPECT_TRUE(same_bits(filled->export_artifact(), cold->export_artifact()));
  EXPECT_TRUE(same_bits(warm->export_artifact(), cold->export_artifact()));

  // The thermal-aware dataset has its own address: the blind blob already in
  // the store is not restored for it.
  OracleCache aware_cold_cache, aware_cache;
  const auto aware_cold = fetch(nullptr, aware_cold_cache, true);
  const auto aware = fetch(&store, aware_cache, true);
  EXPECT_EQ(aware_cache.lookups(), 8u);
  EXPECT_TRUE(same_bits(aware->export_artifact(), aware_cold->export_artifact()));
  EXPECT_FALSE(same_bits(aware->export_artifact(), cold->export_artifact()));
}

TEST(IlPolicy, ArtifactRoundTripsDecisionsAndBookkeeping) {
  soc::BigLittlePlatform plat;
  common::Rng rng(7);
  const auto mibench = workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench);
  OracleCache cache;
  const auto off = collect_offline_data(plat, mibench, Objective::kEnergy, 4, 2, rng, &cache);
  IlPolicy trained(plat.space());
  trained.train_offline(off.policy, rng);

  IlPolicy restored(plat.space());
  ASSERT_TRUE(restored.import_artifact(trained.export_artifact()));
  for (const auto& s : off.policy.states) EXPECT_EQ(restored.decide(s), trained.decide(s));
  EXPECT_GT(trained.train_time_s(), 0.0);
  EXPECT_EQ(restored.train_time_s(), 0.0);  // wall-clock: not in the artifact
  EXPECT_TRUE(same_bits(restored.last_train_loss(), trained.last_train_loss()));
  EXPECT_EQ(restored.export_artifact(), trained.export_artifact());

  // Garbage in -> false out, restored policy untouched.
  IlPolicy untouched(plat.space());
  auto bad = trained.export_artifact();
  bad.pop_back();
  EXPECT_FALSE(untouched.import_artifact(bad));
  bad = trained.export_artifact();
  bad.push_back(0.0);
  EXPECT_FALSE(untouched.import_artifact(bad));  // trailing garbage rejected
}

/// One corrupted field of an exported blob.
struct Corruption {
  const char* what;
  std::size_t index;
  double value;
};

TEST(IlPolicy, ImportRejectsMalformedArtifactsAndLeavesPolicyUnchanged) {
  // Untrusted blobs: every crafted corruption must be rejected (no NaN cast
  // to size_t, no silent truncation, no non-finite weight deployed) and the
  // target policy must keep exactly its previous artifact.
  soc::ConfigSpace space;
  common::Rng rng(41);
  PolicyDataset ds;
  for (int i = 0; i < 64; ++i) {
    common::Vec s(12);
    for (double& v : s) v = rng.uniform(-2.0, 2.0);
    ds.states.push_back(std::move(s));
    ds.labels.push_back(space.config_at(
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(space.size()) - 1))));
  }
  IlPolicyConfig cfg;
  cfg.offline_epochs = 2;
  IlPolicy source(space, cfg);
  source.train_offline(ds, rng);
  const std::vector<double> good = source.export_artifact();
  cfg.seed = 43;  // a different network, so "unchanged" is observable
  IlPolicy target(space, cfg);
  target.train_offline(ds, rng);
  const std::vector<double> before = target.export_artifact();
  ASSERT_NE(before, good);

  // Layout: [revision, trained, last_loss, dim, count, mean[dim], m2[dim],
  // network params..., optimizer state...].  Adam's state per layer, trunk
  // then heads: [beta1^t, beta2^t, allocated, mw, vw, mb, vb].
  const std::size_t kDim = 3, kCount = 4, kMean = 5;
  const std::size_t dim = static_cast<std::size_t>(good[kDim]);
  const std::size_t kM2 = kMean + dim, kNet = kM2 + dim;
  const std::size_t kOpt = kNet + source.num_params();
  const std::size_t kFirstMw = kOpt + 3, kFirstVw = kFirstMw + dim * cfg.hidden[0];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Corruption cases[] = {
      // A warm store may hold a policy trained by older arithmetic under the
      // same key: it must be recomputed, not restored.
      {"revision-1 blob", 0, 1.0},
      {"NaN revision", 0, nan},
      {"trained flag not 0/1", 1, 0.5},
      {"infinite loss", 2, inf},
      {"NaN dim", kDim, nan},
      {"infinite dim", kDim, inf},
      {"non-integral dim", kDim, static_cast<double>(dim) + 0.5},
      {"NaN count", kCount, nan},
      {"infinite count", kCount, inf},
      {"non-integral count", kCount, good[kCount] + 0.25},
      {"negative count", kCount, -1.0},
      {"NaN mean", kMean, nan},
      {"infinite m2", kM2 + 1, -inf},
      {"NaN weight", kNet, nan},
      {"infinite bias", kOpt - 1, inf},
      {"NaN beta1^t", kOpt, nan},
      {"beta2^t above 1", kOpt + 1, 2.0},
      {"allocated flag not 0/1", kOpt + 2, 0.5},
      {"infinite first moment", kFirstMw, inf},
      {"negative second moment", kFirstVw, -1.0},
      {"NaN last second moment", good.size() - 1, nan},
  };
  for (const Corruption& c : cases) {
    ASSERT_LT(c.index, good.size()) << c.what;  // the layout above must match the artifact
    std::vector<double> bad = good;
    bad[c.index] = c.value;
    EXPECT_FALSE(target.import_artifact(bad)) << c.what;
    EXPECT_EQ(target.export_artifact(), before) << c.what;
  }

  // A consistent length with a scaler narrower than the network input: the
  // network would read shifted (finite) parameters, so only the dimension
  // check catches it.
  std::vector<double> narrow(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(kMean));
  narrow[kDim] = static_cast<double>(dim - 1);
  narrow.insert(narrow.end(), good.begin() + static_cast<std::ptrdiff_t>(kMean),
                good.begin() + static_cast<std::ptrdiff_t>(kMean + dim - 1));
  narrow.insert(narrow.end(), good.begin() + static_cast<std::ptrdiff_t>(kM2),
                good.begin() + static_cast<std::ptrdiff_t>(kM2 + dim - 1));
  narrow.insert(narrow.end(), good.begin() + static_cast<std::ptrdiff_t>(kNet), good.end());
  narrow.push_back(0.0);
  narrow.push_back(0.0);
  ASSERT_EQ(narrow.size(), good.size());
  EXPECT_FALSE(target.import_artifact(narrow));
  EXPECT_EQ(target.export_artifact(), before);

  // The revision-1 layout had no revision field: it starts with the trained
  // flag.
  const std::vector<double> revision1_layout(good.begin() + 1, good.end());
  EXPECT_FALSE(target.import_artifact(revision1_layout));
  EXPECT_EQ(target.export_artifact(), before);

  // The untouched artifact still imports.
  EXPECT_TRUE(target.import_artifact(good));
  EXPECT_EQ(target.export_artifact(), good);
}

/// A small Oracle-labelled MiBench dataset for the policy tests.
OfflineData small_offline_data() {
  soc::BigLittlePlatform plat;
  common::Rng rng(7);
  OracleCache cache;
  return collect_offline_data(plat, workloads::CpuBenchmarks::of_suite(workloads::Suite::kMiBench),
                              Objective::kEnergy, 4, 2, rng, &cache);
}

TEST(IlPolicy, IndependentTrainingsExportEqualBytes) {
  // No wall-clock field: two writers of one store key write the same bytes.
  const OfflineData off = small_offline_data();
  const soc::ConfigSpace space;
  const auto train = [&] {
    IlPolicy policy(space);
    common::Rng rng(5);
    policy.train_offline(off.policy, rng);
    return policy.export_artifact();
  };
  EXPECT_TRUE(same_bits(train(), train()));
}

TEST(IlPolicy, RestoredPolicyContinuesTrainingBitwise) {
  // Online arms keep training the offline policy, so the artifact carries
  // the optimizer state: a restored policy's train_incremental must match
  // the trained original's bit for bit, for every update rule.
  const OfflineData off = small_offline_data();
  const soc::ConfigSpace space;
  ml::OptimizerConfig sgd;
  sgd.kind = ml::OptimizerConfig::Kind::kSgd;
  ml::OptimizerConfig momentum = sgd;
  momentum.momentum = 0.9;
  for (const ml::OptimizerConfig& opt : {ml::OptimizerConfig{}, sgd, momentum}) {
    IlPolicyConfig cfg;
    cfg.optimizer = opt;
    cfg.offline_epochs = 3;
    IlPolicy trained(space, cfg);
    common::Rng rng(5);
    trained.train_offline(off.policy, rng);
    IlPolicy restored(space, cfg);
    ASSERT_TRUE(restored.import_artifact(trained.export_artifact()));
    common::Rng rng_a(9), rng_b(9);
    EXPECT_TRUE(same_bits(trained.train_incremental(off.policy, 2, rng_a),
                          restored.train_incremental(off.policy, 2, rng_b)));
    EXPECT_TRUE(same_bits(restored.export_artifact(), trained.export_artifact()));
  }
}

TEST(OfflinePolicy, SharedCopyMatchesInScenarioTrainingBitwise) {
  // What an online arm adapts (a copy of the shared policy) is bit for bit
  // what each scenario used to train for itself.
  const OfflineData off = small_offline_data();
  const soc::ConfigSpace space;
  const IlPolicyConfig cfg;
  const IlPolicy copy = *offline_policy(off, space, cfg, /*train_seed=*/5, nullptr);
  IlPolicy own(space, cfg);
  common::Rng rng(5);
  own.train_offline(off.policy, rng);
  EXPECT_TRUE(same_bits(copy.export_artifact(), own.export_artifact()));
}

TEST(OfflinePolicy, StoreRestoreMatchesCompute) {
  const OfflineData off = small_offline_data();
  const soc::ConfigSpace space;
  const IlPolicyConfig cfg;
  const auto cold = offline_policy(off, space, cfg, 5, nullptr);
  ArtifactStore store(fresh_dir("offline-policy").string());
  const auto filled = offline_policy(off, space, cfg, 5, &store);  // miss: trains, then puts
  const auto warm = offline_policy(off, space, cfg, 5, &store);    // hit: restores
  EXPECT_GT(filled->train_time_s(), 0.0);
  EXPECT_EQ(warm->train_time_s(), 0.0);  // restored, not trained
  EXPECT_TRUE(same_bits(filled->export_artifact(), cold->export_artifact()));
  EXPECT_TRUE(same_bits(warm->export_artifact(), cold->export_artifact()));
  const auto blob = store.get_blob("il-policy", offline_policy_key(off, cfg, 5));
  ASSERT_TRUE(blob.has_value());
  EXPECT_TRUE(same_bits(*blob, cold->export_artifact()));
}

TEST(OfflinePolicy, KeyChangesWithEveryTrainingInput) {
  using Kind = ml::OptimizerConfig::Kind;
  const OfflineData off = small_offline_data();
  const IlPolicyConfig base;
  const std::uint64_t key = offline_policy_key(off, base, 5);
  EXPECT_EQ(offline_policy_key(off, base, 5), key);
  const std::pair<const char*, std::function<void(IlPolicyConfig&)>> edits[] = {
      {"hidden width", [](IlPolicyConfig& c) { c.hidden[1] = 16; }},
      {"hidden depth", [](IlPolicyConfig& c) { c.hidden.push_back(8); }},
      {"learning_rate", [](IlPolicyConfig& c) { c.learning_rate *= 2.0; }},
      {"l2", [](IlPolicyConfig& c) { c.l2 = 0.0; }},
      {"offline_epochs", [](IlPolicyConfig& c) { c.offline_epochs += 1; }},
      {"batch_size", [](IlPolicyConfig& c) { c.batch_size = 8; }},
      {"seed", [](IlPolicyConfig& c) { c.seed += 1; }},
      {"thermal_aware", [](IlPolicyConfig& c) { c.thermal_aware = true; }},
      {"optimizer.kind", [](IlPolicyConfig& c) { c.optimizer.kind = Kind::kSgd; }},
      {"optimizer.momentum", [](IlPolicyConfig& c) { c.optimizer.momentum = 0.9; }},
      {"optimizer.beta1", [](IlPolicyConfig& c) { c.optimizer.beta1 = 0.8; }},
      {"optimizer.beta2", [](IlPolicyConfig& c) { c.optimizer.beta2 = 0.99; }},
      {"optimizer.epsilon", [](IlPolicyConfig& c) { c.optimizer.epsilon = 1e-7; }},
  };
  for (const auto& [field, edit] : edits) {
    IlPolicyConfig cfg = base;
    edit(cfg);
    EXPECT_NE(il_policy_config_hash(cfg), il_policy_config_hash(base)) << field;
    EXPECT_NE(offline_policy_key(off, cfg, 5), key) << field;
  }
  EXPECT_NE(offline_policy_key(off, base, 6), key) << "train seed";
  // One double of the dataset: a state feature, a label knob, a model sample.
  OfflineData edited = off;
  edited.policy.states[3][2] = std::nextafter(edited.policy.states[3][2], 1e9);
  EXPECT_NE(offline_policy_key(edited, base, 5), key) << "state";
  edited = off;
  edited.policy.labels.back().big_freq_idx ^= 1;
  EXPECT_NE(offline_policy_key(edited, base, 5), key) << "label";
  edited = off;
  edited.model_samples.front().power_w *= 2.0;
  EXPECT_NE(offline_policy_key(edited, base, 5), key) << "model sample";
}

TEST(TabularQ, StateRoundTripContinuesIdentically) {
  ml::TabularQ original(6);
  common::Rng env(13);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t s = env.next_u64() % 16;
    const std::size_t a = original.select_action(s);
    original.update(s, a, env.uniform(-1.0, 1.0), env.next_u64() % 16);
  }
  std::vector<double> state;
  original.export_state(state);
  ml::TabularQ restored(6);
  std::size_t pos = 0;
  ASSERT_TRUE(restored.import_state(state, pos));
  EXPECT_EQ(pos, state.size());
  // Same exploration rng, same table: identical trajectories from here on.
  common::Rng env_a(29), env_b(29);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t s = env_a.next_u64() % 16;
    EXPECT_EQ(restored.select_action(s), original.select_action(env_b.next_u64() % 16));
  }
}

/// Applies each corruption to `good` alone and checks the import rejects it,
/// leaves the learner's export unchanged, and does not advance pos.
template <typename Import, typename Export>
void expect_rejects_each(const std::vector<double>& good, const std::vector<Corruption>& cases,
                         const Import& import, const Export& exported) {
  const std::vector<double> before = exported();
  for (const auto& [what, index, value] : cases) {
    std::vector<double> bad = good;
    bad[index] = value;
    std::size_t pos = 0;
    EXPECT_FALSE(import(bad, pos)) << what;
    EXPECT_EQ(pos, 0u) << what;
    EXPECT_EQ(exported(), before) << what;
  }
}

TEST(TabularQ, ImportRejectsMalformedStateAndLeavesLearnerUnchanged) {
  const auto trained = [](std::uint64_t seed) {
    ml::QLearnConfig cfg;
    cfg.seed = seed;
    ml::TabularQ q(6, cfg);
    common::Rng env(seed);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t s = env.next_u64() % 16;
      q.update(s, q.select_action(s), env.uniform(-1.0, 1.0), env.next_u64() % 16);
    }
    return q;
  };
  std::vector<double> good;
  trained(13).export_state(good);
  ml::TabularQ target = trained(14);
  const auto import = [&](const std::vector<double>& in, std::size_t& pos) {
    return target.import_state(in, pos);
  };
  const auto exported = [&] {
    std::vector<double> out;
    target.export_state(out);
    return out;
  };
  ASSERT_NE(exported(), good);

  // Layout: [epsilon, 4 rng words, flag, cached normal, actions, rows,
  // (state, q[6]) per row].
  const std::size_t kActions = 7, kRows = 8, kFirstQ = 10;
  const double rows = good[kRows];
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejects_each(good,
                      {{"NaN epsilon", 0, nan},
                       {"infinite epsilon", 0, inf},
                       {"action count mismatch", kActions, 5.0},
                       {"NaN rows", kRows, nan},
                       {"infinite rows", kRows, inf},
                       {"non-integral rows", kRows, rows - 0.5},
                       {"negative rows", kRows, -1.0},
                       {"rows past the end", kRows, rows + 1.0},
                       {"NaN Q-value", kFirstQ, nan},
                       {"infinite Q-value", good.size() - 1, -inf}},
                      import, exported);

  // Truncated blobs, down to a header one field short.
  for (const std::size_t size : {good.size() - 1, std::size_t{8}}) {
    const std::vector<double> cut(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(size));
    std::size_t pos = 0;
    EXPECT_FALSE(target.import_state(cut, pos)) << size;
  }
  std::size_t pos = 0;
  ASSERT_TRUE(target.import_state(good, pos));
  EXPECT_EQ(exported(), good);
}

TEST(QLearningController, StateRoundTripViaBlob) {
  // The fig4 warm path: the first process pretrains and stores the table,
  // a second restores it through an actual store file without pretraining.
  soc::BigLittlePlatform plat;
  const auto pretrain = [&](QLearningController& rl) {
    RunnerOptions fast;
    fast.compute_oracle = false;
    DrmRunner runner(plat, fast);
    (void)runner.run(test_trace("Dijkstra", 12, 23), rl, {4, 4, 8, 10});
  };
  const fs::path dir = fresh_dir("qblob");
  ArtifactStore store(dir.string());
  const QLearningController rl =
      get_or_compute(&store, "q", 9, QLearningController(plat.space()), pretrain);
  ASSERT_GT(rl.table_states(), 0u);

  const QLearningController restored =
      get_or_compute(&store, "q", 9, QLearningController(plat.space()),
                     [](QLearningController&) { ADD_FAILURE() << "pretrained on a hit"; });
  EXPECT_EQ(restored.export_artifact(), rl.export_artifact());
  EXPECT_EQ(restored.table_states(), rl.table_states());

  // Trailing data is not this controller's artifact: rejected, unchanged.
  std::vector<double> padded = rl.export_artifact();
  padded.push_back(0.0);
  QLearningController target(plat.space());
  const std::vector<double> blank = target.export_artifact();
  EXPECT_FALSE(target.import_artifact(padded));
  EXPECT_EQ(target.export_artifact(), blank);
}

}  // namespace
}  // namespace oal::core
