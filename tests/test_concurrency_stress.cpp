// Concurrency stress tests for the shared subsystems, written to run both as
// ordinary ctests (deterministic assertions, no timing dependence) and under
// -DOAL_SANITIZE=thread, where they give TSan real contention to chew on:
//
//  * OracleCache cold-miss coalescing: many threads miss the same key at
//    once; exactly one exhaustive sweep may run.  Warm hits on stored keys
//    (read without a lock) mixed with cold misses keep exact counts.
//  * Nested run_helping: pool workers re-enter the pool (the sharded Oracle
//    search path) without deadlock and bitwise equal to serial.
//  * run_any_streaming: the generator/sink (caller thread) overlaps shard
//    execution (workers); the delivered stream is bitwise equal to serial.
//  * ArtifactStore: concurrent flush/preload/put/get on one directory; the
//    atomic-rename contract means readers see absent or complete, never torn.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/artifact_store.h"
#include "core/domain.h"
#include "core/experiment.h"
#include "core/oracle.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {
namespace {

namespace fs = std::filesystem;

/// Fresh empty store directory under the gtest temp root.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("oal-stress-" + name);
  fs::remove_all(dir);
  return dir;
}

std::vector<soc::SnippetDescriptor> test_trace(const char* app, std::size_t n,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  return workloads::CpuBenchmarks::trace(workloads::CpuBenchmarks::by_name(app), n, rng);
}

/// Spin-gate so every thread hits the contended section together instead of
/// trickling in as std::thread construction staggers them.
class StartGate {
 public:
  explicit StartGate(int n) : waiting_(n) {}
  void arrive_and_wait() {
    waiting_.fetch_sub(1);
    while (waiting_.load() > 0) std::this_thread::yield();
  }

 private:
  std::atomic<int> waiting_;
};

// ---------------------------------------------------------------------------
// 1. OracleCache cold-miss coalescing under real contention.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, OracleCacheColdMissCoalescing) {
  soc::BigLittlePlatform plat;
  const auto snippet = test_trace("FFT", 1, 11).front();
  OracleCache cache;
  const soc::SocConfig expected = oracle_config(plat, snippet, Objective::kEnergy);
  const double expected_cost = oracle_cost(plat, snippet, Objective::kEnergy);

  constexpr int kThreads = 8;
  StartGate gate(kThreads);
  std::vector<soc::SocConfig> configs(kThreads);
  std::vector<double> costs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      configs[static_cast<std::size_t>(t)] = cache.config(plat, snippet, Objective::kEnergy);
      costs[static_cast<std::size_t>(t)] = cache.cost(plat, snippet, Objective::kEnergy);
    });
  }
  for (auto& th : threads) th.join();

  // The whole point of coalescing: one sweep no matter how many missers.
  EXPECT_EQ(cache.searches(), 1u);
  EXPECT_EQ(cache.lookups(), static_cast<std::size_t>(2 * kThreads));
  EXPECT_EQ(cache.size(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(configs[static_cast<std::size_t>(t)], expected);
    EXPECT_EQ(costs[static_cast<std::size_t>(t)], expected_cost);
  }
}

TEST(ConcurrencyStress, OracleCacheDistinctKeysUnderContention) {
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("Qsort", 4, 5);
  OracleCache cache;

  // Every thread resolves every snippet; each distinct key still costs
  // exactly one sweep, and every thread sees the serial answer.
  std::vector<soc::SocConfig> expected;
  expected.reserve(trace.size());
  for (const auto& s : trace) expected.push_back(oracle_config(plat, s, Objective::kEnergy));

  constexpr int kThreads = 6;
  StartGate gate(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      // Stagger starting offsets so different threads own different keys.
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(t)) % trace.size();
        if (!(cache.config(plat, trace[j], Objective::kEnergy) == expected[j]))
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.searches(), trace.size());
  EXPECT_EQ(cache.size(), trace.size());
}

TEST(ConcurrencyStress, OracleCacheWarmHitsAndColdMissesMixed) {
  // Half the keys come from a store (the lock-free preloaded table), half
  // are searched here (the striped maps and in-flight coalescing).  Eight
  // threads resolve every key from staggered offsets: the counts are exact
  // and every value is bitwise the serial cold run's.
  const fs::path dir = fresh_dir("warm-mixed");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("Qsort", 12, 41);
  const std::size_t stored = trace.size() / 2;
  {
    OracleCache fill(std::make_shared<ArtifactStore>(dir.string()));
    for (std::size_t i = 0; i < stored; ++i) (void)fill.config(plat, trace[i], Objective::kEnergy);
  }
  std::vector<std::pair<soc::SocConfig, double>> serial;
  for (const auto& s : trace) serial.push_back(oracle_search(plat, s, Objective::kEnergy));

  OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));
  ASSERT_EQ(cache.store_loaded(), stored);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  StartGate gate(kThreads);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < trace.size(); ++i) {
          const std::size_t j = (i + static_cast<std::size_t>(t)) % trace.size();
          const soc::SocConfig c = cache.config(plat, trace[j], Objective::kEnergy);
          const double cost = cache.cost(plat, trace[j], Objective::kEnergy);
          if (!(c == serial[j].first) ||
              std::memcmp(&cost, &serial[j].second, sizeof cost) != 0)
            mismatches.fetch_add(1);
        }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.lookups(), static_cast<std::size_t>(2 * kThreads * kRounds) * trace.size());
  EXPECT_EQ(cache.searches(), trace.size() - stored);
  EXPECT_EQ(cache.hits(), cache.lookups() - cache.searches());
  EXPECT_EQ(cache.size(), trace.size());
  EXPECT_EQ(cache.store_loaded(), stored);
}

// ---------------------------------------------------------------------------
// 2. Nested run_helping: pool workers re-entering the pool.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, NestedRunHelpingFromPoolWorkers) {
  common::ThreadPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::uint64_t> cell(kOuter * kInner, 0);
  pool.run_helping(kOuter, [&](std::size_t i) {
    // Each outer task re-enters the pool — the same shape as a pooled batch
    // whose scenarios run the sharded Oracle search internally.
    pool.run_helping(kInner, [&, i](std::size_t j) { cell[i * kInner + j] = i * 1000 + j; });
  });
  for (std::size_t i = 0; i < kOuter; ++i)
    for (std::size_t j = 0; j < kInner; ++j) EXPECT_EQ(cell[i * kInner + j], i * 1000 + j);
}

TEST(ConcurrencyStress, ShardedOracleSearchFromPoolWorkers) {
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("SHA", 3, 17);
  common::ThreadPool pool(3);

  // Serial reference, then the same searches run *inside* pool workers with
  // the search itself sharded on the same pool (nested run_helping).
  std::vector<std::pair<soc::SocConfig, double>> serial;
  serial.reserve(trace.size());
  for (const auto& s : trace)
    serial.push_back(oracle_search(plat, s, Objective::kEnergy, nullptr));

  std::vector<std::pair<soc::SocConfig, double>> pooled(trace.size());
  pool.run_helping(trace.size(), [&](std::size_t i) {
    pooled[i] = oracle_search(plat, trace[i], Objective::kEnergy, &pool);
  });

  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(pooled[i].first, serial[i].first) << "snippet " << i;
    EXPECT_EQ(pooled[i].second, serial[i].second) << "snippet " << i;
  }
}

// ---------------------------------------------------------------------------
// 3. run_any_streaming: generator/sink on the caller thread vs. workers.
// ---------------------------------------------------------------------------

/// Deterministic per-scenario "work": a few rounds of FNV mixing, so the
/// result depends only on the index, never on scheduling.
std::uint64_t stream_value(std::uint64_t i) {
  std::uint64_t h = common::kFnvOffsetBasis;
  for (int round = 0; round < 64; ++round)
    common::fnv1a_mix(h, i + static_cast<std::uint64_t>(round));
  return h;
}

/// Runs a streaming sweep of `n` scenarios and folds the delivered stream
/// (ids + values, in delivery order) into one order-sensitive checksum.
std::uint64_t stream_checksum(std::size_t threads, std::size_t n, std::size_t shard_size) {
  ExperimentEngine engine(ExperimentOptions{threads});
  std::size_t next = 0;
  const auto generator = [&]() -> std::optional<AnyScenario> {
    if (next >= n) return std::nullopt;
    const std::uint64_t i = next++;
    char id[32];
    std::snprintf(id, sizeof id, "s%04llu", static_cast<unsigned long long>(i));
    return AnyScenario(id, [i, sid = std::string(id)] {
      const double v = static_cast<double>(stream_value(i) >> 11);  // exact in a double
      return AnyResult(sid, i, Metrics{{"v", v}});
    });
  };
  std::uint64_t checksum = common::kFnvOffsetBasis;
  std::size_t delivered = 0;
  const auto sink = [&](AnyResult&& r) {
    ++delivered;
    for (char c : r.id()) common::fnv1a_mix(checksum, static_cast<std::uint64_t>(c));
    common::fnv1a_mix(checksum, static_cast<std::uint64_t>(r.metric("v")));
  };
  EXPECT_EQ(engine.run_any_streaming(generator, sink, StreamOptions{shard_size}), n);
  EXPECT_EQ(delivered, n);
  return checksum;
}

TEST(ConcurrencyStress, StreamingSweepBitwiseEqualSerialVsParallel) {
  constexpr std::size_t kPopulation = 96;
  constexpr std::size_t kShard = 8;
  const std::uint64_t serial = stream_checksum(1, kPopulation, kShard);
  // Several worker counts, several repeats: the delivered stream (order
  // included) must be the serial stream exactly, every time.
  for (const std::size_t threads : {2u, 4u, 8u}) {
    for (int repeat = 0; repeat < 3; ++repeat)
      EXPECT_EQ(stream_checksum(threads, kPopulation, kShard), serial)
          << threads << " threads, repeat " << repeat;
  }
}

// ---------------------------------------------------------------------------
// 4. ArtifactStore: concurrent flush / preload / put / get on one directory.
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, ArtifactStoreConcurrentFlushAndPreload) {
  const fs::path dir = fresh_dir("flush");
  soc::BigLittlePlatform plat;
  const auto trace = test_trace("FFT", 3, 11);
  OracleCache cache(std::make_shared<ArtifactStore>(dir.string()));

  // Writers resolve snippets (filling stripes) and flush mid-stream while
  // readers open the same directory and preload whatever is durable yet.
  // The atomic-rename write contract makes every preloaded entry complete
  // and bitwise equal to the writer's value; the count only grows.
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  StartGate gate(kWriters + kReaders);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (std::size_t i = 0; i < trace.size(); ++i) {
        cache.config(plat, trace[(i + static_cast<std::size_t>(t)) % trace.size()],
                     Objective::kEnergy);
        cache.flush();
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      for (int round = 0; round < 4; ++round) {
        const ArtifactStore reader(dir.string());
        if (reader.load_oracle_entries().size() > trace.size()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  cache.flush();
  EXPECT_EQ(cache.searches(), trace.size());

  // A warm process sees exactly the flushed entries and repays zero sweeps.
  OracleCache warm(std::make_shared<ArtifactStore>(dir.string()));
  EXPECT_EQ(warm.store_loaded(), trace.size());
  for (const auto& s : trace) {
    EXPECT_EQ(warm.config(plat, s, Objective::kEnergy), cache.config(plat, s, Objective::kEnergy));
  }
  EXPECT_EQ(warm.searches(), 0u);
}

TEST(ConcurrencyStress, ArtifactStoreConcurrentBlobPutGet) {
  const fs::path dir = fresh_dir("blob");
  ArtifactStore store(dir.string());
  std::vector<double> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<double>(i) * 0.5 - 3.0;

  // All writers store identical bytes under one (name, key) — the store's
  // last-writer-wins contract for deterministic values.  Readers must only
  // ever observe "absent" or the complete payload, never a torn file.
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  StartGate gate(kWriters + kReaders);
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      for (int round = 0; round < 8; ++round) store.put_blob("weights", 42, payload);
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      gate.arrive_and_wait();
      bool seen = false;
      while (!seen) {
        const auto got = store.get_blob("weights", 42);
        if (!got.has_value()) continue;  // not yet durable: allowed
        if (*got != payload) torn.fetch_add(1);
        seen = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(store.get_blob("weights", 42), payload);
}

}  // namespace
}  // namespace oal::core
