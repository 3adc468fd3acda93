#include "core/oracle.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/fnv.h"
#include "core/artifact_store.h"

namespace oal::core {

namespace {

/// Configs per shard of the pooled sweep.  Fixed, so shard boundaries — and
/// therefore the reduction order — depend only on the space size, never on
/// how many workers the pool happens to have.
constexpr std::size_t kShardConfigs = 256;

/// Serial argmin over [lo, hi): strict < keeps the lowest index on ties.
std::pair<double, std::size_t> argmin_range(const soc::BigLittlePlatform& plat,
                                            const soc::SnippetDescriptor& s, Objective obj,
                                            std::size_t lo, std::size_t hi) {
  const soc::ConfigSpace& space = plat.space();
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t best_i = lo;
  for (std::size_t i = lo; i < hi; ++i) {
    const double cost = objective_cost(plat.execute_ideal(s, space.config_at(i)), obj);
    if (cost < best_cost) {
      best_cost = cost;
      best_i = i;
    }
  }
  return {best_cost, best_i};
}

}  // namespace

std::pair<soc::SocConfig, double> oracle_search(const soc::BigLittlePlatform& plat,
                                                const soc::SnippetDescriptor& s, Objective obj,
                                                common::ThreadPool* pool) {
  const soc::ConfigSpace& space = plat.space();
  const std::size_t n = space.size();
  std::pair<double, std::size_t> best;
  if (pool == nullptr || n <= kShardConfigs) {
    best = argmin_range(plat, s, obj, 0, n);
  } else {
    const std::size_t num_shards = (n + kShardConfigs - 1) / kShardConfigs;
    std::vector<std::pair<double, std::size_t>> shard_best(num_shards);
    // run_helping (not run_indexed): the caller may itself be a pool worker
    // (nested parallel labeling inside an engine scenario).
    pool->run_helping(num_shards, [&](std::size_t sh) {
      const std::size_t lo = sh * kShardConfigs;
      shard_best[sh] = argmin_range(plat, s, obj, lo, std::min(n, lo + kShardConfigs));
    });
    // Ascending shard order + strict < reproduces the serial lowest-index
    // tie-break exactly: bitwise-identical cost and argmin.
    best = {std::numeric_limits<double>::infinity(), 0};
    for (const auto& sb : shard_best)
      if (sb.first < best.first) best = sb;
  }
  if (best.first == std::numeric_limits<double>::infinity()) return {soc::SocConfig{}, best.first};
  return {space.config_at(best.second), best.first};
}

soc::SocConfig oracle_config(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                             Objective obj) {
  return oracle_search(plat, s, obj).first;
}

double oracle_cost(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                   Objective obj) {
  return oracle_search(plat, s, obj).second;
}

bool OracleCache::Key::operator==(const Key& o) const {
  return platform_fingerprint == o.platform_fingerprint &&
         std::memcmp(fields, o.fields, sizeof(fields)) == 0 && max_threads == o.max_threads &&
         objective == o.objective;
}

namespace {

/// Sets key.hash by folding the key's ten 64-bit words — the fingerprint,
/// the seven fields' raw bit patterns (descriptors from identical Rng draws
/// are bit-identical, so exact matching is the right equivalence),
/// max_threads and objective.  Each step is a bijection of the running hash
/// (xor, odd multiply, xor-shift), so keys that differ in one word never
/// collide, and the shift carries every bit into the low bits that pick the
/// stored-table slot and the stripe.
OracleCache::Key hashed(OracleCache::Key key) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 32;
  };
  fold(key.platform_fingerprint);
  for (double f : key.fields) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    fold(bits);
  }
  fold(static_cast<std::uint64_t>(key.max_threads));
  fold(static_cast<std::uint64_t>(key.objective));
  key.hash = static_cast<std::size_t>(h);
  return key;
}

}  // namespace

OracleCache::OracleCache(std::shared_ptr<ArtifactStore> store, common::ThreadPool* search_pool)
    : store_(std::move(store)), search_pool_(search_pool) {
  if (!store_) return;
  const std::vector<OracleStoreEntry> loaded = store_->load_oracle_entries();
  if (loaded.empty()) return;
  if (loaded.size() >= std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("OracleCache: too many stored entries to index");
  std::size_t slots = 2;
  while (slots < 2 * loaded.size()) slots *= 2;
  stored_index_.assign(slots, 0);
  stored_.reserve(loaded.size());
  for (const OracleStoreEntry& e : loaded) {
    Key key;
    key.platform_fingerprint = e.platform_fingerprint;
    std::memcpy(key.fields, e.fields, sizeof(key.fields));
    key.max_threads = e.max_threads;
    key.objective = e.objective;
    key = hashed(key);
    if (find_stored(key) != nullptr) continue;  // the first stored copy of a key wins
    std::size_t slot = key.hash & (slots - 1);
    while (stored_index_[slot] != 0) slot = (slot + 1) & (slots - 1);
    stored_.emplace_back(
        key, Entry{soc::SocConfig{e.config[0], e.config[1], e.config[2], e.config[3]}, e.cost});
    stored_index_[slot] = static_cast<std::uint32_t>(stored_.size());
  }
}

OracleCache::~OracleCache() {
  try {
    flush();
  } catch (...) {
    // Best-effort: a failed spill only costs the next process a recompute.
  }
}

OracleCache::Stripe& OracleCache::stripe_of(const Key& key) const {
  return stripes_[key.hash % kNumStripes];
}

// oal-lint: hot-path
// A warm hit: one key hash, one probe of the stored table, one relaxed add
// on the stripe's own counter line; no lock and no allocation.

OracleCache::Key OracleCache::key_of(const soc::BigLittlePlatform& plat,
                                     const soc::SnippetDescriptor& s, Objective obj) {
  return hashed(Key{plat.fingerprint(),
                    {s.instructions, s.base_cpi_little, s.base_cpi_big, s.l2_mpki, s.branch_mpki,
                     s.mem_access_per_inst, s.parallel_fraction},
                    s.max_threads,
                    static_cast<int>(obj),
                    0});
}

const OracleCache::Entry* OracleCache::find_stored(const Key& key) const {
  if (stored_index_.empty()) return nullptr;
  const std::size_t mask = stored_index_.size() - 1;
  for (std::size_t slot = key.hash & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t i = stored_index_[slot];
    if (i == 0) return nullptr;
    const auto& [stored_key, entry] = stored_[i - 1];
    if (stored_key.hash == key.hash && stored_key == key) return &entry;
  }
}

OracleCache::Entry OracleCache::lookup(const soc::BigLittlePlatform& plat,
                                       const soc::SnippetDescriptor& s, Objective obj) {
  const Key key = key_of(plat, s, obj);
  lookups_[key.hash % kNumStripes].n.fetch_add(1, std::memory_order_relaxed);
  if (const Entry* stored = find_stored(key)) return *stored;
  return search_or_wait(key, plat, s, obj);
}
// oal-lint: hot-path-end

OracleCache::Entry OracleCache::search_or_wait(const Key& key, const soc::BigLittlePlatform& plat,
                                               const soc::SnippetDescriptor& s, Objective obj) {
  Stripe& stripe = stripe_of(key);
  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto it = stripe.entries.find(key);
    if (it != stripe.entries.end()) return it->second;
    const auto fit = stripe.in_flight.find(key);
    if (fit != stripe.in_flight.end()) {
      flight = fit->second;
    } else {
      flight = std::make_shared<InFlight>();
      stripe.in_flight.emplace(key, flight);
      owner = true;
    }
  }
  if (!owner) {
    // Another thread is already sweeping this exact key: wait for its result
    // instead of duplicating 4940 evaluations.  Safe even when this thread
    // is a pool worker — the owner's sweep participates via run_helping and
    // never blocks on the pool, so it always completes independently.
    std::unique_lock<std::mutex> fl(flight->mutex);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->result;
  }
  // Owner path: search outside all stripe locks — the sweep must not
  // serialize the worker pool.
  searches_.fetch_add(1, std::memory_order_relaxed);
  Entry entry;
  std::exception_ptr error;
  try {
    const auto [config, cost] = oracle_search(plat, s, obj, search_pool_);
    entry = Entry{config, cost};
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    if (!error) stripe.entries.emplace(key, entry);
    stripe.in_flight.erase(key);
  }
  {
    std::lock_guard<std::mutex> fl(flight->mutex);
    flight->result = entry;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return entry;
}

soc::SocConfig OracleCache::config(const soc::BigLittlePlatform& plat,
                                   const soc::SnippetDescriptor& s, Objective obj) {
  return lookup(plat, s, obj).config;
}

double OracleCache::cost(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                         Objective obj) {
  return lookup(plat, s, obj).cost;
}

std::size_t OracleCache::flush() {
  if (!store_) return 0;
  std::vector<OracleStoreEntry> out;
  const auto spill = [&out](const Key& key, const Entry& entry) {
    OracleStoreEntry e;
    e.platform_fingerprint = key.platform_fingerprint;
    std::memcpy(e.fields, key.fields, sizeof(e.fields));
    e.max_threads = key.max_threads;
    e.objective = key.objective;
    e.config[0] = entry.config.num_little;
    e.config[1] = entry.config.num_big;
    e.config[2] = entry.config.little_freq_idx;
    e.config[3] = entry.config.big_freq_idx;
    e.cost = entry.cost;
    out.push_back(e);
  };
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    // Hash order is fine here: merge_oracle_entries dedups by full key and
    // writes each bucket key-sorted, so the on-disk bytes are order-free.
    // oal-lint: allow(unordered-iter)
    for (const auto& [key, entry] : stripe.entries) spill(key, entry);
  }
  return store_->merge_oracle_entries(out);
}

std::size_t OracleCache::size() const {
  std::size_t total = stored_.size();
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.entries.size();
  }
  return total;
}

std::size_t OracleCache::lookups() const {
  std::size_t total = 0;
  for (const LookupCount& count : lookups_) total += count.n.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t offline_data_key(const soc::PlatformParams& params,
                               const std::vector<workloads::AppSpec>& apps, Objective obj,
                               std::size_t snippets_per_app, std::size_t configs_per_snippet,
                               std::uint64_t collect_seed, bool thermal_aware) {
  std::uint64_t key = soc::platform_fingerprint(params);
  common::fnv1a_mix(key, apps.size());
  for (const workloads::AppSpec& app : apps)
    common::fnv1a_mix(key, static_cast<std::uint64_t>(app.app_id));
  common::fnv1a_mix(key, static_cast<std::uint64_t>(obj));
  common::fnv1a_mix(key, snippets_per_app);
  common::fnv1a_mix(key, configs_per_snippet);
  common::fnv1a_mix(key, collect_seed);
  common::fnv1a_mix(key, thermal_aware ? 1 : 0);
  return key;
}

namespace {

/// Four knobs per config, in SocConfig field order.
constexpr std::size_t kConfigDoubles = 4;
/// WorkloadFeatures (7) + config (4) + {time_s, instructions, power_w}.
constexpr std::size_t kSampleDoubles = 7 + kConfigDoubles + 3;

void push_config(const soc::SocConfig& c, std::vector<double>& out) {
  out.push_back(c.num_little);
  out.push_back(c.num_big);
  out.push_back(c.little_freq_idx);
  out.push_back(c.big_freq_idx);
}

soc::SocConfig read_config(const double* p) {
  return soc::SocConfig{static_cast<int>(p[0]), static_cast<int>(p[1]), static_cast<int>(p[2]),
                        static_cast<int>(p[3])};
}

}  // namespace

std::vector<double> OfflineData::export_artifact() const {
  const std::size_t state_dim = policy.states.empty() ? 0 : policy.states[0].size();
  std::vector<double> out;
  out.reserve(3 + policy.states.size() * (state_dim + kConfigDoubles) +
              model_samples.size() * kSampleDoubles);
  out.push_back(static_cast<double>(state_dim));
  out.push_back(static_cast<double>(policy.states.size()));
  out.push_back(static_cast<double>(model_samples.size()));
  for (const common::Vec& s : policy.states) out.insert(out.end(), s.begin(), s.end());
  for (const soc::SocConfig& c : policy.labels) push_config(c, out);
  for (const ModelSample& m : model_samples) {
    out.push_back(m.workload.mpki);
    out.push_back(m.workload.bmpki);
    out.push_back(m.workload.mem_ai);
    out.push_back(m.workload.ext_per_inst);
    out.push_back(m.workload.pf_proxy);
    out.push_back(m.workload.cpi_obs);
    out.push_back(m.workload.runnable);
    push_config(m.config, out);
    out.push_back(m.time_s);
    out.push_back(m.instructions);
    out.push_back(m.power_w);
  }
  return out;
}

bool OfflineData::import_artifact(const std::vector<double>& in) {
  *this = OfflineData{};
  if (in.size() < 3) return false;
  const auto state_dim = static_cast<std::size_t>(in[0]);
  const auto num_states = static_cast<std::size_t>(in[1]);
  const auto num_samples = static_cast<std::size_t>(in[2]);
  if (in.size() != 3 + num_states * (state_dim + kConfigDoubles) + num_samples * kSampleDoubles)
    return false;
  const double* p = in.data() + 3;
  policy.states.reserve(num_states);
  for (std::size_t i = 0; i < num_states; ++i, p += state_dim)
    policy.states.emplace_back(p, p + state_dim);
  policy.labels.reserve(num_states);
  for (std::size_t i = 0; i < num_states; ++i, p += kConfigDoubles)
    policy.labels.push_back(read_config(p));
  model_samples.reserve(num_samples);
  for (std::size_t i = 0; i < num_samples; ++i, p += kSampleDoubles) {
    ModelSample m;
    m.workload.mpki = p[0];
    m.workload.bmpki = p[1];
    m.workload.mem_ai = p[2];
    m.workload.ext_per_inst = p[3];
    m.workload.pf_proxy = p[4];
    m.workload.cpi_obs = p[5];
    m.workload.runnable = p[6];
    m.config = read_config(p + 7);
    m.time_s = p[11];
    m.instructions = p[12];
    m.power_w = p[13];
    model_samples.push_back(std::move(m));
  }
  return true;
}

std::vector<std::size_t> labels_of(const soc::SocConfig& c) {
  return {static_cast<std::size_t>(c.num_little - 1), static_cast<std::size_t>(c.num_big),
          static_cast<std::size_t>(c.little_freq_idx), static_cast<std::size_t>(c.big_freq_idx)};
}

soc::SocConfig config_of(const std::vector<std::size_t>& labels) {
  if (labels.size() != 4) throw std::invalid_argument("config_of: need 4 labels");
  return soc::SocConfig{static_cast<int>(labels[0]) + 1, static_cast<int>(labels[1]),
                        static_cast<int>(labels[2]), static_cast<int>(labels[3])};
}

OfflineData collect_offline_data(soc::BigLittlePlatform& plat,
                                 const std::vector<workloads::AppSpec>& apps, Objective obj,
                                 std::size_t snippets_per_app, std::size_t configs_per_snippet,
                                 common::Rng& rng, OracleCache* cache, bool thermal_aware,
                                 common::ThreadPool* pool) {
  OfflineData data;
  const soc::ConfigSpace& space = plat.space();
  // Design-time profiling runs on a cool, unconstrained device: thermal-aware
  // states carry the neutral telemetry values (appended by the extractor).
  const FeatureExtractor fx(space, thermal_aware);

  // Phase 1 (serial): every rng draw — trace generation and the random
  // observation configs — happens here in the exact order the single-pass
  // loop made them (trace(app), then per snippet its k >= 1 configs; the
  // k == 0 Oracle observation draws nothing).
  struct PendingSnippet {
    soc::SnippetDescriptor snip;
    std::vector<soc::SocConfig> observe_at;  ///< configs for k = 1..configs_per_snippet
  };
  std::vector<PendingSnippet> pending;
  pending.reserve(apps.size() * snippets_per_app);
  for (const auto& app : apps) {
    const auto trace = workloads::CpuBenchmarks::trace(app, snippets_per_app, rng);
    for (const auto& snip : trace) {
      PendingSnippet p;
      p.snip = snip;
      p.observe_at.reserve(configs_per_snippet);
      for (std::size_t k = 1; k <= configs_per_snippet; ++k)
        p.observe_at.push_back(space.config_at(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(space.size()) - 1))));
      pending.push_back(std::move(p));
    }
  }

  // Phase 2: Oracle labeling — pure (execute_ideal), no rng — one task per
  // snippet across the pool.  labels[i] depends only on pending[i], so the
  // result is identical regardless of scheduling.
  std::vector<soc::SocConfig> labels(pending.size());
  const auto label_one = [&](std::size_t i) {
    labels[i] = cache ? cache->config(plat, pending[i].snip, obj)
                      : oracle_config(plat, pending[i].snip, obj);
  };
  if (pool != nullptr) {
    pool->run_helping(pending.size(), label_one);
  } else {
    for (std::size_t i = 0; i < pending.size(); ++i) label_one(i);
  }

  // Phase 3 (serial): noisy observations in the original snippet order, so
  // the platform's measurement-noise rng stream is byte-for-byte the same
  // as the single-pass implementation's.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const soc::SnippetDescriptor& snip = pending[i].snip;
    const soc::SocConfig label = labels[i];
    for (std::size_t k = 0; k <= configs_per_snippet; ++k) {
      // k == 0 observes at the Oracle configuration itself (the state the
      // converged policy will actually see); the rest at random configs so
      // the policy is robust to arbitrary starting points.
      const soc::SocConfig at = k == 0 ? label : pending[i].observe_at[k - 1];
      const soc::SnippetResult r = plat.execute(snip, at);
      data.policy.states.push_back(fx.policy_features(r.counters, at));
      data.policy.labels.push_back(label);
      data.model_samples.push_back(ModelSample{workload_features(r.counters, at), at,
                                               r.exec_time_s, r.counters.instructions_retired,
                                               r.avg_power_w});
    }
  }
  return data;
}

std::shared_ptr<const OfflineData> offline_dataset(
    const soc::PlatformParams& params, const std::vector<workloads::AppSpec>& apps,
    Objective obj, std::size_t snippets_per_app, std::size_t configs_per_snippet,
    std::uint64_t collect_seed, bool thermal_aware, OracleCache* cache, ArtifactStore* store,
    common::ThreadPool* pool) {
  const std::uint64_t key = offline_data_key(params, apps, obj, snippets_per_app,
                                             configs_per_snippet, collect_seed, thermal_aware);
  return std::make_shared<const OfflineData>(
      get_or_compute(store, "offline-dataset", key, OfflineData{}, [&](OfflineData& off) {
        soc::BigLittlePlatform plat(params);
        common::Rng rng(collect_seed);
        off = collect_offline_data(plat, apps, obj, snippets_per_app, configs_per_snippet, rng,
                                   cache, thermal_aware, pool);
      }));
}

}  // namespace oal::core
