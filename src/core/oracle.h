// Oracle construction and offline dataset generation (paper Section IV-A1).
//
// The Oracle maps a snippet to the configuration minimizing the chosen
// objective, found by exhaustively evaluating all 4940 configurations on the
// ground-truth platform model — the simulator equivalent of the paper's
// "each snippet ... executed at each configuration supported by the SoC".
// Oracle policies cannot ship (4940 evaluations / snippet and unbounded
// storage); they exist to (a) label IL training data and (b) normalize the
// energies reported in Table II and Figs. 3-4.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/features.h"
#include "core/models.h"
#include "core/objectives.h"
#include "soc/platform.h"
#include "workloads/cpu_benchmarks.h"

namespace oal::core {

class ArtifactStore;

/// Single exhaustive pass returning both the argmin and its cost.  With a
/// pool, the sweep is sharded at *fixed geometry* (shard boundaries depend
/// only on the space size, never on pool width) and reduced in ascending
/// shard order with strict-< comparisons, so the pooled result — argmin
/// index included (lowest-index tie-break) — is bitwise identical to the
/// serial sweep.  Safe to call from inside a pool worker: sharding uses the
/// caller-participating ThreadPool::run_helping.
std::pair<soc::SocConfig, double> oracle_search(const soc::BigLittlePlatform& plat,
                                                const soc::SnippetDescriptor& s, Objective obj,
                                                common::ThreadPool* pool = nullptr);

/// Exhaustive ground-truth optimum for one snippet.
soc::SocConfig oracle_config(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                             Objective obj);

/// Cost of the oracle configuration (used as the normalization denominator).
double oracle_cost(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                   Objective obj);

/// Thread-safe memoization of the exhaustive Oracle search, keyed by the
/// platform parameterization plus the snippet's physical descriptor (app_id
/// excluded — the Oracle depends only on workload physics) plus the
/// objective.  Benches whose arms evaluate identical traces (fig3/fig4:
/// one trace per app, shared by every controller arm) share one cache
/// behind a shared_ptr and pay the 4940-config search once per distinct
/// snippet instead of once per arm.
///
/// Concurrency: entries preloaded from a store sit in one immutable
/// open-addressing table, built by the constructor and never written again,
/// so a warm hit reads it without a lock.  Keys searched in this process are
/// sharded over 16 independently-locked stripes, and cold keys are coalesced
/// — the first thread to miss becomes the owner and runs the search while
/// concurrent missers of the *same* key wait on its completion instead of
/// duplicating the sweep.  Searches run outside all stripe locks.  The
/// lookup count is kept per stripe, each counter on its own cache line.
///
/// Persistence: constructed with an ArtifactStore, the cache preloads every
/// stored entry for this store (so a warm process performs zero searches
/// for previously-seen snippets) and flush() spills the entries searched in
/// this process back.  Cached values come from execute_ideal (pure), so
/// store round trips preserve determinism bit for bit.  The platform fingerprint in
/// the key makes sharing one cache across differently-parameterized
/// platforms safe (entries never alias).
class OracleCache {
 public:
  struct Key {
    std::uint64_t platform_fingerprint;
    double fields[7];
    int max_threads;
    int objective;
    /// A fold of the ten 64-bit words above, computed once when the key is
    /// made (key_of, store preload), so a lookup hashes once for the stored
    /// table, its stripe and the stripe's map.  In memory only: nothing
    /// persists it.
    std::size_t hash;
    bool operator==(const Key& o) const;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const { return k.hash; }
  };
  struct Entry {
    soc::SocConfig config;
    double cost = 0.0;
  };

  /// `store`, when non-null, backs the cache across processes: entries are
  /// preloaded on construction and spilled by flush() (and, best-effort, by
  /// the destructor).  `search_pool`, when non-null, shards each cold
  /// exhaustive search across the pool (bitwise identical to serial).
  explicit OracleCache(std::shared_ptr<ArtifactStore> store = nullptr,
                       common::ThreadPool* search_pool = nullptr);
  ~OracleCache();

  OracleCache(const OracleCache&) = delete;
  OracleCache& operator=(const OracleCache&) = delete;

  static Key key_of(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                    Objective obj);

  /// Memoized oracle_config.
  soc::SocConfig config(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s,
                        Objective obj);
  /// Memoized oracle_cost.
  double cost(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s, Objective obj);

  /// Merges the entries searched in this process into their store buckets
  /// (no-op without a store).  Preloaded entries came from the store, so
  /// they are not written back: with nothing searched, flush touches no
  /// file.  Returns the number of entries newly persisted.
  std::size_t flush();

  std::size_t size() const;
  std::size_t lookups() const;
  /// Exhaustive sweeps actually performed: one per distinct cold key, so
  /// deterministic run-to-run even under coalescing.
  std::size_t searches() const { return searches_.load(); }
  /// Lookups served without a sweep (memory hits + coalesced waits + store
  /// preloads).  Defined as lookups() - searches() so the value printed by
  /// benches never depends on thread timing.
  std::size_t hits() const { return lookups() - searches(); }
  /// Entries preloaded from the backing store at construction.
  std::size_t store_loaded() const { return stored_.size(); }

 private:
  /// A cold key's in-flight search: concurrent missers wait on `cv` while
  /// the owner sweeps; the result (or exception) is published through here.
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Entry result;
    std::exception_ptr error;
  };
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::unordered_map<Key, std::shared_ptr<InFlight>, KeyHash> in_flight;
  };
  static constexpr std::size_t kNumStripes = 16;
  /// One stripe's lookup count, alone on its cache line, so hits on keys of
  /// different stripes never write a shared line.
  struct alignas(64) LookupCount {
    std::atomic<std::size_t> n{0};
  };

  Stripe& stripe_of(const Key& key) const;
  /// The preloaded entry for `key`, or null.  Reads only immutable state.
  const Entry* find_stored(const Key& key) const;
  Entry lookup(const soc::BigLittlePlatform& plat, const soc::SnippetDescriptor& s, Objective obj);
  /// A key not in the store: the stripe's memoized entry, another thread's
  /// in-flight search, or a search of its own.
  Entry search_or_wait(const Key& key, const soc::BigLittlePlatform& plat,
                       const soc::SnippetDescriptor& s, Objective obj);

  /// The preloaded entries, first occurrence of each key, in store order.
  std::vector<std::pair<Key, Entry>> stored_;
  /// Open-addressing index over stored_ (linear probing, power-of-two size,
  /// at most half full): 0 marks an empty slot, i + 1 names stored_[i].
  std::vector<std::uint32_t> stored_index_;
  mutable Stripe stripes_[kNumStripes];
  LookupCount lookups_[kNumStripes];
  std::shared_ptr<ArtifactStore> store_;
  common::ThreadPool* search_pool_ = nullptr;
  std::atomic<std::size_t> searches_{0};
};

/// Supervised IL dataset: policy states paired with Oracle configurations.
struct PolicyDataset {
  std::vector<common::Vec> states;
  std::vector<soc::SocConfig> labels;
};

/// Offline data-collection protocol: for each app, generate a snippet trace,
/// execute each snippet at `configs_per_snippet` random configurations plus
/// the Oracle configuration (with measurement noise, as a real profiling run
/// would see), and pair every observed state with the Oracle label.
/// Also returns the raw model samples for bootstrapping the online models.
struct OfflineData {
  PolicyDataset policy;
  std::vector<ModelSample> model_samples;

  /// Flattens the dataset into the double vector ArtifactStore blobs carry:
  /// a 3-double header {state_dim, num_states, num_samples}, then the states
  /// (row-major), the labels (4 config knobs per state), and the model
  /// samples (7 workload features + 4 config knobs + time/instructions/
  /// power).  Every field round-trips bitwise — doubles are stored verbatim
  /// and the knob indices are small exact integers.
  std::vector<double> export_artifact() const;
  /// Inverse of export_artifact.  Returns false (leaving the dataset empty)
  /// on any structural mismatch — the store is a cache, so the caller
  /// recollects.
  bool import_artifact(const std::vector<double>& in);
};
/// `cache`, when non-null, memoizes the per-snippet Oracle labeling — the
/// dominant cost of a collect, and shared with the online arms that later
/// evaluate the same snippets' Oracle energies.  `thermal_aware` collects
/// policy states in the extended (thermal-telemetry) feature space, with the
/// neutral cool-device values — profiling runs unconstrained.  `pool`, when
/// non-null, labels the whole trace in parallel (one task per snippet);
/// every rng draw is made serially before labeling starts and every noisy
/// observation serially after, in the exact single-pass order, so the
/// returned dataset is bitwise identical with or without the pool.
OfflineData collect_offline_data(soc::BigLittlePlatform& plat,
                                 const std::vector<workloads::AppSpec>& apps, Objective obj,
                                 std::size_t snippets_per_app, std::size_t configs_per_snippet,
                                 common::Rng& rng, OracleCache* cache = nullptr,
                                 bool thermal_aware = false,
                                 common::ThreadPool* pool = nullptr);

/// Content address of an offline dataset blob: the dataset is a pure
/// function of the platform parameterization, the app list (app ids, in
/// order), the objective, the collection geometry, the collect seed, and the
/// feature space, so that is exactly what the key hashes.  Benches that
/// collect with identical arguments (fig3, fig4 and the ablations all use
/// MiBench, kEnergy, 40x6, seed 7, blind features) share one blob.
std::uint64_t offline_data_key(const soc::PlatformParams& params,
                               const std::vector<workloads::AppSpec>& apps, Objective obj,
                               std::size_t snippets_per_app, std::size_t configs_per_snippet,
                               std::uint64_t collect_seed, bool thermal_aware);

/// The one path to a shared offline dataset: collect_offline_data on a fresh
/// `soc::BigLittlePlatform(params)` of its own with `Rng(collect_seed)`, so
/// the data depends on nothing but its arguments (never on the noise stream
/// of a platform an arm later runs on).  Labeling goes through `cache` and
/// `pool` (either may be null).  With a `store`, the dataset is restored
/// from, or computed into, the "offline-dataset" blob at offline_data_key
/// of the same arguments, so the key and the collection cannot drift apart.
std::shared_ptr<const OfflineData> offline_dataset(
    const soc::PlatformParams& params, const std::vector<workloads::AppSpec>& apps,
    Objective obj, std::size_t snippets_per_app, std::size_t configs_per_snippet,
    std::uint64_t collect_seed, bool thermal_aware, OracleCache* cache, ArtifactStore* store,
    common::ThreadPool* pool);

/// Knob-label encoding shared by the IL policy and dataset code:
/// {num_little-1, num_big, little_freq_idx, big_freq_idx}.
std::vector<std::size_t> labels_of(const soc::SocConfig& c);
soc::SocConfig config_of(const std::vector<std::size_t>& labels);

}  // namespace oal::core
