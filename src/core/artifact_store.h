// Persistent content-addressed artifact store.
//
// Caches the products of expensive deterministic computation — exhaustive
// Oracle search results and pretrained model weights — across *processes*:
// a bench invoked twice with the same `--store` directory pays the
// 4940-config sweeps and offline training only once.  Everything in the
// store is derivable, so the store is a cache, never a source of truth:
// any file that fails validation (unreadable or changing size while read,
// bad magic, version mismatch, a payload other than the header's record
// count, checksum failure) is treated as absent and the caller recomputes.
//
// Addressing: file names embed an FNV-1a hash of the identifying content
// (platform fingerprint + objective for Oracle buckets; a caller-computed
// key for blobs), so distinct platforms/configurations never alias and a
// store directory can be shared freely — e.g. restored from a CI cache.
//
// File format (little-endian, fixed-width):
//   header  { magic u64, version u32, kind u32, count u64, checksum u64 }
//   payload — `count` records (Oracle) or `count` doubles (blob)
// checksum is FNV-1a over the payload bytes.  Writes go to a temp file in
// the same directory followed by an atomic rename, so readers never see a
// torn file and a crash mid-write leaves the previous version intact.
// Concurrent writers to the same bucket are last-writer-wins — acceptable
// for a cache of deterministic values (both writers hold identical bytes
// for any shared key).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace oal::core {

/// One memoized Oracle search: the full cache key (platform fingerprint,
/// the seven physical snippet fields, max_threads, objective) plus the
/// argmin configuration and its cost.  Fixed-width fields only.
struct OracleStoreEntry {
  std::uint64_t platform_fingerprint = 0;
  double fields[7] = {};
  std::int32_t max_threads = 0;
  std::int32_t objective = 0;
  std::int32_t config[4] = {};  ///< num_little, num_big, little_freq_idx, big_freq_idx
  double cost = 0.0;
};

class ArtifactStore {
 public:
  static constexpr std::uint64_t kMagic = 0x45524f54534c414fULL;  // "OALSTORE" LE
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::uint32_t kKindOracle = 1;
  static constexpr std::uint32_t kKindBlob = 2;

  /// Opens (creating if needed) the store rooted at `dir`.  Throws
  /// std::runtime_error if the directory cannot be created.
  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Reads every valid Oracle bucket in the store.  Invalid files and
  /// in-flight temp files (`*.bin.tmp.*`, complete or not) are silently
  /// skipped (they are someone's job to gc, not a read error).
  std::vector<OracleStoreEntry> load_oracle_entries() const;

  /// Merges entries into their per-(fingerprint, objective) bucket files,
  /// deduplicating by full key; existing entries win ties (both sides hold
  /// identical bytes for a shared key anyway).  Returns how many entries
  /// were newly added across all buckets.
  std::size_t merge_oracle_entries(const std::vector<OracleStoreEntry>& entries);

  /// Stores a named vector of doubles (model weights, scaler state, ...)
  /// under a caller-computed content key.  Overwrites atomically.
  void put_blob(const std::string& name, std::uint64_t key, const std::vector<double>& values);

  /// Fetches a blob; nullopt when absent or invalid.
  std::optional<std::vector<double>> get_blob(const std::string& name, std::uint64_t key) const;

  /// Per-file inventory of the store files, for the inspect CLI and tests.
  /// Store files are the names the store writes: `oracle-<16 hex>.bin`,
  /// `blob-<name>-<16 hex>.bin`, and their `.bin.tmp.*` temp files; any
  /// other file in the directory is not the store's and is skipped.  Temp
  /// files are listed as invalid with a "temp file" detail, whatever their
  /// contents.
  struct FileInfo {
    std::string name;                  ///< basename within the store
    std::uint32_t kind = 0;            ///< kKindOracle / kKindBlob; 0 if unreadable
    bool valid = false;
    std::string detail;                ///< human-readable status / failure reason
    std::uint64_t payload_entries = 0; ///< Oracle records, or doubles for blobs
    std::uint64_t bytes = 0;           ///< file size on disk
  };
  std::vector<FileInfo> inspect() const;

  /// Deletes every invalid store file (leftover temp files included); files
  /// that are not store files are never touched.  Returns the number of
  /// files removed.
  std::size_t gc();

 private:
  std::string bucket_path(std::uint64_t fingerprint, std::int32_t objective) const;
  std::string blob_path(const std::string& name, std::uint64_t key) const;

  std::string dir_;
};

/// The one restore-or-compute path for stored artifacts.  `value` arrives
/// blank; on a valid hit `value.import_artifact(blob)` restores it and
/// `compute` never runs.  With no store, on a miss, or when the import
/// rejects the blob, `compute(value)` fills it and — given a store — its
/// `export_artifact()` overwrites the blob.  import_artifact must leave a
/// rejected `value` blank, so `compute` always starts from scratch.
/// `compute` must depend on nothing but what `key` hashes: then a restore
/// and a recompute are indistinguishable to every caller.
template <class T, class Compute>
T get_or_compute(ArtifactStore* store, const std::string& name, std::uint64_t key, T value,
                 Compute&& compute) {
  if (store) {
    if (const auto blob = store->get_blob(name, key); blob && value.import_artifact(*blob))
      return value;
  }
  compute(value);
  if (store) store->put_blob(name, key, value.export_artifact());
  return value;
}

}  // namespace oal::core
