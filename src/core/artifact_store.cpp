#include "core/artifact_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <system_error>

#include <unistd.h>

namespace fs = std::filesystem;

namespace oal::core {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a_bytes(const unsigned char* p, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void append_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void append_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void append_i32(std::vector<unsigned char>& out, std::int32_t v) {
  append_u32(out, static_cast<std::uint32_t>(v));
}

void append_f64(std::vector<unsigned char>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

// Little-endian decoding at a fixed offset.  Callers decode only within a
// length they have already checked against the header (parse_file), so the
// loads need no bounds checks of their own.
std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double load_f64(const unsigned char* p) {
  const std::uint64_t bits = load_u64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kOracleRecordBytes = 96;  // 8 + 7*8 + 4 + 4 + 4*4 + 8

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

void serialize_entry(std::vector<unsigned char>& out, const OracleStoreEntry& e) {
  append_u64(out, e.platform_fingerprint);
  for (double f : e.fields) append_f64(out, f);
  append_i32(out, e.max_threads);
  append_i32(out, e.objective);
  for (std::int32_t c : e.config) append_i32(out, c);
  append_f64(out, e.cost);
}

/// Decodes the kOracleRecordBytes record at `p`, in serialize_entry's order.
OracleStoreEntry deserialize_entry(const unsigned char* p) {
  OracleStoreEntry e;
  e.platform_fingerprint = load_u64(p);
  p += 8;
  for (double& f : e.fields) {
    f = load_f64(p);
    p += 8;
  }
  e.max_threads = static_cast<std::int32_t>(load_u32(p));
  e.objective = static_cast<std::int32_t>(load_u32(p + 4));
  p += 8;
  for (std::int32_t& c : e.config) {
    c = static_cast<std::int32_t>(load_u32(p));
    p += 4;
  }
  e.cost = load_f64(p);
  return e;
}

/// The identifying prefix of an entry's bytes (everything but config+cost),
/// used as the dedup key during merges.
std::string entry_key_bytes(const OracleStoreEntry& e) {
  std::vector<unsigned char> buf;
  append_u64(buf, e.platform_fingerprint);
  for (double f : e.fields) append_f64(buf, f);
  append_i32(buf, e.max_threads);
  append_i32(buf, e.objective);
  return std::string(buf.begin(), buf.end());
}

struct ParsedFile {
  bool valid = false;
  std::uint32_t kind = 0;
  std::uint64_t count = 0;
  std::vector<unsigned char> bytes;  ///< the whole file: header, then payload
  std::string detail;

  const unsigned char* payload() const { return bytes.data() + kHeaderBytes; }
};

/// Reads the whole file at `path` with one sized read.  False when it cannot
/// be opened, or when it changed size while being read: the read returned
/// fewer bytes than the open file's size, or bytes remain after them.
bool read_file(const std::string& path, std::vector<unsigned char>& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return false;
  bytes.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  return in.gcount() == size && in.peek() == std::ifstream::traits_type::eof();
}

ParsedFile parse_file(const std::string& path) {
  ParsedFile out;
  std::vector<unsigned char>& bytes = out.bytes;
  if (!read_file(path, bytes)) {
    out.detail = "unreadable";
    return out;
  }
  if (bytes.size() < kHeaderBytes) {
    out.detail = "truncated header";
    return out;
  }
  const unsigned char* h = bytes.data();
  const std::uint64_t magic = load_u64(h);
  const std::uint32_t version = load_u32(h + 8);
  out.kind = load_u32(h + 12);
  out.count = load_u64(h + 16);
  const std::uint64_t checksum = load_u64(h + 24);
  if (magic != ArtifactStore::kMagic) {
    out.detail = "bad magic";
    return out;
  }
  if (version != ArtifactStore::kVersion) {
    out.detail = "version mismatch (file v" + std::to_string(version) + ", expected v" +
                 std::to_string(ArtifactStore::kVersion) + ")";
    return out;
  }
  std::size_t record_bytes = 0;
  if (out.kind == ArtifactStore::kKindOracle) {
    record_bytes = kOracleRecordBytes;
  } else if (out.kind == ArtifactStore::kKindBlob) {
    record_bytes = 8;
  } else {
    out.detail = "unknown kind " + std::to_string(out.kind);
    return out;
  }
  // Compared by division: count * record_bytes can wrap, and a wrapped
  // product equal to the payload size would let decoding run past it.
  const std::size_t actual = bytes.size() - kHeaderBytes;
  if (actual % record_bytes != 0 || actual / record_bytes != out.count) {
    out.detail = "payload size mismatch (" + std::to_string(actual) + " bytes for " +
                 std::to_string(out.count) + " records of " + std::to_string(record_bytes) +
                 ")";
    return out;
  }
  if (fnv1a_bytes(out.payload(), actual) != checksum) {
    out.detail = "checksum mismatch";
    return out;
  }
  out.valid = true;
  out.detail = "ok";
  return out;
}

/// Writes header + payload to `path` via temp-file + atomic rename.
void write_file_atomic(const std::string& path, std::uint32_t kind, std::uint64_t count,
                       const std::vector<unsigned char>& payload) {
  std::vector<unsigned char> buf;
  buf.reserve(kHeaderBytes + payload.size());
  append_u64(buf, ArtifactStore::kMagic);
  append_u32(buf, ArtifactStore::kVersion);
  append_u32(buf, kind);
  append_u64(buf, count);
  append_u64(buf, fnv1a_bytes(payload.data(), payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());

  // Unique temp name per writer (pid + process-wide serial): concurrent
  // writers to one target must not share a temp file, or the loser's rename
  // fails once the winner's rename has moved it away.  Leftover temps from a
  // crash are still *.tmp* files, which gc() sweeps.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_serial.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("ArtifactStore: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("ArtifactStore: short write to " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) throw std::runtime_error("ArtifactStore: rename to " + path + ": " + ec.message());
}

/// Whether `name` is a write_file_atomic temp file (`<file>.bin.tmp.<pid>.<n>`).
/// A temp file can be complete and checksum-valid before its rename lands,
/// so readers must never count it as a store file.
bool is_temp_name(const std::string& name) { return name.find(".bin.tmp") != std::string::npos; }

/// Whether `name` is one of the store's own file names: `oracle-<16 hex>.bin`,
/// `blob-<name>-<16 hex>.bin`, or a temp file of either (`.bin.tmp.*`).
/// Every other file in the directory belongs to someone else: it is never
/// read, listed or collected.
bool is_store_name(const std::string& name) {
  const std::size_t tmp = name.find(".bin.tmp.");
  const std::string file = tmp == std::string::npos ? name : name.substr(0, tmp + 4);
  constexpr std::size_t kHex = 16, kExt = 4;  // "<16 hex>.bin"
  if (file.size() < kHex + kExt || file.compare(file.size() - kExt, kExt, ".bin") != 0)
    return false;
  const std::string stem = file.substr(0, file.size() - kExt);
  const std::string hex = stem.substr(stem.size() - kHex);
  if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) return false;
  const std::string head = stem.substr(0, stem.size() - kHex);
  return head == "oracle-" || (head.size() > 6 && head.compare(0, 5, "blob-") == 0 &&
                               head.back() == '-');
}

}  // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) throw std::runtime_error("ArtifactStore: cannot create " + dir_ + ": " + ec.message());
}

std::string ArtifactStore::bucket_path(std::uint64_t fingerprint, std::int32_t objective) const {
  std::vector<unsigned char> id;
  append_u64(id, fingerprint);
  append_i32(id, objective);
  return dir_ + "/oracle-" + hex16(fnv1a_bytes(id.data(), id.size())) + ".bin";
}

std::string ArtifactStore::blob_path(const std::string& name, std::uint64_t key) const {
  return dir_ + "/blob-" + name + "-" + hex16(key) + ".bin";
}

std::vector<OracleStoreEntry> ArtifactStore::load_oracle_entries() const {
  std::vector<OracleStoreEntry> out;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    const std::string name = de.path().filename().string();
    if (!de.is_regular_file() || !is_store_name(name) || is_temp_name(name)) continue;
    const ParsedFile f = parse_file(de.path().string());
    if (!f.valid || f.kind != kKindOracle) continue;
    for (std::uint64_t i = 0; i < f.count; ++i)
      out.push_back(deserialize_entry(f.payload() + i * kOracleRecordBytes));
  }
  return out;
}

std::size_t ArtifactStore::merge_oracle_entries(const std::vector<OracleStoreEntry>& entries) {
  // Group incoming entries by bucket file.
  std::map<std::string, std::vector<OracleStoreEntry>> by_bucket;
  for (const auto& e : entries) by_bucket[bucket_path(e.platform_fingerprint, e.objective)].push_back(e);

  std::size_t added = 0;
  for (auto& [path, incoming] : by_bucket) {
    // Existing entries win ties: for a deterministic computation both sides
    // hold identical bytes anyway, and keeping the old record makes a merge
    // into an already-complete bucket a byte-level no-op candidate.
    std::map<std::string, OracleStoreEntry> merged;
    const ParsedFile f = parse_file(path);
    if (f.valid && f.kind == kKindOracle) {
      for (std::uint64_t i = 0; i < f.count; ++i) {
        const OracleStoreEntry e = deserialize_entry(f.payload() + i * kOracleRecordBytes);
        merged.emplace(entry_key_bytes(e), e);
      }
    }
    const std::size_t before = merged.size();
    for (const auto& e : incoming) merged.emplace(entry_key_bytes(e), e);
    if (merged.size() == before && f.valid) continue;  // nothing new, keep file untouched
    added += merged.size() - before;

    std::vector<unsigned char> payload;
    payload.reserve(merged.size() * kOracleRecordBytes);
    for (const auto& [key, e] : merged) serialize_entry(payload, e);  // key-sorted: deterministic
    write_file_atomic(path, kKindOracle, merged.size(), payload);
  }
  return added;
}

void ArtifactStore::put_blob(const std::string& name, std::uint64_t key,
                             const std::vector<double>& values) {
  std::vector<unsigned char> payload;
  payload.reserve(values.size() * 8);
  for (double v : values) append_f64(payload, v);
  write_file_atomic(blob_path(name, key), kKindBlob, values.size(), payload);
}

std::optional<std::vector<double>> ArtifactStore::get_blob(const std::string& name,
                                                           std::uint64_t key) const {
  const ParsedFile f = parse_file(blob_path(name, key));
  if (!f.valid || f.kind != kKindBlob) return std::nullopt;
  std::vector<double> out;
  out.reserve(f.count);
  for (std::uint64_t i = 0; i < f.count; ++i) out.push_back(load_f64(f.payload() + 8 * i));
  return out;
}

std::vector<ArtifactStore::FileInfo> ArtifactStore::inspect() const {
  std::vector<FileInfo> out;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file() || !is_store_name(de.path().filename().string())) continue;
    FileInfo info;
    info.name = de.path().filename().string();
    std::error_code sec;
    info.bytes = static_cast<std::uint64_t>(fs::file_size(de.path(), sec));
    if (is_temp_name(info.name)) {
      info.detail = "temp file (rename pending, or left by a crashed writer)";
      out.push_back(std::move(info));
      continue;
    }
    const ParsedFile f = parse_file(de.path().string());
    info.kind = f.kind;
    info.valid = f.valid;
    info.detail = f.detail;
    info.payload_entries = f.valid ? f.count : 0;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const FileInfo& a, const FileInfo& b) { return a.name < b.name; });
  return out;
}

std::size_t ArtifactStore::gc() {
  std::size_t removed = 0;
  for (const auto& info : inspect()) {
    if (info.valid) continue;
    std::error_code ec;
    if (fs::remove(fs::path(dir_) / info.name, ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace oal::core
