// Inspect CLI for the persistent artifact store (core::ArtifactStore).
// CI runs `stat` after the warm-store bench pass (a quick inventory in the
// log) and `verify` to fail the job if any store file is corrupt.
//
// Usage: artifact_store <dir> <list|stat|verify|gc>
//   list    one line per file: name, kind, entries, bytes, status
//   stat    aggregate totals (files, oracle entries, blob doubles, bytes)
//   verify  exit 1 if any file is invalid (prints the offenders)
//   gc      delete invalid files (leftover temp files included)
//
// `<dir>` is created if missing (an empty store is valid and stats to
// zeroes), matching the bench drivers' `--store` behavior.  The command is
// checked first: an unknown one exits 2 without creating anything.
#include <cstdio>
#include <exception>
#include <string>

#include "core/artifact_store.h"

namespace {

constexpr const char* kUsage = "usage: artifact_store <dir> <list|stat|verify|gc>";

const char* kind_name(std::uint32_t kind) {
  switch (kind) {
    case oal::core::ArtifactStore::kKindOracle:
      return "oracle";
    case oal::core::ArtifactStore::kKindBlob:
      return "blob";
    default:
      return "unknown";
  }
}

int cmd_list(oal::core::ArtifactStore& store) {
  for (const auto& f : store.inspect()) {
    std::printf("%-40s %-8s %8llu entries %10llu bytes  %s\n", f.name.c_str(),
                kind_name(f.kind), static_cast<unsigned long long>(f.payload_entries),
                static_cast<unsigned long long>(f.bytes),
                f.valid ? "ok" : f.detail.c_str());
  }
  return 0;
}

int cmd_stat(oal::core::ArtifactStore& store) {
  std::size_t files = 0, invalid = 0;
  unsigned long long oracle_entries = 0, blob_doubles = 0, bytes = 0;
  for (const auto& f : store.inspect()) {
    ++files;
    bytes += f.bytes;
    if (!f.valid) {
      ++invalid;
      continue;
    }
    if (f.kind == oal::core::ArtifactStore::kKindOracle)
      oracle_entries += f.payload_entries;
    else if (f.kind == oal::core::ArtifactStore::kKindBlob)
      blob_doubles += f.payload_entries;
  }
  std::printf("store: %s\n", store.dir().c_str());
  std::printf("files: %zu (%zu invalid)\n", files, invalid);
  std::printf("oracle entries: %llu\n", oracle_entries);
  std::printf("blob doubles: %llu\n", blob_doubles);
  std::printf("total bytes: %llu\n", bytes);
  return 0;
}

int cmd_verify(oal::core::ArtifactStore& store) {
  std::size_t bad = 0;
  for (const auto& f : store.inspect()) {
    if (f.valid) continue;
    ++bad;
    std::fprintf(stderr, "artifact_store: %s: %s\n", f.name.c_str(), f.detail.c_str());
  }
  if (bad) {
    std::fprintf(stderr, "artifact_store: %zu invalid file(s)\n", bad);
    return 1;
  }
  std::puts("all store files valid");
  return 0;
}

int cmd_gc(oal::core::ArtifactStore& store) {
  std::printf("removed %zu invalid file(s)\n", store.gc());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }
  const std::string command = argv[2];
  int (*const cmd)(oal::core::ArtifactStore&) = command == "list"     ? cmd_list
                                                : command == "stat"   ? cmd_stat
                                                : command == "verify" ? cmd_verify
                                                : command == "gc"     ? cmd_gc
                                                                      : nullptr;
  if (!cmd) {
    std::fprintf(stderr, "artifact_store: unknown command '%s'\n%s\n", command.c_str(), kUsage);
    return 2;
  }
  try {
    oal::core::ArtifactStore store(argv[1]);
    return cmd(store);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "artifact_store: %s\n", e.what());
    return 2;
  }
}
