#pragma once
/// \file disk_cache.hpp
/// \brief Tiny on-disk blob cache for expensive precomputed artifacts.
///
/// Used by the rewrite database (opt/rewrite_db.hpp) to persist its BFS
/// result across processes: the build costs a few hundred milliseconds per
/// cost signature, the serialized blob loads in single-digit milliseconds.
///
/// The cache directory resolves, in order, to `$T1SFQ_CACHE_DIR`, then
/// `$XDG_CACHE_HOME/t1sfq`, then `$HOME/.cache/t1sfq`; when none resolves
/// (or `$T1SFQ_CACHE_DIR` is set but empty) caching is disabled and every
/// read misses. Writes go through a temp file + rename so concurrent
/// processes never observe a torn blob; all failures are silent (the caller
/// falls back to rebuilding).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace t1sfq {

/// Resolved cache directory (created on first call), or "" when disabled.
std::string cache_directory();

/// Reads a whole blob; nullopt on any failure.
std::optional<std::vector<uint8_t>> read_blob(const std::string& path);

/// Atomically (write temp + rename) stores a blob; false on any failure.
bool write_blob(const std::string& path, const std::vector<uint8_t>& blob);

/// Aggregate cache statistics since process start. `corruption_fallbacks`
/// counts blobs that read fine but failed deserialization (version/signature/
/// checksum mismatch) — the caller reports those via note_corruption_fallback.
struct DiskCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t corruption_fallbacks = 0;
  uint64_t bytes_written = 0;
};

/// Process-wide disk-cache statistics. Counters are maintained by read_blob /
/// write_blob unconditionally (atomic increments), mirrored into the obs
/// metrics registry (`cost.disk_cache.*`) when observability is enabled, and
/// summarized on stderr at process exit when `T1SFQ_TRACE` is set.
class DiskCache {
 public:
  static DiskCacheStats stats();
  /// Records a blob that deserialized as corrupt (caller rebuilds instead).
  static void note_corruption_fallback();
};

}  // namespace t1sfq
