#include "cost/disk_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "obs/metrics.hpp"

namespace t1sfq {

namespace fs = std::filesystem;

namespace {

std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};
std::atomic<uint64_t> g_corruptions{0};
std::atomic<uint64_t> g_bytes_written{0};

/// One-line cache summary on stderr at process exit when T1SFQ_TRACE is set.
struct ExitSummary {
  ~ExitSummary() {
    if (!obs::env_trace_requested()) {
      return;
    }
    const DiskCacheStats s = DiskCache::stats();
    if (s.hits + s.misses + s.corruption_fallbacks + s.bytes_written == 0) {
      return;
    }
    std::fprintf(stderr,
                 "[t1sfq] disk_cache: %llu hits, %llu misses, %llu corruption "
                 "fallbacks, %llu bytes written\n",
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.corruption_fallbacks),
                 static_cast<unsigned long long>(s.bytes_written));
  }
};
ExitSummary g_exit_summary;

}  // namespace

std::string cache_directory() {
  std::error_code ec;
  fs::path dir;
  if (const char* env = std::getenv("T1SFQ_CACHE_DIR")) {
    if (*env == '\0') {
      return "";  // explicitly disabled
    }
    dir = env;
  } else if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg) {
    dir = fs::path(xdg) / "t1sfq";
  } else if (const char* home = std::getenv("HOME"); home && *home) {
    dir = fs::path(home) / ".cache" / "t1sfq";
  } else {
    return "";
  }
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir, ec)) {
    return "";
  }
  return dir.string();
}

std::optional<std::vector<uint8_t>> read_blob(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    g_misses.fetch_add(1, std::memory_order_relaxed);
    obs::count("cost.disk_cache.misses");
    return std::nullopt;
  }
  std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    g_misses.fetch_add(1, std::memory_order_relaxed);
    obs::count("cost.disk_cache.misses");
    return std::nullopt;
  }
  g_hits.fetch_add(1, std::memory_order_relaxed);
  obs::count("cost.disk_cache.hits");
  return blob;
}

bool write_blob(const std::string& path, const std::vector<uint8_t>& blob) {
  // Unique-ish temp name per process; rename is atomic within a filesystem.
  const std::string tmp = path + ".tmp." + std::to_string(
      static_cast<unsigned long>(
          std::hash<std::string>{}(path) ^ static_cast<unsigned long>(getpid())));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  g_bytes_written.fetch_add(blob.size(), std::memory_order_relaxed);
  obs::count("cost.disk_cache.bytes_written", blob.size());
  return true;
}

DiskCacheStats DiskCache::stats() {
  DiskCacheStats s;
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  s.corruption_fallbacks = g_corruptions.load(std::memory_order_relaxed);
  s.bytes_written = g_bytes_written.load(std::memory_order_relaxed);
  return s;
}

void DiskCache::note_corruption_fallback() {
  g_corruptions.fetch_add(1, std::memory_order_relaxed);
  obs::count("cost.disk_cache.corruption_fallbacks");
}

}  // namespace t1sfq
