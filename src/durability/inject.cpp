#include "durability/inject.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace parcore::durability {
namespace {

constexpr const char* kKillPoints[] = {
    "wal-mid-append",       "wal-pre-fsync",         "wal-post-fsync",
    "checkpoint-mid-write", "checkpoint-pre-rename", "checkpoint-post-rename",
};

bool is_kill_point(const char* name) {
  for (const char* k : kKillPoints)
    if (std::strcmp(k, name) == 0) return true;
  return false;
}

const char* env(const char* var) {
  const char* raw = std::getenv(var);
  return (raw != nullptr && *raw != '\0') ? raw : nullptr;
}

int env_positive(const char* var, int fallback) {
  if (const char* raw = env(var)) {
    const int v = std::atoi(raw);
    if (v > 0) return v;
  }
  return fallback;
}

bool is_armed(const char* name) {
  const char* at = env("PARCORE_DURABILITY_INJECT_AT");
  return at != nullptr && std::strcmp(at, name) == 0;
}

// Is hit number `hit` (1-based) inside the window?
bool in_window(int hit) {
  const int after = env_positive("PARCORE_DURABILITY_INJECT_AFTER", 1);
  if (hit < after) return false;
  const int count = env_positive("PARCORE_DURABILITY_INJECT_COUNT", 0);
  return count == 0 || hit < after + count;
}

int injected_errno() {
  const char* raw = env("PARCORE_DURABILITY_INJECT_ERRNO");
  if (raw == nullptr || std::strcmp(raw, "enospc") == 0) return ENOSPC;
  if (std::strcmp(raw, "eio") == 0) return EIO;
  const int v = std::atoi(raw);
  return v > 0 ? v : ENOSPC;
}

// Hits of the armed point so far. One global counter is enough: at
// most one point name is armed per process.
std::atomic<int> g_hits{0};

}  // namespace

int inject(const char* name) {
  if (!is_armed(name)) return 0;
  const int hit = g_hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!in_window(hit)) return 0;
  if (!is_kill_point(name)) return injected_errno();
  // stderr is unbuffered enough for the fork-based tests to see why a
  // child died when an assertion on the exit status fails.
  std::fprintf(stderr, "parcore: injected crash at %s (hit %d)\n", name, hit);
  _exit(kCrashExitStatus);
}

bool armed(const char* name) {
  return is_armed(name) &&
         in_window(g_hits.load(std::memory_order_relaxed) + 1);
}

void reset_injection_for_test() { g_hits.store(0, std::memory_order_relaxed); }

}  // namespace parcore::durability
