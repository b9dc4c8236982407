#include "support/env.h"

#include <cstdlib>
#include <cstring>

namespace parcore {

long env_int(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  return end == v ? fallback : parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  return end == v ? fallback : parsed;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "false") != 0;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

}  // namespace parcore
