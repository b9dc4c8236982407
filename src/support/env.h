// Environment-variable knobs for benchmarks (scale, repetitions).
#pragma once

#include <string>

namespace parcore {

/// Returns the integer value of `name` or `fallback` when unset/invalid.
long env_int(const char* name, long fallback);

/// Returns the double value of `name` or `fallback` when unset/invalid.
double env_double(const char* name, double fallback);

/// True when `name` is set to a non-empty value other than "0"/"false".
bool env_flag(const char* name);

std::string env_str(const char* name, const std::string& fallback);

}  // namespace parcore
