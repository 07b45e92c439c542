// Environment-variable driven knobs shared by benches and examples, so a
// single binary can be re-run at larger scale without a rebuild:
//
//   DISTBFS_SCALE=20 ./bench/fig5to8_strong_scaling
//   DISTBFS_FAST=1   ctest          (shrinks everything for smoke runs)
//
// The project prefix is DISTBFS_ (matching the DISTBFS_SANITIZE CMake
// option); the historical BFSSIM_ spellings are accepted as deprecated
// aliases with a one-time warning.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dbfs::util {

/// Read an integer environment variable, returning `fallback` when the
/// variable is unset or unparsable.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Read a floating-point environment variable with a fallback.
double env_double(const char* name, double fallback);

/// True when the variable is set to anything other than "", "0", "false".
bool env_flag(const char* name);

/// Read a string environment variable with a fallback.
std::string env_str(const char* name, const std::string& fallback);

/// Resolve a project knob by suffix: DISTBFS_<suffix> wins; the
/// deprecated BFSSIM_<suffix> alias is honored with a one-time stderr
/// warning per suffix. Returns nullptr when neither is set. The pointer
/// comes from getenv and follows its lifetime rules.
const char* project_env(const char* suffix);

/// project_env + the env_int/env_flag parsing rules.
std::int64_t project_env_int(const char* suffix, std::int64_t fallback);
bool project_env_flag(const char* suffix);

/// Problem scale for benches: log2 of the vertex count. Honors
/// DISTBFS_SCALE; `dflt` applies otherwise, halved-ish under
/// DISTBFS_FAST.
int bench_scale(int dflt);

/// Parse "rank:factor[,rank:factor...]" lists — the spelling of the
/// --straggler / --degrade-nic CLI flags. Empty input yields an empty
/// list; malformed entries throw std::invalid_argument naming the
/// offending piece.
std::vector<std::pair<int, double>> parse_rank_factors(
    const std::string& spec);

}  // namespace dbfs::util
