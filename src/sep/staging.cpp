#include "sep/staging.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/args.hpp"

namespace bsmp::sep {

namespace {

std::atomic<bool>& validation_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("BSMP_VALIDATE");
    return env != nullptr && std::strcmp(env, "0") != 0;
  }();
  return flag;
}

std::atomic<std::int64_t>& grain_flag() {
  static std::atomic<std::int64_t> flag =
      core::env_count("BSMP_PARALLEL_GRAIN", 0);
  return flag;
}

std::atomic<std::int64_t>& reloc_grain_flag() {
  static std::atomic<std::int64_t> flag = core::env_count("BSMP_RELOC_GRAIN", 0);
  return flag;
}

std::atomic<std::int64_t>& wave_grain_flag() {
  static std::atomic<std::int64_t> flag = core::env_count("BSMP_WAVE_GRAIN", 0);
  return flag;
}

}  // namespace

std::int64_t default_parallel_grain() {
  return grain_flag().load(std::memory_order_relaxed);
}

void set_default_parallel_grain(std::int64_t grain) {
  grain_flag().store(grain < 0 ? 0 : grain, std::memory_order_relaxed);
}

std::int64_t default_reloc_grain() {
  return reloc_grain_flag().load(std::memory_order_relaxed);
}

void set_default_reloc_grain(std::int64_t grain) {
  reloc_grain_flag().store(grain < 0 ? 0 : grain, std::memory_order_relaxed);
}

std::int64_t default_wave_grain() {
  return wave_grain_flag().load(std::memory_order_relaxed);
}

void set_default_wave_grain(std::int64_t grain) {
  wave_grain_flag().store(grain < 0 ? 0 : grain, std::memory_order_relaxed);
}

bool validation_mode() {
  return validation_flag().load(std::memory_order_relaxed);
}

void set_validation_mode(bool on) {
  validation_flag().store(on, std::memory_order_relaxed);
}

}  // namespace bsmp::sep
