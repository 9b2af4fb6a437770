// Runtime SIMD dispatch for the hand-vectorized GBDT forest walk
// (ml/gbdt_kernels.h).
//
// The AVX2 kernel lives in one translation unit compiled with -mavx2
// (CMake's per-file COMPILE_OPTIONS); the rest of the library is built for
// the baseline ISA, so the same binary runs on any x86-64 — the vector paths
// are entered only when simd_enabled() says the CPU actually has AVX2.
//
// Three gates stack, each able only to *narrow* the previous one:
//   1. simd_compiled()  — the AVX2 TU was built with real intrinsics
//                         (HELIOS_HAVE_AVX2, set by CMake when the compiler
//                         accepts -mavx2).
//   2. simd_supported() — compiled AND the running CPU reports AVX2.
//   3. simd_enabled()   — supported AND not switched off: the HELIOS_SIMD
//                         environment variable (0/off/scalar disables,
//                         1/on/avx2 or unset enables) read once at first
//                         use, overridable at runtime via set_simd_enabled()
//                         (the parity tests sweep both paths with it).
//
// Contract: the SIMD walk is bit-identical to its scalar twin — it performs
// the same mul/add per row — so flipping the dispatch can never change
// results, only speed (test_prediction_parity and the microbench_ml startup
// gate pin this; ./ci.sh simd runs the suites both ways).
//
// Thread-safety: all functions are safe to call concurrently;
// set_simd_enabled() is a relaxed atomic store intended for test setup, not
// for toggling mid-predict.
#pragma once

#include <string_view>

namespace helios::common {

/// AVX2 kernels were compiled into this binary.
[[nodiscard]] bool simd_compiled() noexcept;

/// Compiled and the running CPU supports AVX2.
[[nodiscard]] bool simd_supported() noexcept;

/// Supported and not disabled (HELIOS_SIMD / set_simd_enabled).
[[nodiscard]] bool simd_enabled() noexcept;

/// Force the dispatch on or off; returns the *effective* state — requesting
/// `true` on hardware without AVX2 stays off, so tests can never steer the
/// library into illegal instructions.
bool set_simd_enabled(bool on) noexcept;

/// "avx2" or "scalar" — the dispatch state, for bench notes and logs.
[[nodiscard]] std::string_view simd_mode() noexcept;

}  // namespace helios::common
