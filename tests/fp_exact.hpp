#pragma once

// Pinned CRCs over encoded or trained floats are FP-exact claims about one
// build configuration, and sanitizer instrumentation legitimately changes
// scalar FP contraction. So only uninstrumented builds check the exact
// bytes (guard each pinned value with `#if DCSR_FP_EXACT_BUILD`); sanitized
// builds still check structure, fidelity and thread-count invariance.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DCSR_FP_EXACT_BUILD 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DCSR_FP_EXACT_BUILD 0
#else
#define DCSR_FP_EXACT_BUILD 1
#endif
#else
#define DCSR_FP_EXACT_BUILD 1
#endif
