//! RetryPolicy: the facility-wide retry/backoff contract (Rucio-style
//! systematic recovery). Every service that retries — the federation's WAN
//! copies, the ingest pipeline, the reliable transfer wrapper — shares this
//! one policy type so operations have uniform at-most-`max_attempts`,
//! always-terminated semantics: a caller either succeeds or receives a
//! terminal error; work is never silently dropped.
//!
//! Backoff grows exponentially from `initial_backoff` by `multiplier`,
//! capped at `max_backoff`, with *deterministic* jitter: the jitter factor
//! is drawn from the caller's explicitly-seeded Rng, so a whole simulated
//! fault scenario replays bit-identically under the same seed (DESIGN.md §5).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/require.h"
#include "common/rng.h"
#include "common/units.h"

namespace lsdf::fault {

struct RetryPolicy {
  // Total tries including the first; 1 = no retries.
  int max_attempts = 5;
  SimDuration initial_backoff = 5_s;
  double multiplier = 2.0;
  SimDuration max_backoff = 10_min;
  // Each backoff is scaled by a factor uniform in [1-jitter, 1+jitter].
  double jitter = 0.1;
  // Total elapsed-time budget measured from the first attempt; once
  // exceeded no further attempt runs even if attempts remain.
  SimDuration deadline = SimDuration::max();

  // Backoff before retry `attempt` (attempt 1 = delay after the first
  // failure). Consumes one Rng draw iff jitter > 0, so backoff sequences
  // are a pure function of (policy, seed, call order).
  [[nodiscard]] SimDuration backoff(int attempt, Rng& rng) const {
    LSDF_REQUIRE(attempt >= 1, "backoff attempt numbers start at 1");
    double nanos = static_cast<double>(initial_backoff.nanos());
    const double cap = static_cast<double>(max_backoff.nanos());
    for (int i = 1; i < attempt && nanos < cap; ++i) nanos *= multiplier;
    nanos = std::min(nanos, cap);
    if (jitter > 0.0) nanos *= rng.uniform(1.0 - jitter, 1.0 + jitter);
    return SimDuration(static_cast<std::int64_t>(nanos));
  }

  // May another attempt run after `attempts_done` completed attempts and
  // `elapsed` time since the first attempt started?
  [[nodiscard]] bool should_retry(int attempts_done,
                                  SimDuration elapsed) const {
    return attempts_done < max_attempts && elapsed < deadline;
  }

  void validate() const {
    LSDF_REQUIRE(max_attempts >= 1, "retry policy needs at least 1 attempt");
    LSDF_REQUIRE(initial_backoff >= SimDuration::zero(),
                 "negative initial backoff");
    LSDF_REQUIRE(multiplier >= 1.0, "backoff multiplier below 1");
    LSDF_REQUIRE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0, 1)");
  }
};

}  // namespace lsdf::fault
