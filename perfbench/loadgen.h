// Load-generation and statistics helpers of the directory-service
// benchmark. Kept free of any cluster wiring so that selftest.cc can check
// them on their own:
//
//   * make_schedule: the seeded open-loop arrival schedule (Poisson
//     arrivals of a workload's op mix), a pure function of its arguments;
//   * OpenLoop: hands due arrivals to a pool of simulated user fibers and
//     times every op from its due time, not from when a user picked it up;
//   * tail_percentile / percentile_of: the reporting rule "the highest
//     percentile with at least ten samples beyond it".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "harness/workload.h"
#include "obs/metrics.h"
#include "sim/mailbox.h"
#include "sim/simulator.h"

namespace perfbench {

using amoeba::sim::Duration;
using amoeba::sim::Time;

enum class OpType : std::uint8_t { lookup, append, remove };

[[nodiscard]] inline bool is_update(OpType t) { return t != OpType::lookup; }

/// One scheduled client operation. `key` names the row: for a lookup it is
/// the popularity rank of an immutable row, for an update the serial number
/// of a mutable one.
struct Arrival {
  Duration due = 0;  // offset from the start of the open loop
  OpType type = OpType::lookup;
  bool churn = false;  // a long-lived row (see Mix), not a pair row
  std::uint32_t key = 0;

  bool operator==(const Arrival&) const = default;
};

/// A workload's op mix, as relative weights of user actions. Every update
/// action appends a fresh row and deletes it again, so directory sizes stay
/// stationary: a "pair" deletes it `pair_gap` later, while the append is
/// still in the NVRAM log (the two cancel there); a "churn" row lives for
/// `churn_life`, long enough to be written back first, so both of its
/// updates reach the disk.
struct Mix {
  int lookup = 0;
  int pair = 0;
  int churn = 0;

  [[nodiscard]] int total() const { return lookup + pair + churn; }
  /// Ops per action: update actions yield two ops.
  [[nodiscard]] double ops_per_action() const {
    return static_cast<double>(lookup + 2 * (pair + churn)) / total();
  }
};

/// SplitMix64 stream private to the benchmark: the schedule must not draw
/// from (and so perturb) the simulator's own generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// Poisson arrivals of `mix` actions at `ops_per_s` offered ops per second
/// over [0, length). Lookups pick an immutable row by Zipf(`zipf_s`) rank
/// over `lookup_keys` rows. Sorted by due time; same arguments, same
/// schedule.
inline std::vector<Arrival> make_schedule(std::uint64_t seed, const Mix& mix,
                                          double ops_per_s, Duration length,
                                          Duration pair_gap, Duration churn_life,
                                          int lookup_keys, double zipf_s) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0x51ed);
  const amoeba::harness::ZipfPicker zipf(lookup_keys, zipf_s);
  const double actions_per_us = ops_per_s / mix.ops_per_action() / 1e6;
  std::vector<Arrival> out;
  std::uint32_t next_key = 0;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / actions_per_us;
    const auto due = static_cast<Duration>(t);
    if (due >= length) break;
    const auto w = static_cast<int>(rng.below(static_cast<std::uint64_t>(mix.total())));
    if (w < mix.lookup) {
      out.push_back({due, OpType::lookup, false,
                     static_cast<std::uint32_t>(zipf.pick(rng))});
      continue;
    }
    const bool churn = w >= mix.lookup + mix.pair;
    const std::uint32_t k = next_key++;
    out.push_back({due, OpType::append, churn, k});
    const Duration del = due + (churn ? churn_life : pair_gap);
    if (del < length) out.push_back({del, OpType::remove, churn, k});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
  return out;
}

/// What happened to one scheduled op. Latency runs from the due time, so a
/// stall that delays later ops is charged to them too.
struct OpRecord {
  Time due = 0;
  Time start = -1;  // when a user picked it up; -1 while still queued
  Time done = -1;   // final completion (after retries); -1 while open
  bool ok_first = false;  // the first attempt succeeded
  bool ok = false;        // some attempt succeeded within the user's patience
  bool wrong = false;     // a lookup answered something other than the set-up value
  int attempts = 0;

  [[nodiscard]] bool finished() const { return done >= 0; }
  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done - due) / 1e3;
  }
  [[nodiscard]] double lag_ms() const {
    return static_cast<double>(start - due) / 1e3;
  }
};

/// Open-loop generator: a dispatcher fiber releases each arrival at its due
/// time into one FIFO shared by a pool of user fibers. A user that finds
/// the queue non-empty takes the oldest due op, so ops queue only when
/// every user is busy — that wait is the generator's lag.
class OpenLoop {
 public:
  static constexpr std::size_t kStop = std::numeric_limits<std::size_t>::max();

  OpenLoop(amoeba::sim::Simulator& sim, std::vector<Arrival> schedule,
           Time origin, int users)
      : sim_(sim),
        schedule_(std::move(schedule)),
        origin_(origin),
        users_(users),
        queue_(sim),
        records_(schedule_.size()) {
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      records_[i].due = origin_ + schedule_[i].due;
    }
  }

  /// Body of the dispatcher fiber.
  void dispatch() {
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      if (records_[i].due > sim_.now()) sim_.sleep_until(records_[i].due);
      queue_.send(i);
    }
    for (int u = 0; u < users_; ++u) queue_.send(kStop);
  }

  /// Users call this for their next op; nullopt once the schedule is over.
  std::optional<std::size_t> take() {
    const std::size_t i = queue_.recv();
    if (i == kStop) {
      ++users_done_;
      return std::nullopt;
    }
    records_[i].start = sim_.now();
    return i;
  }

  [[nodiscard]] const Arrival& arrival(std::size_t i) const { return schedule_[i]; }
  [[nodiscard]] OpRecord& record(std::size_t i) { return records_[i]; }
  [[nodiscard]] const std::vector<OpRecord>& records() const { return records_; }
  [[nodiscard]] const std::vector<Arrival>& schedule() const { return schedule_; }
  [[nodiscard]] bool all_users_done() const { return users_done_ == users_; }

 private:
  amoeba::sim::Simulator& sim_;
  std::vector<Arrival> schedule_;
  Time origin_;
  int users_;
  amoeba::sim::Mailbox<std::size_t> queue_;
  std::vector<OpRecord> records_;
  int users_done_ = 0;
};

/// The highest of p99.9, p99, p95, p90 and p50 that leaves at least ten
/// samples beyond it in `n` samples; 0 when none does.
inline double tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    // Tolerance for 100 - 99.9 not being exact in binary.
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0;
}

/// Linear-interpolated percentile (obs::percentile) of unsorted samples.
inline double percentile_of(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return amoeba::obs::percentile(xs, p);
}

inline double median_of(std::vector<double> xs) { return percentile_of(std::move(xs), 50); }

}  // namespace perfbench
