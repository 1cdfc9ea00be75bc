// Checks of the benchmark's own logic (loadgen.h). Exits 0 when every
// check passes; prints each failure otherwise.
//
//   .bench_build/perfbench_selftest
#include <cstdio>
#include <set>
#include <vector>

#include "loadgen.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

using namespace perfbench;
namespace sim = amoeba::sim;

void tail_percentile_rule() {
  // At least ten samples must lie beyond the reported percentile.
  check(tail_percentile(10000) == 99.9, "n=10000 reports p99.9");
  check(tail_percentile(9999) == 99.0, "n=9999 has 9.999 beyond p99.9, reports p99");
  check(tail_percentile(1000) == 99.0, "n=1000 reports p99");
  check(tail_percentile(999) == 95.0, "n=999 has 9.99 beyond p99, reports p95");
  check(tail_percentile(100) == 90.0, "n=100 reports p90");
  check(tail_percentile(20) == 50.0, "n=20 reports p50");
  check(tail_percentile(19) == 0.0, "n=19 reports no percentile");
  check(percentile_of({4, 1, 3, 2, 5}, 50) == 3.0, "median of unsorted samples");
}

void latency_counts_from_due_time() {
  // One user, a service that takes 10 ms, two ops due at 0 and 1 ms: the
  // second waits for the user, and that wait is part of its latency.
  sim::Simulator s(1);
  std::vector<Arrival> sched = {{0, OpType::lookup, false, 0},
                                {sim::msec(1), OpType::lookup, false, 1}};
  OpenLoop loop(s, sched, sim::msec(5), /*users=*/1);
  s.spawn("dispatch", [&] { loop.dispatch(); });
  s.spawn("user", [&] {
    while (auto i = loop.take()) {
      s.sleep_for(sim::msec(10));
      loop.record(*i).done = s.now();
    }
  });
  s.run();
  const OpRecord& a = loop.records()[0];
  const OpRecord& b = loop.records()[1];
  check(a.due == sim::msec(5) && b.due == sim::msec(6), "due times are origin + offset");
  check(a.latency_ms() == 10.0 && a.lag_ms() == 0.0, "first op: 10 ms, no lag");
  check(b.start == sim::msec(15), "second op starts when the user is free");
  check(b.lag_ms() == 9.0, "second op lagged 9 ms behind its due time");
  check(b.latency_ms() == 19.0, "second op's latency counts from its due time");
  check(loop.all_users_done(), "users stop after the schedule");
}

void schedule_is_seed_deterministic() {
  const Mix mix{15, 25, 25};
  const auto make = [&](std::uint64_t seed) {
    return make_schedule(seed, mix, 50.0, sim::sec(200), sim::msec(200), sim::sec(20),
                         512, 1.0);
  };
  const std::vector<Arrival> a = make(7), b = make(7), c = make(8);
  check(a == b, "same seed, same schedule");
  check(a != c, "another seed, another schedule");

  bool sorted = true;
  std::size_t lookups = 0;
  std::set<std::uint32_t> appended;
  bool removes_follow = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due < a[i - 1].due) sorted = false;
    if (a[i].type == OpType::lookup) {
      ++lookups;
      if (a[i].key >= 512) removes_follow = false;
    } else if (a[i].type == OpType::append) {
      appended.insert(a[i].key);
    } else if (!appended.contains(a[i].key)) {
      removes_follow = false;
    }
  }
  check(sorted, "schedule sorted by due time");
  check(removes_follow, "every delete follows its append; lookups stay in range");
  // 50 ops/s for 200 s, 15 of every 115 ops lookups (Poisson, so loosely).
  check(a.size() > 9000 && a.size() < 11000, "offered rate");
  const double share = static_cast<double>(lookups) / static_cast<double>(a.size());
  check(share > 0.11 && share < 0.15, "lookup share of the mix");
}

}  // namespace

int main() {
  tail_percentile_rule();
  latency_counts_from_due_time();
  schedule_is_seed_deterministic();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
