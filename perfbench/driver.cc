// Benchmark driver for the simulated directory service.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <path>]
//
// Drives a harness::Testbed through dir::DirClient only, as a user of the
// service would, and measures everything from outside the program:
//
//   1. Capacity phase: closed-loop clients run the workload's op mix on a
//      freshly set-up testbed; completions per simulated second.
//   2. Open-loop reps: seeded Poisson arrivals at a fixed offered rate
//      (recorded with its derivation in README.md), then crash/restart
//      cycles of one replica under a probe load, then the correctness gate. The first rep
//      gives every modelled metric; each further rep must reproduce it
//      exactly and adds host-cost samples. Reps repeat until --seconds
//      of process CPU time are used (at least two).
//   3. With --trace 1, one more rep with trace recording on for a short
//      window: per-op critical-path legs and the tracing overhead.
//
// The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Any failed correctness check
// or sizing guard exits with status 1 and prints no result.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/history.h"
#include "common/log.h"
#include "check/linearize.h"
#include "dir/client.h"
#include "dir/group_server.h"
#include "dir/proto.h"
#include "harness/testbed.h"
#include "loadgen.h"
#include "obs/critical_path.h"

namespace perfbench {
extern std::atomic<std::uint64_t> g_allocs;
}  // namespace perfbench

namespace perfbench {
namespace {

using namespace amoeba;
using harness::Flavor;

// ------------------------------------------------------------ workloads

struct Spec {
  const char* name;
  Flavor flavor;
  int rows;            // immutable rows per directory
  Mix mix;
  double rate;         // offered ops per simulated second (see README.md)
  Duration warmup;     // open-loop time before the measured window
  Duration window;     // measured window (crash_group: before and after the crashes)
  Duration traced_window;  // sized to fit the 64K-event trace ring
  bool crash_in_window;    // one crash and restart in mid-window, under load
};

constexpr int kDirs = 16;       // directories populated at set-up
constexpr double kZipf = 1.0;  // lookup popularity exponent
constexpr Duration kPairGap = sim::msec(200);
constexpr Duration kChurnLife = sim::sec(20);
constexpr int kCrashCycles = 30;
constexpr Duration kCrashDown = sim::sec(4);
constexpr Duration kCrashSettle = sim::sec(5);  // after recovery, before the next crash
constexpr Duration kRecoveryLimit = sim::sec(60);
// Open-loop time reserved for the in-window crash cycle; the load runs on
// past it until the reserve is used up.
constexpr Duration kCrashReserve = sim::sec(20);
constexpr Duration kHostSlice = sim::sec(10);
// Closed-loop capacity phase: the warm-up outlasts a churn row's life, so
// the window sees the mix in steady state (log full, churn deletes flowing).
constexpr int kCapacityClients = 9;  // one per directory-server thread
constexpr Duration kCapacityWarmup = sim::sec(40);
constexpr Duration kCapacityWindow = sim::sec(120);
constexpr Duration kPatience = sim::sec(30);
constexpr Duration kDeadline = sim::sec(3);  // DirClient's default timeout
constexpr int kClientMachines = 8;
constexpr int kUsersPerMachine = 16;
constexpr double kMaxUtilisation = 0.7;

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"read_zipf", Flavor::group_nvram, 256, {30, 1, 0}, 280.0,
       sim::sec(5), sim::sec(400), sim::sec(10), false},
      {"write_nvram", Flavor::group_nvram, 256, {15, 25, 25}, 28.0,
       sim::sec(20), sim::sec(1000), sim::sec(30), false},
      {"crash_group", Flavor::group, 64, {30, 1, 0}, 46.0,
       sim::sec(5), sim::sec(1200), sim::sec(30), true},
  };
  return all;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// --------------------------------------------------------- host clocks

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A memory figure of this process from /proc/self/status, in MB
/// ("VmHWM" peak resident, "VmRSS" current); 0 when unavailable.
double proc_status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, n) == 0 && line[n] == ':') {
      kb = std::strtod(line + n + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own spans around its calls into each layer, in host
/// time. Kept in memory and written out as Chrome trace JSON at exit.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent;
    double wall0, wall1, cpu0, cpu1;
  };

  class Scope {
   public:
    Scope(Spans& s, std::string name) : s_(s), idx_(s.open(std::move(name))) {}
    ~Scope() { s_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] double cpu_s() const {
      return cpu_now() - s_.spans_[static_cast<std::size_t>(idx_)].cpu0;
    }

   private:
    Spans& s_;
    int idx_;
  };

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[");
    const double t0 = spans_.empty() ? 0 : spans_.front().wall0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                   "\"cpu_s\":%.9f}}",
                   i == 0 ? "" : ",", s.name.c_str(), (s.wall0 - t0) * 1e6,
                   (s.wall1 - s.wall0) * 1e6, i, s.parent, s.cpu1 - s.cpu0);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
  }

 private:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), parent, wall_now(), 0, cpu_now(), -1});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.wall1 = wall_now();
    s.cpu1 = cpu_now();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------ namespace

/// The capability stored at set-up under immutable row `row` of directory
/// `dir`; a pure function of the seed, so the gate can recompute it.
cap::Capability value_cap(std::uint64_t seed, std::uint64_t dir,
                          std::uint64_t row) {
  cap::Capability c;
  c.port = net::Port{0xf11e};
  c.object = static_cast<std::uint32_t>((dir << 12 | row) & 0xffffff);
  c.rights = cap::kRightsAll;
  c.check = mix64(seed ^ (dir << 32) ^ row) & 0xffffffffffffull;
  return c;
}

/// Row names: a prefix and one or two serial numbers ("f12", "q1.40").
std::string row_name(const char* prefix, std::uint64_t a) {
  std::string s(prefix);
  s += std::to_string(a);
  return s;
}
std::string row_name(const char* prefix, std::uint64_t a, std::uint64_t b) {
  std::string s = row_name(prefix, a);
  s += '.';
  s += std::to_string(b);
  return s;
}

std::string immutable_name(int row) { return row_name("f", static_cast<std::uint64_t>(row)); }

/// Which directory and row a lookup of popularity rank `rank` hits: hot
/// ranks are spread over all directories.
std::pair<int, int> rank_to_row(std::uint32_t rank) {
  return {static_cast<int>(rank % static_cast<std::uint32_t>(kDirs)),
          static_cast<int>(rank / static_cast<std::uint32_t>(kDirs))};
}

struct SetupTimes {
  double build_s = 0, ready_s = 0, populate_s = 0;
};

struct CrashCycle {
  Time crash = 0, restart = 0, recovered = -1;
  bool saw_recovering = false;
  [[nodiscard]] double recovery_ms() const {
    return static_cast<double>(recovered - restart) / 1e3;
  }
};

/// Counter deltas, histogram windows and host cost over one measured
/// window.
struct Window {
  Time t0 = 0, t1 = 0;
  obs::Metrics::Snapshot counters;
  std::map<std::string, std::vector<double>> hists;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t ops_done = 0;
  /// Host cost per slice of simulated time (crash cycles excluded).
  struct Slice {
    double cpu_s;
    std::uint64_t ops, events;
  };
  std::vector<Slice> slices;
};

/// Everything a rep's metrics are computed from, kept after its testbed is
/// gone.
struct RepResult {
  std::vector<OpRecord> records;  // one per scheduled op
  std::vector<bool> is_update;    // per op
  Window window;
  std::vector<CrashCycle> cycles;
  std::vector<std::pair<Time, Time>> probe_served;  // (issue, completion)
  std::map<std::string, int> failed_attempts;      // by error code
  std::uint64_t history_digest = 0;  // every recorded invocation and outcome
  std::size_t ops_checked = 0;
  double linearize_s = 0;
};

// ------------------------------------------------------------ one testbed

/// One testbed plus the state its simulated processes reference. Members
/// the fibers use are declared before `bed`, so they outlive the unwind
/// that the Testbed's destructor performs.
class Run {
 public:
  Run(const Spec& spec, std::uint64_t seed, Spans& spans)
      : spec_(spec), seed_(seed), spans_(spans) {}

  /// Build, wait for readiness, populate. Returns false with `err` set on
  /// failure.
  bool setup(bool tracing, SetupTimes& t, std::string& err) {
    Spans::Scope all(spans_, "setup");
    {
      Spans::Scope s(spans_, "build");
      harness::TestbedOptions o;
      o.flavor = spec_.flavor;
      o.clients = kClientMachines;
      o.seed = seed_;
      o.tracing = tracing;
      // Sec. 3.2's improved recovery: two of the three replicas carry on
      // while the third is down.
      o.improved_recovery = true;
      bed_ = std::make_unique<harness::Testbed>(o);
      // Set-up traffic is not traced: the ring is kept for the measured
      // window (traced runs switch recording on there).
      bed_->cluster().set_tracing(false);
      t.build_s = s.cpu_s();
    }
    {
      Spans::Scope s(spans_, "ready");
      const bool ok = bed_->wait_ready();
      t.ready_s = s.cpu_s();
      if (!ok) {
        err = "service never became ready";
        return false;
      }
    }
    Spans::Scope s(spans_, "populate");
    const bool ok = populate(err);
    t.populate_s = s.cpu_s();
    return ok;
  }

  /// Closed-loop capacity of the workload's own mix: ops completed per
  /// simulated second over `window`, after `warmup`.
  bool capacity(int clients, Duration warmup, Duration window, double& ops_per_s,
                std::uint64_t& attempted, std::string& err) {
    sim::Simulator& sim = bed_->sim();
    bool measuring = false;
    std::uint64_t done = 0, bad = 0, retried = 0;
    for (int c = 0; c < clients; ++c) {
      net::Machine& cm = bed_->client(c % kClientMachines);
      cm.spawn("cap" + std::to_string(c), [this, &cm, &sim, &measuring, &done,
                                            &bad, &retried, c] {
        rpc::RpcClient rpc(cm);
        prefer(rpc, c);
        dir::DirClient dc(rpc, bed_->dir_port());
        Rng rng(seed_ * 1000003 + static_cast<std::uint64_t>(c));
        const harness::ZipfPicker zipf(kDirs * spec_.rows, kZipf);
        // Run one op, retrying refusals (every server thread busy) until
        // it is served; only served ops count as completions.
        const auto serve = [&](const std::function<check::Outcome()>& op) {
          while (op() == check::Outcome::ambiguous) {
            if (measuring) ++retried;
            rpc.flush_port_cache(bed_->dir_port());
            sim.sleep_for(sim::msec(20));
          }
          if (measuring) ++done;
        };
        struct Churn {
          Time born;
          cap::Capability dir;
          std::string name;
        };
        std::deque<Churn> churn;
        std::uint64_t k = 0;
        while (true) {
          const auto w = static_cast<int>(rng.below(static_cast<std::uint64_t>(spec_.mix.total())));
          if (w < spec_.mix.lookup) {
            const auto [d, r] = rank_to_row(static_cast<std::uint32_t>(zipf.pick(rng)));
            serve([&, d = d, r = r] {
              auto res = dc.lookup(dirs_[static_cast<std::size_t>(d)], immutable_name(r));
              if (res.is_ok() && *res != value_cap(seed_, static_cast<std::uint64_t>(d),
                                                   static_cast<std::uint64_t>(r))) {
                ++bad;
              }
              return res.is_ok() ? check::Outcome::ok
                                 : check::classify(check::OpKind::lookup, res.code());
            });
            continue;
          }
          const bool pair = w < spec_.mix.lookup + spec_.mix.pair;
          const std::string name = row_name(pair ? "cp" : "cu", static_cast<std::uint64_t>(c), k);
          const cap::Capability d = dirs_[static_cast<std::size_t>(k % static_cast<std::uint64_t>(kDirs))];
          ++k;
          serve([&] {
            return check::classify(check::OpKind::append_row,
                                   dc.append_row(d, name, {value_cap(seed_, 999, k)}).code());
          });
          if (pair) {
            serve([&] {
              return check::classify(check::OpKind::delete_row, dc.delete_row(d, name).code());
            });
            continue;
          }
          // A churn row is deleted once it is kChurnLife old, as in the
          // open loop.
          churn.push_back({sim.now(), d, name});
          while (!churn.empty() && sim.now() - churn.front().born >= kChurnLife) {
            const Churn old = churn.front();
            churn.pop_front();
            serve([&] {
              return check::classify(check::OpKind::delete_row,
                                     dc.delete_row(old.dir, old.name).code());
            });
          }
        }
      });
    }
    {
      Spans::Scope s(spans_, "run_for");
      sim.run_for(warmup);
    }
    measuring = true;
    {
      Spans::Scope s(spans_, "run_for");
      sim.run_for(window);
    }
    measuring = false;
    attempted = done;
    ops_per_s = static_cast<double>(done) / (static_cast<double>(window) / 1e6);
    std::fprintf(stderr, "  capacity phase: %llu ops served, %llu refused attempts retried\n",
                 static_cast<unsigned long long>(done), static_cast<unsigned long long>(retried));
    if (bad > 0) {
      err = "capacity phase: " + std::to_string(bad) + " lookups returned a wrong value";
      return false;
    }
    return true;
  }

  /// The open-loop rep: warm-up, measured window, quiesce, crash cycles
  /// under a probe load, correctness gate. On crash_in_window workloads one
  /// replica also crashes and restarts in mid-window, under the open loop.
  /// `trace_window` > 0 makes a traced rep: trace recording is on for that
  /// long after warm-up, and the rep stops there. A rep without `gate`
  /// stops before the correctness gate: it repeats a gated rep of the same
  /// seed, which its digest must match.
  bool open_loop(Duration trace_window, bool with_gate, std::string& err) {
    sim::Simulator& sim = bed_->sim();
    const bool traced = trace_window > 0;
    const bool crash_in_window = spec_.crash_in_window && !traced;
    const Duration length =
        spec_.warmup + (traced ? trace_window : spec_.window) +
        (crash_in_window ? kCrashReserve + spec_.window : 0);
    loop_ = std::make_unique<OpenLoop>(
        sim,
        make_schedule(seed_, spec_.mix, spec_.rate, length, kPairGap, kChurnLife,
                      kDirs * spec_.rows, kZipf),
        sim.now(), kClientMachines * kUsersPerMachine);
    const Time origin = sim.now();
    bed_->client(0).spawn("dispatch", [this] { loop_->dispatch(); });
    for (int u = 0; u < kClientMachines * kUsersPerMachine; ++u) {
      net::Machine& cm = bed_->client(u % kClientMachines);
      cm.spawn("user" + std::to_string(u), [this, &cm, u] { user(cm, u); });
    }
    const auto run_until = [&](Time t) {
      Spans::Scope s(spans_, "run_for");
      sim.run_until(t);
    };

    // Healthy parts of the window run in slices, each a host-cost sample;
    // the short traced window in tenths.
    const Duration slice = traced ? trace_window / 10 : kHostSlice;
    const auto run_sliced = [&](Time until) {
      while (sim.now() < until) {
        const double c0 = cpu_now();
        const std::uint64_t n0 = completions_;
        const std::uint64_t e0 = sim.events_dispatched();
        run_until(std::min(sim.now() + slice, until));
        if (completions_ > n0) {
          window_.slices.push_back({cpu_now() - c0, completions_ - n0,
                                    sim.events_dispatched() - e0});
        }
      }
    };

    run_until(origin + spec_.warmup);
    if (traced) bed_->cluster().set_tracing(true);
    begin_window(window_);
    if (crash_in_window) {
      run_sliced(origin + spec_.warmup + spec_.window);
      std::vector<CrashCycle> under_load;
      if (!crash_cycles(1, under_load, err)) return false;
    }
    run_sliced(origin + length);
    end_window(window_);
    if (traced) {
      bed_->cluster().set_tracing(false);
      return drain(err);
    }
    if (!drain(err)) return false;
    if (!probe_crash_cycles(err)) return false;
    return !with_gate || gate(err);
  }

  [[nodiscard]] RepResult result() const {
    RepResult r;
    r.records = loop_->records();
    for (const Arrival& a : loop_->schedule()) r.is_update.push_back(is_update(a.type));
    r.window = window_;
    r.cycles = cycles_;
    r.probe_served = probe_served_;
    r.failed_attempts = failed_attempts_;
    r.history_digest = 0xcbf29ce484222325ull;
    const auto mixin = [&r](std::uint64_t v) {
      r.history_digest = (r.history_digest ^ v) * 0x100000001b3ull;
    };
    for (const check::Event& e : history_.events()) {
      mixin(static_cast<std::uint64_t>(e.client));
      mixin(static_cast<std::uint64_t>(e.op) << 8 | static_cast<std::uint64_t>(e.outcome));
      mixin(e.dir_obj);
      mixin(std::hash<std::string>{}(e.name));
      mixin(static_cast<std::uint64_t>(e.invoke));
      mixin(static_cast<std::uint64_t>(e.response));
    }
    r.ops_checked = lin_.ops_checked;
    r.linearize_s = linearize_s_;
    return r;
  }

  [[nodiscard]] harness::Testbed& bed() { return *bed_; }
  [[nodiscard]] const Window& window() const { return window_; }

 private:
  /// Spread clients over the replicas, as a deployment with several client
  /// machines does; failover still applies.
  void prefer(rpc::RpcClient& rpc, int i) {
    rpc.prefer_server(bed_->dir_port(),
                      bed_->dir_server(i % bed_->num_dir_servers()).id());
  }

  bool populate(std::string& err) {
    sim::Simulator& sim = bed_->sim();
    constexpr int kWriters = 8;
    dirs_.assign(static_cast<std::size_t>(kDirs), cap::Capability{});
    int created = 0, writers_done = 0, failures = 0;
    bed_->client(0).spawn("mkdirs", [&] {
      rpc::RpcClient rpc(bed_->client(0));
      dir::DirClient dc(rpc, bed_->dir_port());
      for (auto& d : dirs_) {
        auto res = dc.create_dir({"c"});
        for (int i = 0; i < 20 && !res.is_ok(); ++i) {
          rpc.flush_port_cache(bed_->dir_port());
          sim.sleep_for(sim::msec(100));
          res = dc.create_dir({"c"});
        }
        if (!res.is_ok()) return;
        d = *res;
        ++created;
      }
    });
    while (created < kDirs && sim.now() < sim::sec(600)) sim.run_for(sim::msec(100));
    if (created < kDirs) {
      err = "populate: create_dir failed";
      return false;
    }
    for (int w = 0; w < kWriters; ++w) {
      net::Machine& cm = bed_->client(w % kClientMachines);
      cm.spawn("populate" + std::to_string(w), [&, w] {
        rpc::RpcClient rpc(cm);
        prefer(rpc, w);
        dir::DirClient inner(rpc, bed_->dir_port());
        // Recorded, so the checker knows the immutable rows exist.
        check::RecordingDirClient dc(inner, history_, -1 - w);
        for (int i = w; i < kDirs * spec_.rows; i += kWriters) {
          const int d = i % kDirs, r = i / kDirs;
          Status st;
          for (int attempt = 0; attempt < 20; ++attempt) {
            st = dc.append_row(dirs_[static_cast<std::size_t>(d)], immutable_name(r),
                               {value_cap(seed_, static_cast<std::uint64_t>(d),
                                          static_cast<std::uint64_t>(r))});
            // A retried append whose first attempt did land reports exists.
            if (st.is_ok() || (attempt > 0 && st.code() == Errc::exists)) break;
            rpc.flush_port_cache(bed_->dir_port());
            sim.sleep_for(sim::msec(50));
          }
          if (!st.is_ok() && st.code() != Errc::exists) ++failures;
        }
        ++writers_done;
      });
    }
    while (writers_done < kWriters && sim.now() < sim::sec(1200)) sim.run_for(sim::msec(100));
    if (writers_done < kWriters || failures > 0) {
      err = "populate: " + std::to_string(failures) + " appends failed";
      return false;
    }
    return true;
  }

  /// One simulated user: takes due ops from the open loop and retries a
  /// failed op (after dropping its cached server) until it succeeds or the
  /// user's patience runs out.
  void user(net::Machine& cm, int u) {
    rpc::RpcClient rpc(cm);
    prefer(rpc, u);
    dir::DirClient dc(rpc, bed_->dir_port());
    check::RecordingDirClient rec(dc, history_, u);
    sim::Simulator& sim = cm.sim();
    while (auto i = loop_->take()) {
      const Arrival& a = loop_->arrival(*i);
      OpRecord& r = loop_->record(*i);
      while (true) {
        ++r.attempts;
        bool ok = false;
        Errc code = Errc::ok;
        if (a.type == OpType::lookup) {
          const auto [d, row] = rank_to_row(a.key);
          auto res = rec.lookup(dirs_[static_cast<std::size_t>(d)], immutable_name(row));
          code = res.code();
          ok = res.is_ok() || res.code() == Errc::not_found;
          r.wrong = ok && (!res.is_ok() ||
                           *res != value_cap(seed_, static_cast<std::uint64_t>(d),
                                             static_cast<std::uint64_t>(row)));
        } else {
          const cap::Capability& d =
              dirs_[a.key % static_cast<std::uint32_t>(kDirs)];
          const std::string name = row_name(a.churn ? "u" : "p", a.key);
          const Status st = a.type == OpType::append
                                ? rec.append_row(d, name, {value_cap(seed_, 999, a.key)})
                                : rec.delete_row(d, name);
          const check::OpKind kind = a.type == OpType::append
                                         ? check::OpKind::append_row
                                         : check::OpKind::delete_row;
          code = st.code();
          ok = check::classify(kind, code) != check::Outcome::ambiguous;
        }
        if (!ok) ++failed_attempts_[std::string(errc_name(code))];
        if (ok) {
          r.ok = true;
          r.ok_first = r.attempts == 1;
          break;
        }
        if (sim.now() >= r.due + kPatience) break;
        // Exponential backoff, as a client that does not hammer a service
        // in trouble: 20 ms, 40 ms, ... capped at 320 ms.
        rpc.flush_port_cache(bed_->dir_port());
        sim.sleep_for(sim::msec(20) << std::min(r.attempts - 1, 4));
      }
      r.done = sim.now();
      ++completions_;
    }
  }

  void begin_window(Window& w) {
    w.t0 = bed_->sim().now();
    w.counters = bed_->metrics().snapshot();
    for (const auto& [k, v] : bed_->metrics().hists()) hist_mark_[k] = v.size();
    w.events = bed_->sim().events_dispatched();
    w.allocs = g_allocs.load(std::memory_order_relaxed);
  }

  void end_window(Window& w) {
    w.allocs = g_allocs.load(std::memory_order_relaxed) - w.allocs;
    w.events = bed_->sim().events_dispatched() - w.events;
    w.t1 = bed_->sim().now();
    w.counters = obs::Metrics::delta(bed_->metrics().snapshot(), w.counters);
    for (const auto& [k, v] : bed_->metrics().hists()) {
      const std::size_t from = hist_mark_.contains(k) ? hist_mark_[k] : 0;
      w.hists[k].assign(v.begin() + static_cast<std::ptrdiff_t>(std::min(from, v.size())), v.end());
    }
    w.ops_done = 0;
    for (const OpRecord& r : loop_->records()) {
      if (r.finished() && r.done >= w.t0 && r.done < w.t1) ++w.ops_done;
    }
  }

  /// Has the restarted replica finished its recovery protocol? It must be
  /// seen recovering first: the stats of its previous life read "recovered".
  static bool recovered(net::Machine& m, bool& saw_recovering) {
    const bool rec = dir::group_dir_stats(m).in_recovery;
    saw_recovering = saw_recovering || rec;
    return saw_recovering && !rec;
  }

  /// Crash the last replica, restart it after kCrashDown, wait for it to
  /// recover and settle; `n` times.
  bool crash_cycles(int n, std::vector<CrashCycle>& out, std::string& err) {
    Spans::Scope scope(spans_, "crash_cycles");
    sim::Simulator& sim = bed_->sim();
    net::Machine& victim = bed_->dir_server(bed_->num_dir_servers() - 1);
    for (int c = 0; c < n; ++c) {
      CrashCycle cy;
      cy.crash = sim.now();
      bed_->cluster().crash(victim.id());
      sim.run_for(kCrashDown);
      cy.restart = sim.now();
      bed_->cluster().restart(victim.id());
      const Time limit = sim.now() + kRecoveryLimit;
      while (sim.now() < limit) {
        sim.run_for(sim::msec(1));
        if (recovered(victim, cy.saw_recovering)) {
          cy.recovered = sim.now();
          break;
        }
      }
      if (cy.recovered < 0) {
        err = "crash cycle " + std::to_string(c) + ": replica did not recover within " +
              std::to_string(sim::to_ms(kRecoveryLimit)) + " ms of its restart";
        return false;
      }
      sim.run_for(kCrashSettle);
      out.push_back(cy);
    }
    return true;
  }

  /// Crash cycles under a small closed-loop probe load, one client per
  /// replica, each appending and deleting its own rows: the probe's dense
  /// update stream shows when updates are served again after a crash.
  bool probe_crash_cycles(std::string& err) {
    constexpr int kProbes = 3;
    bool probing = true;
    int probes_done = 0;
    for (int p = 0; p < kProbes; ++p) {
      net::Machine& cm = bed_->client(p % kClientMachines);
      cm.spawn("probe" + std::to_string(p), [&, p] {
        rpc::RpcClient rpc(cm);
        prefer(rpc, p);
        dir::DirClient inner(rpc, bed_->dir_port());
        check::RecordingDirClient dc(inner, history_, 1000 + p);
        sim::Simulator& sim = cm.sim();
        for (std::uint32_t k = 0; probing; ++k) {
          const cap::Capability& d = dirs_[k % static_cast<std::uint32_t>(kDirs)];
          const std::string name = row_name("q", static_cast<std::uint64_t>(p), k);
          const auto probe = [&](check::OpKind kind) {
            const Time t0 = sim.now();
            const Status st = kind == check::OpKind::append_row
                                  ? dc.append_row(d, name, {value_cap(seed_, 998, k)})
                                  : dc.delete_row(d, name);
            if (check::classify(kind, st.code()) != check::Outcome::ambiguous) {
              probe_served_.emplace_back(t0, sim.now());
            } else {
              rpc.flush_port_cache(bed_->dir_port());
            }
          };
          probe(check::OpKind::append_row);
          probe(check::OpKind::delete_row);
          sim.sleep_for(sim::msec(10));
        }
        ++probes_done;
      });
    }
    bed_->sim().run_for(sim::sec(1));
    const bool ok = crash_cycles(kCrashCycles, cycles_, err);
    probing = false;
    const Time limit = bed_->sim().now() + sim::sec(60);
    while (probes_done < kProbes && bed_->sim().now() < limit) {
      bed_->sim().run_for(sim::msec(100));
    }
    if (ok && probes_done < kProbes) {
      err = "crash probe did not finish";
      return false;
    }
    return ok;
  }

  /// Let the schedule finish and every user return.
  bool drain(std::string& err) {
    Spans::Scope s(spans_, "run_for");
    sim::Simulator& sim = bed_->sim();
    const Time limit = sim.now() + sim::sec(120) +
                       (loop_->schedule().empty() ? 0 : loop_->records().back().due - sim.now());
    while (!loop_->all_users_done() && sim.now() < limit) sim.run_for(sim::msec(100));
    if (!loop_->all_users_done()) {
      err = "open loop did not drain";
      return false;
    }
    return true;
  }

  /// The correctness gate: immutable names, replica agreement,
  /// linearizability, no process died.
  bool gate(std::string& err) {
    Spans::Scope scope(spans_, "gate");
    sim::Simulator& sim = bed_->sim();
    const Time limit = sim.now() + sim::sec(60);
    for (bool ready = false; !ready && sim.now() < limit;) {
      sim.run_for(sim::msec(100));
      ready = true;
      for (int i = 0; i < bed_->num_dir_servers(); ++i) {
        ready = ready && !dir::group_dir_stats(bed_->dir_server(i)).in_recovery;
      }
    }
    sim.run_for(sim::sec(2));

    {
      Spans::Scope s(spans_, "verify_names");
      constexpr int kReaders = 8;
      int readers_done = 0;
      std::uint64_t bad = 0;
      for (int w = 0; w < kReaders; ++w) {
        net::Machine& cm = bed_->client(w % kClientMachines);
        cm.spawn("verify" + std::to_string(w), [&, w] {
          rpc::RpcClient rpc(cm);
          prefer(rpc, w);
          dir::DirClient dc(rpc, bed_->dir_port());
          for (int i = w; i < kDirs * spec_.rows; i += kReaders) {
            const int d = i % kDirs, r = i / kDirs;
            auto res = dc.lookup(dirs_[static_cast<std::size_t>(d)], immutable_name(r));
            if (!res.is_ok() || *res != value_cap(seed_, static_cast<std::uint64_t>(d),
                                                  static_cast<std::uint64_t>(r))) {
              ++bad;
            }
          }
          ++readers_done;
        });
      }
      const Time limit = sim.now() + sim::sec(120);
      while (readers_done < kReaders && sim.now() < limit) sim.run_for(sim::msec(100));
      if (readers_done < kReaders || bad > 0) {
        err = "gate: " + std::to_string(bad) + " immutable names did not resolve to their set-up value";
        return false;
      }
    }

    {
      Spans::Scope s(spans_, "replica_agreement");
      std::string why;
      bool agree = false;
      for (int round = 0; round < 3 && !agree; ++round) {
        agree = replicas_agree(why);
        if (!agree) sim.run_for(sim::sec(2));
      }
      if (!agree) {
        err = "gate: replicas disagree after quiesce: " + why;
        return false;
      }
    }

    {
      Spans::Scope s(spans_, "linearize");
      lin_ = check::check_linearizable(history_.events());
      linearize_s_ = s.cpu_s();
    }
    if (!lin_.ok || !lin_.complete) {
      err = "gate: history not linearizable: " + lin_.summary();
      return false;
    }
    for (const OpRecord& r : loop_->records()) {
      if (r.wrong) {
        err = "gate: a lookup returned a value other than the set-up capability";
        return false;
      }
    }
    if (!sim.process_errors().empty()) {
      err = "gate: simulated process died: " + sim.process_errors().front();
      return false;
    }
    return true;
  }

  /// Fetch every replica's state over its admin port (as simfuzz does) and
  /// compare object identity, seqnos and rows.
  bool replicas_agree(std::string& why) {
    sim::Simulator& sim = bed_->sim();
    const int n = bed_->num_dir_servers();
    std::vector<Buffer> snaps(static_cast<std::size_t>(n));
    bool done = false;
    bed_->client(0).spawn("fetch_state", [&] {
      rpc::RpcClient rpc(bed_->client(0));
      for (int i = 0; i < n; ++i) {
        for (int attempt = 0; attempt < 10; ++attempt) {
          Writer w;
          w.u8(static_cast<std::uint8_t>(dir::GroupAdminOp::fetch_state));
          auto res = rpc.trans(bed_->admin_port(i), w.take(), {.timeout = sim::sec(2)});
          if (res.is_ok()) {
            try {
              Reader r(*res);
              if (static_cast<Errc>(r.u8()) == Errc::ok) {
                (void)r.u64();  // seqno
                (void)r.u64();  // applied
                (void)r.u64();  // commit-block seqno
                snaps[static_cast<std::size_t>(i)] = r.bytes();
                break;
              }
            } catch (const DecodeError&) {
            }
          }
          sim.sleep_for(sim::msec(300));
        }
      }
      done = true;
    });
    const Time limit = sim.now() + sim::sec(60);
    while (!done && sim.now() < limit) sim.run_for(sim::msec(100));
    using Rows = std::vector<std::pair<std::string, std::vector<cap::Capability>>>;
    std::vector<std::map<std::uint32_t, std::tuple<std::uint64_t, std::uint64_t, Rows>>> sem(
        static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (snaps[static_cast<std::size_t>(i)].empty()) {
        why = "no state from server " + std::to_string(i);
        return false;
      }
      try {
        const dir::DirState st =
            dir::DirState::from_snapshot(snaps[static_cast<std::size_t>(i)], bed_->dir_port());
        for (const auto& [obj, e] : st.table()) {
          Rows rows;
          if (auto it = st.dirs().find(obj); it != st.dirs().end()) {
            for (const auto& row : it->second.rows) rows.emplace_back(row.name, row.cols);
          }
          sem[static_cast<std::size_t>(i)][obj] = {e.secret, e.seqno, std::move(rows)};
        }
      } catch (const DecodeError& e) {
        why = std::string("corrupt snapshot: ") + e.what();
        return false;
      }
      if (i > 0 && sem[static_cast<std::size_t>(i)] != sem[0]) {
        why = "server " + std::to_string(i) + " differs from server 0:";
        for (const auto& [obj, t] : sem[0]) {
          auto it = sem[static_cast<std::size_t>(i)].find(obj);
          if (it == sem[static_cast<std::size_t>(i)].end()) {
            why += " obj " + std::to_string(obj) + " missing;";
          } else if (it->second != t) {
            why += " obj " + std::to_string(obj) + " seqno " + std::to_string(std::get<1>(t)) +
                   " vs " + std::to_string(std::get<1>(it->second)) + ", rows " +
                   std::to_string(std::get<2>(t).size()) + " vs " +
                   std::to_string(std::get<2>(it->second).size()) + ";";
          }
        }
        return false;
      }
    }
    return true;
  }

  const Spec& spec_;
  std::uint64_t seed_;
  Spans& spans_;
  std::vector<cap::Capability> dirs_;
  check::History history_;
  std::unique_ptr<OpenLoop> loop_;
  Window window_;
  std::map<std::string, std::size_t> hist_mark_;
  std::vector<CrashCycle> cycles_;
  std::vector<std::pair<Time, Time>> probe_served_;
  std::map<std::string, int> failed_attempts_;  // by error code
  std::uint64_t completions_ = 0;  // open-loop ops finished so far
  check::CheckResult lin_;
  double linearize_s_ = 0;
  std::unique_ptr<harness::Testbed> bed_;  // last: destroyed first
};

// ------------------------------------------------------------ reporting

/// Every emitted metric, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& end_to_end_names() {
  static const std::vector<std::pair<const char*, const char*>> v = {
      {"lookup_p50_ms", "ms"},   {"lookup_p99_ms", "ms"},
      {"update_p50_ms", "ms"},   {"update_p99_ms", "ms"},
      {"ok_ratio", "ratio"},     {"capacity_ops_per_s", "1/s"},
      {"unavail_ms", "ms"},      {"recovery_ms", "ms"},
      {"host_ops_per_cpu_s", "1/s"}, {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return v;
}

const char* const kLegs[] = {"network", "queueing", "cpu", "disk", "nvram", "lock"};
constexpr obs::Leg kLegIds[] = {obs::Leg::network, obs::Leg::queueing, obs::Leg::cpu,
                                obs::Leg::disk,    obs::Leg::nvram,    obs::Leg::lock_wait};

std::vector<std::pair<std::string, std::string>> per_layer_names() {
  std::vector<std::pair<std::string, std::string>> v = {
      {"sim.events_per_op", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.allocs_per_op", "count"},
      {"net.wire_packets_per_op", "count"},
      {"net.multicasts_per_op", "count"},
      {"rpc.transactions_per_op", "count"},
      {"rpc.locates", "count"},
      {"rpc.timeouts", "count"},
      {"rpc.failovers", "count"},
      {"rpc.trans_p99_ms", "ms"},
      {"group.sends_per_update", "count"},
      {"group.data_packets_per_update", "count"},
      {"group.retransmissions", "count"},
      {"group.resets", "count"},
      {"group.views_installed", "count"},
      {"group.batch_size_mean", "count"},
      {"group.send_p50_ms", "ms"},
      {"dir.refused_no_majority", "count"},
      {"dir.recoveries", "count"},
      {"dir.flushes", "count"},
      {"dir.nvram_cancellations", "count"},
      {"dir.cache_hit_ratio", "ratio"},
      {"nvram.appends_per_update", "count"},
      {"nvram.cancel_ratio", "ratio"},
      {"nvram.full_rejects", "count"},
      {"disk.writes_per_update", "count"},
      {"disk.reads_per_op", "count"},
      {"bullet.creates_per_update", "count"},
      {"bullet.deletes_per_update", "count"},
  };
  for (const char* kind : {"lookup", "update"}) {
    for (const char* leg : kLegs) {
      v.emplace_back(std::string("legs.") + kind + "." + leg + "_ms", "ms");
    }
  }
  for (const auto& m : std::vector<std::pair<std::string, std::string>>{
           {"obs.trace_overhead_ratio", "ratio"},
           {"obs.trace_dropped", "count"},
           {"check.linearize_s", "s"},
           {"check.ops_checked", "count"},
           {"harness.gen_lag_p99_ms", "ms"},
           {"harness.build_s", "s"},
           {"harness.ready_s", "s"},
           {"harness.populate_s", "s"}}) {
    v.push_back(m);
  }
  return v;
}

struct Result {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::uint64_t ctr(const obs::Metrics::Snapshot& s, const std::string& k) {
  auto it = s.find(k);
  return it == s.end() ? 0 : it->second;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

double mean_of(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return xs.empty() ? 0 : s / static_cast<double>(xs.size());
}

/// FNV-1a over everything modelled that a rep produced: every op record,
/// the window's counter deltas and events, crash timings. Two reps of one
/// seed must agree.
std::uint64_t rep_digest(const RepResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mixin = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const OpRecord& o : r.records) {
    mixin(static_cast<std::uint64_t>(o.start));
    mixin(static_cast<std::uint64_t>(o.done));
    mixin(static_cast<std::uint64_t>(o.attempts) << 2 | (o.ok ? 1u : 0u) | (o.ok_first ? 2u : 0u));
  }
  for (const auto& [k, v] : r.window.counters) {
    for (char c : k) mixin(static_cast<std::uint64_t>(c));
    mixin(v);
  }
  mixin(r.window.events);
  mixin(r.history_digest);
  for (const CrashCycle& c : r.cycles) mixin(static_cast<std::uint64_t>(c.recovered));
  for (const auto& [issued, done] : r.probe_served) mixin(static_cast<std::uint64_t>(done - issued));
  return h;
}

/// Host CPU seconds per unit (`ops` or `events` of a slice): the median
/// over a pool of slices, so that slices slowed by other tenants of a
/// shared host weigh no more than their rank.
double slice_median_cost(const std::vector<Window::Slice>& slices,
                         std::uint64_t Window::Slice::*unit) {
  std::vector<double> per_unit;
  for (const Window::Slice& s : slices) {
    if (s.*unit > 0) per_unit.push_back(s.cpu_s / static_cast<double>(s.*unit));
  }
  return median_of(per_unit);
}

/// A latency percentile that must have at least ten samples beyond it.
bool tail_ok(const char* what, std::size_t n, double p, std::string& err) {
  const double best = tail_percentile(n);
  std::fprintf(stderr, "  %s: n=%zu, highest percentile with >=10 samples beyond: p%g\n",
               what, n, best);
  if (best < p) {
    err = std::string("sizing: ") + what + " has too few samples for p" +
          std::to_string(static_cast<int>(p));
    return false;
  }
  return true;
}

int fail(const std::string& err) {
  std::fprintf(stderr, "perfbench: FAILED: %.400s\n", err.c_str());
  return 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
  bool list = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const bool has = i + 1 < argc;
    if (s == "--workload" && has) {
      a.workload = argv[++i];
    } else if (s == "--seed" && has) {
      a.seed = std::stoull(argv[++i]);
    } else if (s == "--seconds" && has) {
      a.seconds = std::stod(argv[++i]);
    } else if (s == "--trace" && has) {
      a.trace = std::stoi(argv[++i]);
    } else if (s == "--spans" && has) {
      a.spans_path = argv[++i];
    } else if (s == "--list") {
      a.list = true;
    } else {
      return false;
    }
  }
  return a.list || (find_spec(a.workload) != nullptr && (a.trace == 0 || a.trace == 1));
}

int run_main(const Args& args) {
  const Spec& spec = *find_spec(args.workload);
  Spans spans;
  const double cpu_start = cpu_now();
  std::string err;
  std::vector<SetupTimes> setups;
  Result res;

  // 1. Capacity of the workload's own mix (closed loop).
  double capacity = 0;
  {
    Spans::Scope s(spans, "capacity");
    Run run(spec, args.seed, spans);
    SetupTimes t;
    if (!run.setup(false, t, err)) return fail(err);
    setups.push_back(t);
    std::uint64_t attempted = 0;
    if (!run.capacity(kCapacityClients, kCapacityWarmup, kCapacityWindow, capacity, attempted, err)) return fail(err);
    res.attempted += attempted;
  }
  const double util = spec.rate / capacity;
  std::fprintf(stderr,
               "%s seed %llu: closed-loop capacity %.1f ops/s with %d clients; "
               "offered %.1f ops/s = %.2f of capacity\n",
               spec.name, static_cast<unsigned long long>(args.seed), capacity,
               kCapacityClients, spec.rate, util);
  if (util > kMaxUtilisation) {
    return fail("sizing: offered rate is " + std::to_string(util) +
                " of this mix's capacity (limit " + std::to_string(kMaxUtilisation) + ")");
  }

  // 2. Open-loop reps.
  RepResult r0;
  double peak_rss_mb = 0;  // after the capacity phase and the first rep
  std::uint64_t digest = 0;
  std::vector<Window::Slice> host_slices;  // pooled over every rep
  std::vector<double> rep_rates;
  for (int rep = 0;; ++rep) {
    if (rep >= 2 && (cpu_now() - cpu_start >= args.seconds || rep >= 20)) break;
    // Hand the previous rep's freed heap back, so every rep starts from
    // the same memory state and the process stays small.
    malloc_trim(0);
    Spans::Scope s(spans, "open_loop_rep");
    auto run = std::make_unique<Run>(spec, args.seed, spans);
    SetupTimes t;
    if (!run->setup(false, t, err)) return fail(err);
    setups.push_back(t);
    if (!run->open_loop(0, rep == 0, err)) return fail(err);
    RepResult result = run->result();
    run.reset();  // free the testbed before the next rep builds one
    const std::uint64_t d = rep_digest(result);
    if (rep == 0) {
      digest = d;
    } else if (d != digest) {
      return fail("determinism: rep " + std::to_string(rep) +
                  " of the same seed produced different modelled results");
    }
    const Window& w = result.window;
    host_slices.insert(host_slices.end(), w.slices.begin(), w.slices.end());
    rep_rates.push_back(1.0 / slice_median_cost(w.slices, &Window::Slice::ops));
    if (rep == 0) {
      r0 = std::move(result);
      peak_rss_mb = proc_status_mb("VmHWM");
    }
  }
  const Window& w = r0.window;

  // Latency, success and lag over ops due inside the measured window.
  std::vector<double> lk, up, lags, lag_first, lag_second;
  std::uint64_t attempted = 0, ok_first = 0, failed = 0;
  // Lag is compared between the first and the last healthy stretch of the
  // window: its halves, or on crash_in_window workloads the spans before the
  // crash and after the recovery.
  const Time first_end = spec.crash_in_window ? w.t0 + spec.window : w.t0 + (w.t1 - w.t0) / 2;
  const Time last_start = spec.crash_in_window ? w.t1 - spec.window : first_end;
  for (std::size_t i = 0; i < r0.records.size(); ++i) {
    const OpRecord& r = r0.records[i];
    if (!r.ok) ++failed;
    if (r.due < w.t0 || r.due >= w.t1) continue;
    ++attempted;
    if (r.ok_first) ++ok_first;
    (r0.is_update[i] ? up : lk).push_back(r.latency_ms());
    lags.push_back(r.lag_ms());
    if (r.due < first_end) lag_first.push_back(r.lag_ms());
    if (r.due >= last_start) lag_second.push_back(r.lag_ms());
  }
  res.attempted += r0.records.size();
  for (const auto& [code, n] : r0.failed_attempts) {
    std::fprintf(stderr, "  failed open-loop attempts (retried): %d x %s\n", n, code.c_str());
  }
  res.failed = failed;
  std::fprintf(stderr, "  open loop: %llu ops due in the measured window, %zu lookups, %zu updates\n",
               static_cast<unsigned long long>(attempted), lk.size(), up.size());
  // Crash metrics: the first probe update issued after the crash that was
  // served, and the restarted replica's recovery measured from its restart.
  std::vector<double> unavail, recovery;
  for (const CrashCycle& c : r0.cycles) {
    Time first_served = -1;
    for (const auto& [issued, done] : r0.probe_served) {
      if (issued >= c.crash && (first_served < 0 || done < first_served)) first_served = done;
    }
    if (first_served < 0) return fail("crash: no update was served after a crash");
    if (c.recovered <= c.restart || c.restart <= c.crash || !c.saw_recovering) {
      return fail("sizing: recovery not measured from the replica's restart");
    }
    unavail.push_back(static_cast<double>(first_served - c.crash) / 1e3);
    recovery.push_back(c.recovery_ms());
    std::fprintf(stderr, "  crash cycle: unavailable %.3f ms, recovery %.3f ms after restart\n",
                 unavail.back(), recovery.back());
  }

  if (!tail_ok("lookup latency", lk.size(), 99, err) ||
      !tail_ok("update latency", up.size(), 99, err)) {
    return fail(err);
  }
  const double ok_ratio = static_cast<double>(ok_first) / static_cast<double>(attempted);
  const double lag_p99_first = percentile_of(lag_first, 99);
  const double lag_p99_second = percentile_of(lag_second, 99);
  const double lag_p99 = percentile_of(lags, 99);
  std::fprintf(stderr, "  generator lag p99: %.3f ms first healthy stretch, %.3f ms last\n",
               lag_p99_first, lag_p99_second);

  // Sizing guards: no backlog, a healthy workload serves every op first
  // time, no healthy percentile sits at the client deadline.
  if (lag_p99_second > lag_p99_first + 50.0) {
    return fail("sizing: generator lag grows across the window (backlog)");
  }
  if (failed > 0) {
    return fail("sizing: " + std::to_string(failed) + " ops never succeeded");
  }
  const double lookup_p50 = percentile_of(lk, 50), lookup_p99 = percentile_of(lk, 99);
  const double update_p50 = percentile_of(up, 50), update_p99 = percentile_of(up, 99);
  if (!spec.crash_in_window) {
    if (ok_ratio < 1.0) return fail("sizing: healthy workload with ok_ratio " + std::to_string(ok_ratio));
    const double deadline_ms = sim::to_ms(kDeadline);
    for (double p : {lookup_p50, lookup_p99, update_p50, update_p99}) {
      if (p >= deadline_ms) return fail("sizing: a healthy percentile reached the client deadline");
    }
  }

  std::vector<double> setup_total, build, ready, populate;
  for (const SetupTimes& t : setups) {
    setup_total.push_back(t.build_s + t.ready_s + t.populate_s);
    build.push_back(t.build_s);
    ready.push_back(t.ready_s);
    populate.push_back(t.populate_s);
  }

  auto& v = res.values;
  v["lookup_p50_ms"] = lookup_p50;
  v["lookup_p99_ms"] = lookup_p99;
  v["update_p50_ms"] = update_p50;
  v["update_p99_ms"] = update_p99;
  v["ok_ratio"] = ok_ratio;
  v["capacity_ops_per_s"] = capacity;
  v["unavail_ms"] = median_of(unavail);
  v["recovery_ms"] = median_of(recovery);
  v["host_ops_per_cpu_s"] = 1.0 / slice_median_cost(host_slices, &Window::Slice::ops);
  v["peak_rss_mb"] = peak_rss_mb;
  v["setup_s"] = median_of(setup_total);
  std::fprintf(stderr, "  %zu open-loop reps, %zu set-ups; host ops per cpu-s:", rep_rates.size(),
               setups.size());
  for (double x : rep_rates) std::fprintf(stderr, " %.0f", x);
  std::fprintf(stderr, "; set-up s:");
  for (double x : setup_total) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr, "\n");

  if (args.trace == 1) {
    const auto& c = w.counters;
    const double ops = static_cast<double>(w.ops_done);
    double updates = 0;
    for (std::size_t i = 0; i < r0.records.size(); ++i) {
      const OpRecord& r = r0.records[i];
      if (r.finished() && r.done >= w.t0 && r.done < w.t1 &&
          r0.is_update[i]) {
        updates += 1;
      }
    }
    const auto hist = [&w](const char* k) {
      auto it = w.hists.find(k);
      return it == w.hists.end() ? std::vector<double>{} : it->second;
    };
    v["sim.events_per_op"] = ratio(static_cast<double>(w.events), ops);
    v["sim.ns_per_event"] = slice_median_cost(host_slices, &Window::Slice::events) * 1e9;
    v["sim.allocs_per_op"] = ratio(static_cast<double>(w.allocs), ops);
    v["net.wire_packets_per_op"] = ratio(ctr(c, "net.wire_packets"), ops);
    v["net.multicasts_per_op"] = ratio(ctr(c, "net.multicasts"), ops);
    v["rpc.transactions_per_op"] = ratio(ctr(c, "rpc.transactions"), ops);
    v["rpc.locates"] = ctr(c, "rpc.locates");
    v["rpc.timeouts"] = ctr(c, "rpc.timeouts");
    v["rpc.failovers"] = ctr(c, "rpc.failovers");
    v["rpc.trans_p99_ms"] = percentile_of(hist("rpc.trans_ms"), 99);
    v["group.sends_per_update"] = ratio(ctr(c, "group.sends"), updates);
    v["group.data_packets_per_update"] = ratio(ctr(c, "group.data_packets"), updates);
    v["group.retransmissions"] = ctr(c, "group.retransmissions");
    v["group.resets"] = ctr(c, "group.resets");
    v["group.views_installed"] = ctr(c, "group.views_installed");
    v["group.batch_size_mean"] = mean_of(hist("group.batch_size"));
    v["group.send_p50_ms"] = percentile_of(hist("group.send_ms"), 50);
    v["dir.refused_no_majority"] = ctr(c, "dir.group.refused_no_majority");
    v["dir.recoveries"] = ctr(c, "dir.group.recoveries");
    v["dir.flushes"] = ctr(c, "dir.group.flushes");
    v["dir.nvram_cancellations"] = ctr(c, "nvram.cancels");
    v["dir.cache_hit_ratio"] = ratio(ctr(c, "dir.cache_hits"),
                                     ctr(c, "dir.cache_hits") + ctr(c, "dir.cache_misses"));
    v["nvram.appends_per_update"] = ratio(ctr(c, "nvram.appends"), updates);
    v["nvram.cancel_ratio"] = ratio(ctr(c, "nvram.cancels"), ctr(c, "nvram.appends"));
    v["nvram.full_rejects"] = ctr(c, "nvram.full_rejects");
    v["disk.writes_per_update"] = ratio(ctr(c, "disk.writes"), updates);
    v["disk.reads_per_op"] = ratio(ctr(c, "disk.reads"), ops);
    v["bullet.creates_per_update"] = ratio(ctr(c, "bullet.creates"), updates);
    v["bullet.deletes_per_update"] = ratio(ctr(c, "bullet.deletes"), updates);
    v["check.linearize_s"] = r0.linearize_s;
    v["check.ops_checked"] = static_cast<double>(r0.ops_checked);
    v["harness.gen_lag_p99_ms"] = lag_p99;
    v["harness.build_s"] = median_of(build);
    v["harness.ready_s"] = median_of(ready);
    v["harness.populate_s"] = median_of(populate);

    // 3. Traced rep: critical-path legs per op kind.
    Spans::Scope s(spans, "traced_rep");
    Run traced(spec, args.seed, spans);
    SetupTimes t;
    if (!traced.setup(true, t, err)) return fail(err);
    if (!traced.open_loop(spec.traced_window, false, err)) return fail(err);
    const obs::Trace& tr = traced.bed().trace();
    std::fprintf(stderr, "  trace ring: %zu of %zu events used\n", tr.size(), tr.capacity());
    if (tr.dropped() > 0) {
      return fail("trace: the ring dropped " + std::to_string(tr.dropped()) +
                  " events; shorten the traced window");
    }
    std::vector<obs::TraceEvent> events;
    std::unordered_map<std::uint64_t, std::vector<obs::TraceEvent>> by_trace;
    {
      Spans::Scope s2(spans, "build_tree");
      events = tr.events();
      for (const obs::TraceEvent& e : events) {
        if (e.trace != 0) by_trace[e.trace].push_back(e);
      }
    }
    struct Acc {
      std::uint64_t n = 0;
      sim::Duration total = 0;
      sim::Duration leg[obs::kNumLegs] = {};
    } acc[2];
    {
      Spans::Scope s2(spans, "critical_path");
      for (const auto& [id, evs] : by_trace) {
        const obs::TraceTree tree = obs::build_tree(evs, id);
        if (!tree.connected()) continue;  // started before recording began
        const obs::TraceEvent& root = tree.spans[tree.root];
        if (std::strcmp(root.cat, "dir") != 0) continue;
        int kind = -1;
        if (std::strcmp(root.name, "lookup_set") == 0) kind = 0;
        if (std::strcmp(root.name, "append_row") == 0 ||
            std::strcmp(root.name, "delete_row") == 0) {
          kind = 1;
        }
        if (kind < 0) continue;
        const obs::LegBreakdown b = obs::critical_path(tree);
        Acc& a = acc[kind];
        ++a.n;
        a.total += b.total;
        for (int l = 0; l < obs::kNumLegs; ++l) a.leg[l] += b.leg[l];
      }
    }
    for (int k = 0; k < 2; ++k) {
      const Acc& a = acc[k];
      sim::Duration sum = 0;
      for (sim::Duration d : a.leg) sum += d;
      if (a.n == 0 || sum != a.total || a.leg[0] != 0) {
        return fail("trace: legs do not add up to the traced mean latency");
      }
      std::fprintf(stderr, "  traced %s ops: %llu, mean %.3f ms\n", k == 0 ? "lookup" : "update",
                   static_cast<unsigned long long>(a.n),
                   static_cast<double>(a.total) / static_cast<double>(a.n) / 1e3);
      for (int l = 0; l < 6; ++l) {
        v[std::string("legs.") + (k == 0 ? "lookup." : "update.") + kLegs[l] + "_ms"] =
            static_cast<double>(a.leg[static_cast<int>(kLegIds[l])]) /
            static_cast<double>(a.n) / 1e3;
      }
    }
    const Window& tw = traced.window();
    v["obs.trace_overhead_ratio"] =
        slice_median_cost(tw.slices, &Window::Slice::ops) /
        slice_median_cost(host_slices, &Window::Slice::ops);
    v["obs.trace_dropped"] = static_cast<double>(tr.dropped());
  }

  if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
  }

  // Result: the metrics this mode reports, each with its unit.
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool firstm = true;
  const auto emit = [&](const std::string& name, const std::string& unit) {
    const double x = v.at(name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    out += std::string(firstm ? "" : ", ") + "\"" + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
    firstm = false;
  };
  if (args.trace == 0) {
    for (const auto& [n, u] : end_to_end_names()) emit(n, u);
  } else {
    for (const auto& [n, u] : per_layer_names()) emit(n, u);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                   "[--spans <path>] | --list\n",
                   argv[0]);
      return 2;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench: malformed argument\n");
    return 2;
  }
  if (args.list) {
    for (const Spec& s : specs()) std::printf("workload %s\n", s.name);
    for (const auto& [n, u] : end_to_end_names()) std::printf("end_to_end %s %s\n", n, u);
    for (const auto& [n, u] : per_layer_names()) {
      std::printf("per_layer %s %s\n", n.c_str(), u.c_str());
    }
    return 0;
  }
  amoeba::log::set_level(amoeba::log::Level::error);
  return run_main(args);
}
