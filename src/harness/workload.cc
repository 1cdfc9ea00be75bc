#include "harness/workload.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "bullet/bullet.h"
#include "common/log.h"
#include "dir/client.h"

namespace amoeba::harness {

namespace {

cap::Capability dummy_cap(std::uint64_t n) {
  cap::Capability c;
  c.port = net::Port{0xf11e};
  c.object = static_cast<std::uint32_t>(n & 0xffffff);
  c.rights = cap::kRightsAll;
  c.check = mix64(n);
  return c;
}

/// Client i's operation in a closed-loop run: one op (or pair) against the
/// service; true when it succeeded.
using ClientOp = std::function<bool(dir::DirClient&)>;

/// The closed loop behind Figs. 8 and 9: every client runs its op back to
/// back. After `warmup`, ops completing inside `window` are counted and
/// timed, and the window's counter delta is kept, so warmup traffic (and
/// boot/setup) is subtracted out of every reported count.
ThroughputResult closed_loop(Testbed& bed, sim::Duration warmup,
                             sim::Duration window,
                             const std::function<ClientOp(int)>& make_op) {
  ThroughputResult out;
  sim::Simulator& sim = bed.sim();
  bool measuring = false;
  std::uint64_t completed = 0, failed = 0;
  for (int i = 0; i < bed.num_clients(); ++i) {
    net::Machine& cm = bed.client(i);
    cm.spawn("load", [&, op = make_op(i)] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      while (true) {
        const sim::Time t0 = sim.now();
        const bool ok = op(dc);
        if (measuring) {
          if (ok) {
            ++completed;
            out.op_ms.push_back(sim::to_ms(sim.now() - t0));
          } else {
            ++failed;
          }
        }
      }
    });
  }
  sim.run_for(warmup);
  const obs::Metrics::Snapshot before = bed.metrics().snapshot();
  measuring = true;
  sim.run_for(window);
  measuring = false;
  out.window_counters = obs::Metrics::delta(bed.metrics().snapshot(), before);

  out.completed = completed;
  out.failed = failed;
  out.ops_per_sec =
      static_cast<double>(completed) / (static_cast<double>(window) / 1e6);
  out.ok = completed > 0;
  return out;
}

/// Each client creates a private directory (updates to distinct
/// directories, still serialized by the service as in the paper). Empty
/// unless every client got one.
std::vector<cap::Capability> private_dirs(Testbed& bed) {
  sim::Simulator& sim = bed.sim();
  std::vector<cap::Capability> caps(
      static_cast<std::size_t>(bed.num_clients()));
  int ready = 0;
  for (int i = 0; i < bed.num_clients(); ++i) {
    net::Machine& cm = bed.client(i);
    cm.spawn("setup", [&, i] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      auto cap = make_dir_retry(dc, sim);
      if (!cap.is_ok()) return;
      caps[static_cast<std::size_t>(i)] = *cap;
      ++ready;
    });
  }
  sim.run_for(sim::sec(20));
  if (ready != bed.num_clients()) caps.clear();
  return caps;
}

}  // namespace

Result<cap::Capability> make_dir_retry(dir::DirClient& dc,
                                       sim::Simulator& sim,
                                       const std::vector<std::string>& columns,
                                       int tries) {
  for (int i = 0; i < tries; ++i) {
    auto res = dc.create_dir(columns);
    if (res.is_ok()) return res;
    sim.sleep_for(sim::msec(100));
  }
  return Status::error(Errc::unreachable, "service never became ready");
}

LatencyResult measure_latencies(Testbed& bed, int warmup, int iters) {
  LatencyResult out;
  sim::Simulator& sim = bed.sim();
  net::Machine& cm = bed.client(0);
  bool done = false;

  // Each phase runs its warmup iterations first, snapshots the cluster
  // counters, then runs the measured iterations — so warmup traffic is
  // excluded from both the latency samples and the counter deltas.
  const auto phase = [&](std::vector<double>& samples, const auto& iter) {
    for (int i = 0; i < warmup; ++i) iter();
    samples.clear();
    const obs::Metrics::Snapshot before = bed.metrics().snapshot();
    for (int i = 0; i < iters; ++i) iter();
    const obs::Metrics::Snapshot d =
        obs::Metrics::delta(bed.metrics().snapshot(), before);
    for (const auto& [key, value] : d) out.window_counters[key] += value;
  };

  cm.spawn("fig7", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    bullet::BulletClient fc(rpc, bed.file_port());

    auto dir_cap = make_dir_retry(dc, sim);
    if (!dir_cap.is_ok()) return;

    // --- append-delete -----------------------------------------------
    std::vector<double>& ad = out.append_delete_samples;
    const auto ad_iter = [&] {
      sim::Time t0 = sim.now();
      Status a = dc.append_row(*dir_cap, "tmpname", {dummy_cap(1)});
      Status d = dc.delete_row(*dir_cap, "tmpname");
      if (!a.is_ok() || !d.is_ok()) {
        LOG_WARN << "append-delete failed: " << a.to_string() << " / "
                 << d.to_string();
        return;
      }
      ad.push_back(sim::to_ms(sim.now() - t0));
    };
    phase(ad, ad_iter);

    // --- tmp file -----------------------------------------------------
    std::vector<double>& tf = out.tmp_file_samples;
    const auto tf_iter = [&] {
      sim::Time t0 = sim.now();
      auto file = fc.create(to_buffer("4byt"));
      if (!file.is_ok()) return;
      Status reg = dc.append_row(*dir_cap, "tmpfile", {*file});
      auto found = dc.lookup(*dir_cap, "tmpfile");
      Result<Buffer> data = found.is_ok()
                                ? fc.read(*found)
                                : Result<Buffer>(found.status());
      Status del = dc.delete_row(*dir_cap, "tmpfile");
      (void)fc.del(*file);
      if (reg.is_ok() && data.is_ok() && del.is_ok()) {
        tf.push_back(sim::to_ms(sim.now() - t0));
      }
    };
    phase(tf, tf_iter);

    // --- lookup ---------------------------------------------------------
    (void)dc.append_row(*dir_cap, "fixture", {dummy_cap(2)});
    std::vector<double>& lk = out.lookup_samples;
    const auto lk_iter = [&] {
      sim::Time t0 = sim.now();
      auto res = dc.lookup(*dir_cap, "fixture");
      if (res.is_ok()) lk.push_back(sim::to_ms(sim.now() - t0));
    };
    phase(lk, lk_iter);

    out.append_delete_ms = summarize(ad).mean;
    out.tmp_file_ms = summarize(tf).mean;
    out.lookup_ms = summarize(lk).mean;
    out.ok = !ad.empty() && !tf.empty() && !lk.empty();
    done = true;
  });

  const sim::Time deadline = sim.now() + sim::sec(300);
  while (!done && sim.now() < deadline) sim.run_for(sim::msec(500));
  return out;
}

ThroughputResult lookup_throughput(Testbed& bed, sim::Duration warmup,
                                   sim::Duration window) {
  sim::Simulator& sim = bed.sim();

  // One shared directory with a warm row; all clients look it up, as in the
  // paper's read benchmark.
  cap::Capability shared{};
  bool ready = false;
  bed.client(0).spawn("setup", [&] {
    rpc::RpcClient rpc(bed.client(0));
    dir::DirClient dc(rpc, bed.dir_port());
    auto cap = make_dir_retry(dc, sim);
    if (!cap.is_ok()) return;
    if (!dc.append_row(*cap, "entry", {dummy_cap(3)}).is_ok()) return;
    shared = *cap;
    ready = true;
  });
  sim.run_for(sim::sec(15));
  if (!ready) return {};

  return closed_loop(bed, warmup, window, [&](int) -> ClientOp {
    return [&](dir::DirClient& dc) {
      return dc.lookup(shared, "entry").is_ok();
    };
  });
}

ThroughputResult update_throughput(Testbed& bed, sim::Duration warmup,
                                   sim::Duration window) {
  const std::vector<cap::Capability> caps = private_dirs(bed);
  if (caps.empty()) return {};
  return closed_loop(bed, warmup, window, [&](int i) -> ClientOp {
    return [mycap = caps[static_cast<std::size_t>(i)],
            name = "t" + std::to_string(i)](dir::DirClient& dc) {
      Status a = dc.append_row(mycap, name, {dummy_cap(9)});
      Status d = dc.delete_row(mycap, name);
      return a.is_ok() && d.is_ok();  // one append-delete pair
    };
  });
}

ThroughputResult append_throughput(Testbed& bed, sim::Duration warmup,
                                   sim::Duration window) {
  const std::vector<cap::Capability> caps = private_dirs(bed);
  if (caps.empty()) return {};
  return closed_loop(bed, warmup, window, [&](int i) -> ClientOp {
    return [mycap = caps[static_cast<std::size_t>(i)], i,
            k = std::uint64_t{0}](dir::DirClient& dc) mutable {
      Status a = dc.append_row(
          mycap, "u" + std::to_string(i) + "." + std::to_string(k++),
          {dummy_cap(k)});
      return a.is_ok();
    };
  });
}

}  // namespace amoeba::harness
