#include "check/client_driver.h"

#include <algorithm>
#include <string>

#include "dir/client.h"
#include "harness/workload.h"

namespace amoeba::check {

void ClientDriver::start(harness::Testbed& bed) {
  bed_ = &bed;
  running_ = bed.num_clients();
  for (int c = 0; c < bed.num_clients(); ++c) {
    bed.client(c).spawn("client" + std::to_string(c), [this, c] {
      harness::Testbed& bed = *bed_;
      rpc::RpcClient rpc(bed.client(c));
      if (opts_.pin_vantage) {
        // Locate broadcasts tend to elect one fastest first-responder for
        // every client; spreading the clients gives the differential
        // health detector an opinion about each replica.
        rpc.prefer_server(bed.dir_port(),
                          bed.dir_server(c % bed.num_dir_servers()).id());
      }
      dir::DirClient dc(rpc, bed.dir_port());
      if (bed.options().lease_caching) dc.enable_leases();
      if (opts_.history != nullptr) {
        RecordingDirClient rec(dc, *opts_.history, c);
        run_client(rec, rpc, c);
      } else {
        run_client(dc, rpc, c);
      }
      --running_;
    });
  }
  for (int c = 0; c < bed.num_clients(); ++c) {
    for (int pr = 0; pr < opts_.probers_per_vantage; ++pr) {
      bed.client(c).spawn(
          "probe" + std::to_string(c) + "_" + std::to_string(pr),
          [this, c] { probe(c); });
    }
  }
}

Status ClientDriver::note(Status st) {
  ++ops_;
  if (!st.is_ok()) ++failures_[st.code()];
  return st;
}

template <typename Client>
void ClientDriver::run_client(Client& cl, rpc::RpcClient& rpc, int c) {
  const net::Port port = bed_->dir_port();
  sim::Simulator& sim = bed_->sim();
  auto& rng = sim.rng();
  const int keys = std::max(1, opts_.keys);
  const harness::ZipfPicker zipf(keys, opts_.zipf);

  if (c == 0) {
    for (int i = 0; i < 200 && !setup_ok_ && !stop_; ++i) {
      auto res = cl.create_dir({"c"});
      note(res.status());
      if (res.is_ok()) {
        home_ = *res;
        setup_ok_ = true;
        break;
      }
      rpc.flush_port_cache(port);
      sim.sleep_for(sim::msec(200));
    }
  } else {
    while (!setup_ok_ && !stop_) sim.sleep_for(sim::msec(50));
  }

  while (!stop_ && setup_ok_) {
    // Rows always carry exactly one capability column: DirClient::lookup
    // reports a present-but-empty row as not_found, which would look like
    // a false absence to the checker.
    const std::string key =
        "k" + std::to_string(opts_.zipf > 0
                                 ? zipf.pick(rng)
                                 : static_cast<int>(rng.below(
                                       static_cast<std::uint64_t>(keys))));
    const std::uint64_t pick = rng.below(100);
    DriverOp op = opts_.mix.back().op;
    for (const MixEntry& e : opts_.mix) {
      if (pick < static_cast<std::uint64_t>(e.upto)) {
        op = e.op;
        break;
      }
    }
    const Status st = run_op(cl, op, key, c);
    if (opts_.failover == Failover::any_failure ? !st.is_ok()
                                                : dir::service_failure(st)) {
      rpc.flush_port_cache(port);
    }
    sim.sleep_for(static_cast<sim::Duration>(
        rng.below(static_cast<std::uint64_t>(opts_.max_think))));
  }
}

template <typename Client>
Status ClientDriver::run_op(Client& cl, DriverOp op, const std::string& key,
                            int c) {
  switch (op) {
    case DriverOp::append: return note(cl.append_row(home_, key, {home_}));
    case DriverOp::lookup: return note(cl.lookup(home_, key).status());
    case DriverOp::remove: return note(cl.delete_row(home_, key));
    case DriverOp::list: return note(cl.list_dir(home_).status());
    case DriverOp::scratch: break;
  }
  // Rows are deleted before the directory so a later reuse of the object
  // number cannot orphan a "present" register. Only the create decides
  // the op's outcome.
  auto cd = cl.create_dir({"c"});
  if (!note(cd.status()).is_ok()) return cd.status();
  const std::string nm = "s" + std::to_string(c);
  note(cl.append_row(*cd, nm, {home_}));
  note(cl.lookup(*cd, nm).status());
  note(cl.delete_row(*cd, nm));
  note(cl.delete_dir(*cd));
  return Status::ok();
}

void ClientDriver::probe(int c) {
  harness::Testbed& bed = *bed_;
  sim::Simulator& sim = bed.sim();
  rpc::RpcClient prpc(bed.client(c));
  dir::DirClient pdc(prpc, bed.dir_port());
  const net::MachineId vantage =
      bed.dir_server(c % bed.num_dir_servers()).id();
  while (!setup_ok_ && !stop_) sim.sleep_for(sim::msec(50));
  while (!stop_) {
    // Re-pinning before every probe undoes trans()'s silent NOTHERE
    // failover, so a saturated replica keeps producing refusals and a
    // slow one keeps producing inflated round trips. A separate RpcClient:
    // a prober must not share a reply mailbox with the workload client.
    prpc.flush_port_cache(bed.dir_port());
    prpc.prefer_server(bed.dir_port(), vantage);
    (void)pdc.lookup(home_, "k0");
    sim.sleep_for(sim::msec(50));
  }
}

}  // namespace amoeba::check
