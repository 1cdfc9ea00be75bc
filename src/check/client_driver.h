// The one closed-loop directory client that simfuzz, simreport --slo and
// --health, and the health tests share. Every testbed client machine runs
// one workload client against a shared home directory:
//
//   setup    client 0 creates the home directory (up to 200 tries, port
//            cache flushed and 200 ms pause between them); the others
//            wait for it.
//   loop     draw a key ("k0".."k{keys-1}", uniform or Zipf), draw an op
//            from the cumulative mix table, run it, fail over if the
//            failover rule says so, then pause a random think time.
//
// Optional parts: vantage pinning (client c starts on replica c mod r, so
// the health detector has an observer on every replica), DIR-Net-style
// probers per vantage (PAPERS.md: De Florio, "The DIR Net"), and history
// recording for the linearizability checker. Lease caching follows the
// testbed's lease_caching option.
//
// Runs are seed-deterministic: each client draws key, op, then think time
// from the simulator's rng, and start() spawns the workload clients first,
// then the probers by client and prober index.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/history.h"
#include "harness/testbed.h"

namespace amoeba::check {

enum class DriverOp : std::uint8_t {
  append,   // append_row(home, key, {home})
  lookup,   // lookup(home, key)
  remove,   // delete_row(home, key)
  list,     // list_dir(home)
  scratch,  // create a directory, append/lookup/delete a client-private
            // row in it, delete it
};

/// One row of the cumulative op-mix table: a draw in [0, 100) runs the
/// first entry whose `upto` exceeds it.
struct MixEntry {
  DriverOp op;
  int upto;
};

/// When a workload client drops its cached server and locates afresh.
enum class Failover : std::uint8_t {
  any_failure,      // after every failed op: hunt for a live replica
  service_failure,  // only after dir::service_failure: a semantic negative
                    // keeps the client on its pinned vantage replica
};

struct DriverOptions {
  std::vector<MixEntry> mix;
  int keys = 8;
  /// > 0: harness::ZipfPicker with this exponent; 0: uniform pick.
  double zipf = 0.0;
  /// Think time between ops, uniform in [0, max_think).
  sim::Duration max_think = sim::msec(20);
  bool pin_vantage = false;
  /// Probers per vantage replica. Each re-pins its vantage before every
  /// probe (a lookup of "k0" every 50 ms), so a slow or refusing replica
  /// stays observed even after the workload client failed over.
  int probers_per_vantage = 0;
  Failover failover = Failover::any_failure;
  /// When set, every workload op (setup included) is recorded here.
  History* history = nullptr;
};

class ClientDriver {
 public:
  explicit ClientDriver(DriverOptions opts) : opts_(std::move(opts)) {}

  /// Spawn one workload client per testbed client machine, then the
  /// probers. Declare the driver before the testbed: its processes read
  /// the driver's state until the testbed unwinds them.
  void start(harness::Testbed& bed);
  void stop() { stop_ = true; }

  [[nodiscard]] bool setup_ok() const { return setup_ok_; }
  [[nodiscard]] const cap::Capability& home() const { return home_; }
  /// Every workload client has left its loop.
  [[nodiscard]] bool finished() const { return running_ == 0; }

  /// Directory calls completed by the workload clients (setup and scratch
  /// steps included; probers excluded), and the failed ones by code.
  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] const std::map<Errc, std::uint64_t>& failures() const {
    return failures_;
  }

 private:
  template <typename Client>
  void run_client(Client& cl, rpc::RpcClient& rpc, int c);
  template <typename Client>
  Status run_op(Client& cl, DriverOp op, const std::string& key, int c);
  void probe(int c);
  Status note(Status st);

  DriverOptions opts_;
  harness::Testbed* bed_ = nullptr;
  cap::Capability home_;
  bool setup_ok_ = false;
  bool stop_ = false;
  int running_ = 0;
  std::uint64_t ops_ = 0;
  std::map<Errc, std::uint64_t> failures_;
};

}  // namespace amoeba::check
