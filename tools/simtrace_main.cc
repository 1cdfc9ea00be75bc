// simtrace: run a small directory-service scenario under the deterministic
// simulator and export the cluster's structured event trace as Chrome
// trace_event JSON (load it in chrome://tracing or https://ui.perfetto.dev).
//
//   simtrace [--flavor group|group_nvram|rpc|rpc_nvram|nfs]
//            [--seed N] [--ops N] [--out PATH] [--nemesis SCHEDULE]
//
// With --nemesis, the encoded fault schedule (see check/nemesis.h, e.g.
// "c1/800/500") runs while the workload loops, so the export shows fault
// bars on the victim's lane plus the phase-annotated availability counter
// tracks (timeline.ops_ok / ops_err / p99_ms) under the event lanes.
//
// The export is deterministic: same flavor + seed + ops + schedule =>
// byte-identical output (trace and counters hold only sim-time stamps
// and static strings).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/nemesis.h"
#include "dir/client.h"
#include "harness/workload.h"

namespace {

amoeba::harness::Flavor parse_flavor(const std::string& s) {
  using amoeba::harness::Flavor;
  if (s == "group") return Flavor::group;
  if (s == "group_nvram") return Flavor::group_nvram;
  if (s == "rpc") return Flavor::rpc;
  if (s == "rpc_nvram") return Flavor::rpc_nvram;
  if (s == "nfs") return Flavor::nfs;
  std::fprintf(stderr, "unknown flavor '%s'\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amoeba;

  harness::TestbedOptions opts;
  opts.clients = 1;
  opts.seed = 1;
  int ops = 5;
  std::string out_path = "simtrace.json";
  std::string nemesis;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--flavor" && i + 1 < argc) {
      opts.flavor = parse_flavor(argv[++i]);
    } else if (s == "--seed" && i + 1 < argc) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (s == "--ops" && i + 1 < argc) {
      ops = std::atoi(argv[++i]);
    } else if (s == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (s == "--nemesis" && i + 1 < argc) {
      nemesis = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--flavor group|group_nvram|rpc|rpc_nvram|nfs] "
                   "[--seed N] [--ops N] [--out PATH] [--nemesis SCHEDULE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<check::FaultStep> schedule;
  if (!nemesis.empty()) {
    Result<std::vector<check::FaultStep>> dec =
        check::decode_schedule(nemesis);
    if (!dec.is_ok()) {
      std::fprintf(stderr, "bad --nemesis schedule '%s'\n", nemesis.c_str());
      return 2;
    }
    schedule = std::move(*dec);
  }

  harness::Testbed bed(opts);
  if (!bed.wait_ready()) {
    std::fprintf(stderr, "service never became ready\n");
    return 1;
  }

  // Drive a few append-delete pairs and lookups so the trace shows the
  // full stack: client RPCs, group/intent traffic, NVRAM and disk I/O.
  // With --nemesis the loop keeps cycling (bounded key set) until the
  // schedule and its settle tail finish, so the counter tracks have
  // client completions across every fault phase.
  bool done = false;
  bool stop = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("simtrace", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    const auto dcap = harness::make_dir_retry(dc, bed.sim(), {"c"});
    if (!dcap.is_ok()) return;
    for (int i = 0; i < ops || (!schedule.empty() && !stop); ++i) {
      const std::string name = "e" + std::to_string(i % 8);
      (void)dc.append_row(*dcap, name, {});
      (void)dc.lookup(*dcap, name);
      (void)dc.delete_row(*dcap, name);
      if (!schedule.empty()) bed.sim().sleep_for(sim::msec(5));
    }
    done = true;
  });
  if (!schedule.empty()) {
    bed.sim().run_for(sim::msec(500));  // baseline before the first fault
    check::run_schedule(bed, schedule);
    bed.sim().run_for(sim::sec(2));  // post-heal tail: recovery marks land
    stop = true;
  }
  const sim::Time deadline = bed.sim().now() + sim::sec(120);
  while (!done && bed.sim().now() < deadline) bed.sim().run_for(sim::msec(200));
  if (!done) {
    std::fprintf(stderr, "workload did not finish\n");
    return 1;
  }
  bed.sim().run_for(sim::sec(2));  // drain lazy work into the trace

  const obs::Trace& trace = bed.trace();
  std::string json = trace.to_chrome_json();
  // Splice the availability counter tracks (one sample per timeline
  // window) and the per-peer health-score tracks (one sample per detector
  // evaluation) into the traceEvents array; fragments lead with ",\n".
  std::string counters;
  bed.timeline().chrome_counter_events(counters);
  bed.cluster().health().chrome_counter_events(counters);
  const std::size_t close = json.rfind("\n]");
  if (!counters.empty() && close != std::string::npos) {
    json.insert(close, counters);
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s: %zu events (%llu dropped), digest %016llx -> %s\n",
              harness::flavor_name(opts.flavor), trace.size(),
              static_cast<unsigned long long>(trace.dropped()),
              static_cast<unsigned long long>(trace.digest()),
              out_path.c_str());
  if (trace.dropped() != 0) {
    std::fprintf(stderr,
                 "WARNING: %llu trace events dropped (ring capacity %zu); "
                 "the export is missing the oldest events\n",
                 static_cast<unsigned long long>(trace.dropped()),
                 trace.capacity());
  }
  return 0;
}
