// Randomized consistency testing of the group directory service under a
// storm of crashes, restarts and short partitions.
//
// Invariants checked after the dust settles:
//   1. Replica agreement: every directory server holds semantically
//      identical state (same objects, secrets, per-directory seqnos and
//      rows) — one-copy equivalence of active replication.
//   2. Client-model agreement: for every (directory, row) whose whole
//      history of operations was acknowledged, presence/absence matches
//      the client's model. (Keys touched by failed/ambiguous operations
//      are excluded: the service is explicitly not failure-free for
//      clients, paper Sec. 2.)
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>

#include "check/simfuzz.h"
#include "dir/client.h"
#include "harness/testbed.h"

namespace amoeba::harness {
namespace {

// Each instance is named after its fields (name generator and PrintTo
// below), never after the parameter's raw bytes: those include padding, so
// a byte-derived test name could change between builds.
struct ChaosParams {
  std::uint64_t seed;
  int rounds;
  bool use_nvram;
  bool with_partitions;
};

std::string label(const ChaosParams& p) {
  return "seed" + std::to_string(p.seed) + "_rounds" +
         std::to_string(p.rounds) + "_nvram" + std::to_string(p.use_nvram) +
         "_partitions" + std::to_string(p.with_partitions);
}
void PrintTo(const ChaosParams& p, std::ostream* os) { *os << label(p); }

class ChaosSweep : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosSweep, ReplicasConvergeAndAckedOpsHold) {
  const ChaosParams p = GetParam();
  Testbed bed({.flavor = p.use_nvram ? Flavor::group_nvram : Flavor::group,
               .clients = 2,
               .seed = p.seed});
  ASSERT_TRUE(bed.wait_ready());
  sim::Simulator& sim = bed.sim();
  Prng chaos(p.seed * 977 + 1);

  // Client-side model: key -> expected-present, plus a "certain" flag that
  // clears when any op on the key fails (its outcome is then ambiguous).
  struct Key {
    bool present = false;
    bool certain = true;
  };
  std::map<std::string, Key> model;
  cap::Capability home;
  bool setup_ok = false;
  bool stop = false;
  int acked = 0, failed = 0;

  net::Machine& cm = bed.client(0);
  cm.spawn("chaos-client", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < 100 && !setup_ok; ++i) {
      auto res = dc.create_dir({"c"});
      if (res.is_ok()) {
        home = *res;
        setup_ok = true;
      } else {
        sim.sleep_for(sim::msec(200));
        rpc.flush_port_cache(bed.dir_port());
      }
    }
    cap::Capability v;
    v.object = 1;
    while (!stop) {
      const std::string name = "k" + std::to_string(sim.rng().below(12));
      Key& k = model[name];
      Status st;
      if (k.present) {
        st = dc.delete_row(home, name);
        if (st.is_ok() || st.code() == Errc::not_found) {
          // not_found can only mean an earlier ambiguous op landed.
          k.present = false;
          if (st.code() == Errc::not_found && k.certain) k.certain = false;
          acked++;
        } else {
          k.certain = false;
          failed++;
          rpc.flush_port_cache(bed.dir_port());
        }
      } else {
        st = dc.append_row(home, name, {v});
        if (st.is_ok() || st.code() == Errc::exists) {
          k.present = true;
          if (st.code() == Errc::exists && k.certain) k.certain = false;
          acked++;
        } else {
          k.certain = false;
          failed++;
          rpc.flush_port_cache(bed.dir_port());
        }
      }
      sim.sleep_for(static_cast<sim::Duration>(sim.rng().below(40000)));
    }
  });
  sim.run_for(sim::sec(12));
  ASSERT_TRUE(setup_ok);

  // The storm: crash/restart one replica at a time; optional short
  // partitions. A majority is always left standing.
  for (int round = 0; round < p.rounds; ++round) {
    const int victim = static_cast<int>(chaos.below(3));
    if (p.with_partitions && chaos.below(3) == 0) {
      std::vector<net::MachineId> big, small;
      for (int i = 0; i < 3; ++i) {
        auto& side = (i == victim) ? small : big;
        side.push_back(bed.dir_server(i).id());
        side.push_back(bed.storage(i).id());
      }
      big.push_back(bed.client(0).id());
      big.push_back(bed.client(1).id());
      bed.cluster().partition({big, small});
      sim.run_for(sim::msec(800 + chaos.below(1200)));
      bed.cluster().heal();
    } else {
      bed.cluster().crash(bed.dir_server(victim).id());
      sim.run_for(sim::msec(500 + chaos.below(2000)));
      bed.cluster().restart(bed.dir_server(victim).id());
    }
    sim.run_for(sim::msec(500 + chaos.below(1500)));
  }

  // Let everything recover, stop the client, drain.
  sim.run_for(sim::sec(10));
  stop = true;
  sim.run_for(sim::sec(5));
  for (int i = 0; i < 3; ++i) {
    if (!bed.dir_server(i).up()) bed.cluster().restart(bed.dir_server(i).id());
  }
  const sim::Time deadline = sim.now() + sim::sec(60);
  while (sim.now() < deadline && bed.any_recovering()) {
    sim.run_for(sim::msec(200));
  }
  EXPECT_GT(acked, 20) << "chaos too aggressive: almost nothing committed";

  // Invariant 1: replica agreement.
  std::vector<check::ReplicaState> states(3);
  bool fetched = false;
  bed.client(1).spawn("verify", [&] {
    rpc::RpcClient rpc(bed.client(1));
    for (int i = 0; i < 3; ++i) {
      auto snap = check::fetch_snapshot(bed, rpc, i);
      ASSERT_TRUE(snap.is_ok()) << "server " << i;
      auto res = check::ReplicaState::from_snapshot(*snap, bed.dir_port());
      ASSERT_TRUE(res.is_ok()) << res.status().to_string();
      states[static_cast<std::size_t>(i)] = *res;
    }
    fetched = true;
  });
  sim.run_for(sim::sec(10));
  ASSERT_TRUE(fetched);
  EXPECT_TRUE(states[0] == states[1]) << "replicas 0 and 1 diverged";
  EXPECT_TRUE(states[0] == states[2]) << "replicas 0 and 2 diverged";

  // Invariant 2: client-model agreement for unambiguous keys.
  bool checked = false;
  int certain_keys = 0;
  bed.client(0).spawn("model-check", [&] {
    rpc::RpcClient rpc(bed.client(0));
    dir::DirClient dc(rpc, bed.dir_port());
    for (const auto& [name, key] : model) {
      if (!key.certain) continue;
      certain_keys++;
      Result<cap::Capability> res{Status::ok()};
      for (int t = 0; t < 30; ++t) {
        res = dc.lookup(home, name);
        if (res.is_ok() || res.code() == Errc::not_found) break;
        sim.sleep_for(sim::msec(200));
        rpc.flush_port_cache(bed.dir_port());
      }
      if (key.present) {
        EXPECT_TRUE(res.is_ok())
            << "acked append of '" << name << "' lost: "
            << res.status().to_string();
      } else {
        EXPECT_EQ(res.code(), Errc::not_found)
            << "acked delete of '" << name << "' undone";
      }
    }
    checked = true;
  });
  sim.run_for(sim::sec(30));
  EXPECT_TRUE(checked);
}

INSTANTIATE_TEST_SUITE_P(
    Storm, ChaosSweep,
    ::testing::Values(ChaosParams{101, 4, false, false},
                      ChaosParams{102, 6, false, false},
                      ChaosParams{103, 4, false, true},
                      ChaosParams{104, 6, false, true},
                      ChaosParams{105, 4, true, false},
                      ChaosParams{106, 6, true, true},
                      ChaosParams{107, 8, false, true},
                      ChaosParams{108, 8, true, true}),
    [](const auto& info) { return label(info.param); });

// ------------------------------------------------- RPC crash-only storms

struct RpcChaosParams {
  std::uint64_t seed;
  int rounds;
  bool use_nvram;
};

std::string label(const RpcChaosParams& p) {
  return "seed" + std::to_string(p.seed) + "_rounds" +
         std::to_string(p.rounds) + "_nvram" + std::to_string(p.use_nvram);
}
void PrintTo(const RpcChaosParams& p, std::ostream* os) { *os << label(p); }

class RpcChaosSweep : public ::testing::TestWithParam<RpcChaosParams> {};

/// The RPC service's supported fault model is crashes (not partitions).
/// Under a crash/restart storm the two replicas must re-converge via
/// intentions replay + resync, and every key whose history was fully
/// acknowledged must match the client's model.
TEST_P(RpcChaosSweep, CrashStormConvergesViaResync) {
  const RpcChaosParams p = GetParam();
  Testbed bed({.flavor = p.use_nvram ? Flavor::rpc_nvram : Flavor::rpc,
               .clients = 1,
               .seed = p.seed});
  ASSERT_TRUE(bed.wait_ready());
  sim::Simulator& sim = bed.sim();
  Prng chaos(p.seed * 31 + 7);

  struct Key {
    bool present = false;
    bool certain = true;
  };
  std::map<std::string, Key> model;
  cap::Capability home;
  bool setup_ok = false, stop = false;
  int acked = 0;

  net::Machine& cm = bed.client(0);
  cm.spawn("client", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < 100 && !setup_ok; ++i) {
      auto res = dc.create_dir({"c"});
      if (res.is_ok()) {
        home = *res;
        setup_ok = true;
      } else {
        sim.sleep_for(sim::msec(200));
        rpc.flush_port_cache(bed.dir_port());
      }
    }
    while (!stop) {
      const std::string name = "k" + std::to_string(sim.rng().below(8));
      Key& k = model[name];
      Status st = k.present ? dc.delete_row(home, name)
                            : dc.append_row(home, name, {});
      if (st.is_ok()) {
        k.present = !k.present;
        acked++;
      } else if (st.code() == Errc::exists || st.code() == Errc::not_found) {
        k.present = !k.present;
        k.certain = false;
      } else {
        k.certain = false;
        rpc.flush_port_cache(bed.dir_port());
      }
      sim.sleep_for(static_cast<sim::Duration>(sim.rng().below(60000)));
    }
  });
  sim.run_for(sim::sec(8));
  ASSERT_TRUE(setup_ok);

  for (int round = 0; round < p.rounds; ++round) {
    const int victim = static_cast<int>(chaos.below(2));
    bed.cluster().crash(bed.dir_server(victim).id());
    sim.run_for(sim::msec(500 + chaos.below(1500)));
    bed.cluster().restart(bed.dir_server(victim).id());
    sim.run_for(sim::msec(800 + chaos.below(1500)));
  }
  sim.run_for(sim::sec(5));
  stop = true;
  sim.run_for(sim::sec(8));  // final resync + flushes
  EXPECT_GT(acked, 10);

  // Every unambiguous key must read back per the model, from either server
  // (checked one server at a time by crashing the other).
  for (int only = 0; only < 2; ++only) {
    bed.cluster().crash(bed.dir_server(1 - only).id());
    sim.run_for(sim::msec(300));
    bool checked = false;
    cm.spawn("verify" + std::to_string(only), [&] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      for (const auto& [name, key] : model) {
        if (!key.certain) continue;
        Result<dir::Directory> listing{Status::ok()};
        for (int t = 0; t < 30; ++t) {
          listing = dc.list_dir(home);
          if (listing.is_ok()) break;
          sim.sleep_for(sim::msec(200));
          rpc.flush_port_cache(bed.dir_port());
        }
        ASSERT_TRUE(listing.is_ok());
        EXPECT_EQ(listing->has(name), key.present)
            << "server " << only << " disagrees on '" << name << "'";
      }
      checked = true;
    });
    sim.run_for(sim::sec(20));
    EXPECT_TRUE(checked);
    bed.cluster().restart(bed.dir_server(1 - only).id());
    sim.run_for(sim::sec(3));
  }
}

INSTANTIATE_TEST_SUITE_P(Storm, RpcChaosSweep,
                         ::testing::Values(RpcChaosParams{201, 3, false},
                                           RpcChaosParams{202, 5, false},
                                           RpcChaosParams{203, 3, true},
                                           RpcChaosParams{204, 5, true},
                                           RpcChaosParams{205, 7, false},
                                           RpcChaosParams{206, 7, true}),
                         [](const auto& info) { return label(info.param); });

}  // namespace
}  // namespace amoeba::harness
