// Fault-injection tests of the group directory service: crashes, majority
// loss, partitions, the Fig. 6 recovery protocol (Skeen's last-to-fail),
// the Sec. 3.2 improved rule, the recovering flag, the deleted-directory
// commit-block case, and the RPC service's partition weakness.
#include <gtest/gtest.h>

#include "bullet/bullet.h"
#include "check/simfuzz.h"
#include "dir/client.h"
#include "dir/group_server.h"
#include "dir/rpc_server.h"
#include "dir/types.h"
#include "disk/vdisk.h"
#include "harness/workload.h"
#include "harness/testbed.h"
#include "common/log.h"
#include <cstdlib>

namespace amoeba::harness {
namespace {

using dir::DirClient;

// AMOEBA_LOG=info ./fault_tolerance_test ... enables protocol logging.
const struct LogEnv {
  LogEnv() {
    if (const char* lvl = std::getenv("AMOEBA_LOG")) {
      log::set_level(std::string(lvl) == "debug" ? log::Level::debug
                                                 : log::Level::info);
    }
  }
} g_log_env;

struct Driver {
  Testbed& bed;
  net::Machine& cm;
  std::unique_ptr<rpc::RpcClient> rpc;
  std::unique_ptr<DirClient> dc;

  explicit Driver(Testbed& b, int client = 0)
      : bed(b), cm(b.client(client)) {}

  /// Run one step of client logic as a process; returns when it completes.
  void step(const std::function<void()>& fn,
            sim::Duration limit = sim::sec(120)) {
    bool done = false;
    cm.spawn("step", [&] {
      if (!rpc) {
        rpc = std::make_unique<rpc::RpcClient>(cm);
        dc = std::make_unique<DirClient>(*rpc, bed.dir_port());
      }
      fn();
      done = true;
    });
    const sim::Time deadline = bed.sim().now() + limit;
    while (!done && bed.sim().now() < deadline) bed.sim().run_for(sim::msec(50));
    ASSERT_TRUE(done) << "client step stuck";
  }

  Result<cap::Capability> create_retry(int tries = 80) {
    for (int i = 0; i < tries; ++i) {
      auto res = dc->create_dir({"c"});
      if (res.is_ok()) return res;
      bed.sim().sleep_for(sim::msec(150));
      rpc->flush_port_cache(bed.dir_port());
    }
    return Status::error(Errc::unreachable, "create failed");
  }

  Status append_retry(const cap::Capability& d, const std::string& name,
                      int tries = 80) {
    cap::Capability v;
    v.object = 7;
    for (int i = 0; i < tries; ++i) {
      Status st = dc->append_row(d, name, {v});
      if (st.is_ok() || st.code() == Errc::exists) return Status::ok();
      bed.sim().sleep_for(sim::msec(150));
      rpc->flush_port_cache(bed.dir_port());
    }
    return Status::error(Errc::unreachable, "append failed");
  }

  Result<cap::Capability> lookup_retry(const cap::Capability& d,
                                       const std::string& name,
                                       int tries = 80) {
    Result<cap::Capability> last{Status::error(Errc::internal, "unset")};
    for (int i = 0; i < tries; ++i) {
      last = dc->lookup(d, name);
      if (last.is_ok() || last.code() == Errc::not_found ||
          last.code() == Errc::bad_capability) {
        return last;
      }
      bed.sim().sleep_for(sim::msec(150));
      rpc->flush_port_cache(bed.dir_port());
    }
    return last;
  }
};

/// Crash every directory server at once and restart them together: server
/// 0 then re-creates the group from its own disk and the others fetch
/// their state from it.
void total_restart(Testbed& bed) {
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    bed.cluster().crash(bed.dir_server(i).id());
  }
  bed.sim().run_for(sim::msec(300));
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    bed.cluster().restart(bed.dir_server(i).id());
  }
}

/// Bullet files held by directory server `i`'s storage machine.
std::size_t bullet_files(Testbed& bed, int i) {
  return bed.storage(i)
      .persistent<bullet::BulletStore>(
          "bullet.store", [] { return std::make_unique<bullet::BulletStore>(); })
      .files.size();
}

/// Every replica's state, fetched over the admin ports.
std::vector<check::ReplicaState> replica_states(Driver& d) {
  std::vector<check::ReplicaState> out;
  d.step([&] {
    for (int i = 0; i < d.bed.num_dir_servers(); ++i) {
      auto snap = check::fetch_snapshot(d.bed, *d.rpc, i);
      ASSERT_TRUE(snap.is_ok()) << "server " << i;
      auto st = check::ReplicaState::from_snapshot(*snap, d.bed.dir_port());
      ASSERT_TRUE(st.is_ok());
      out.push_back(*st);
    }
  });
  return out;
}

bool has_row(const check::ReplicaState& st, std::uint32_t obj,
             const std::string& name) {
  auto it = st.objs.find(obj);
  if (it == st.objs.end()) return false;
  return std::any_of(it->second.rows.begin(), it->second.rows.end(),
                     [&](const auto& row) { return row.first == name; });
}

bool group_ready(Testbed& bed, std::initializer_list<int> servers) {
  for (int i : servers) {
    if (!bed.dir_server(i).up()) return false;
    if (dir::group_dir_stats(bed.dir_server(i)).in_recovery) return false;
  }
  return true;
}

void run_until_ready(Testbed& bed, std::initializer_list<int> servers,
                     sim::Duration limit = sim::sec(60)) {
  const sim::Time deadline = bed.sim().now() + limit;
  // Let freshly restarted service mains reset their stats before polling.
  bed.sim().run_for(sim::msec(10));
  while (bed.sim().now() < deadline) {
    if (group_ready(bed, servers)) return;
    bed.sim().run_for(sim::msec(100));
  }
}

TEST(GroupFault, SurvivesOneServerCrash) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 11});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "before").is_ok());
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));  // failure detection + group reset

  d.step([&] {
    // Updates and reads still work on the surviving majority.
    ASSERT_TRUE(d.append_retry(dcap, "after").is_ok());
    auto r1 = d.lookup_retry(dcap, "before");
    auto r2 = d.lookup_retry(dcap, "after");
    EXPECT_TRUE(r1.is_ok()) << r1.status().to_string();
    EXPECT_TRUE(r2.is_ok()) << r2.status().to_string();
  });
}

TEST(GroupFault, RefusesAllOpsWithoutMajority) {
  // Even reads are refused without a majority (Sec. 3.1's deleted-foo
  // argument).
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 12});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "x").is_ok());
  });

  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(2));

  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto read = d.dc->lookup(dcap, "x");
    EXPECT_FALSE(read.is_ok());
    cap::Capability v;
    Status write = d.dc->append_row(dcap, "y", {v});
    EXPECT_FALSE(write.is_ok());
  });
}

TEST(GroupFault, PartitionedMinorityRefusesMajorityServes) {
  Testbed bed({.flavor = Flavor::group, .clients = 2, .seed = 13});
  ASSERT_TRUE(bed.wait_ready());
  Driver maj(bed, 0);  // stays with the majority side
  Driver min(bed, 1);  // stuck with the minority server
  cap::Capability dcap;
  maj.step([&] {
    auto res = maj.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(maj.append_retry(dcap, "foo").is_ok());
  });

  // dir2 + its storage + client1 on one side; everyone else on the other.
  bed.cluster().partition({{bed.dir_server(0).id(), bed.dir_server(1).id(),
                            bed.storage(0).id(), bed.storage(1).id(),
                            bed.client(0).id()},
                           {bed.dir_server(2).id(), bed.storage(2).id(),
                            bed.client(1).id()}});
  bed.sim().run_for(sim::sec(2));

  // Majority side: delete foo (the paper's scenario).
  maj.step([&] {
    maj.rpc->flush_port_cache(bed.dir_port());
    Status st;
    for (int i = 0; i < 40; ++i) {
      st = maj.dc->delete_row(dcap, "foo");
      if (st.is_ok()) break;
      bed.sim().sleep_for(sim::msec(200));
      maj.rpc->flush_port_cache(bed.dir_port());
    }
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  });

  // Minority side must refuse the read rather than return deleted state.
  min.step([&] {
    min.rpc->flush_port_cache(bed.dir_port());
    auto res = min.dc->lookup(dcap, "foo");
    EXPECT_FALSE(res.is_ok());
    EXPECT_NE(res.code(), Errc::not_found)
        << "minority server returned (stale-consistent) data";
  });

  // Heal: the minority server recovers and sees the deletion.
  bed.cluster().heal();
  run_until_ready(bed, {0, 1, 2});
  min.step([&] {
    min.rpc->flush_port_cache(bed.dir_port());
    auto res = min.lookup_retry(dcap, "foo");
    EXPECT_EQ(res.code(), Errc::not_found);
  });
}

TEST(GroupFault, RedundantNetworksMaskAPartition) {
  // Paper Sec. 2: with redundant networks a partition of one segment is
  // invisible — no recovery, no refusals, service untouched.
  Testbed bed({.flavor = Flavor::group,
               .clients = 1,
               .seed = 28,
               .network_segments = 2});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  const std::uint64_t recoveries_before =
      dir::group_dir_stats(bed.dir_server(2)).recoveries;
  // Segment 0 splits dir2 away; segment 1 still connects everyone.
  bed.cluster().partition({{bed.dir_server(0).id(), bed.dir_server(1).id(),
                            bed.storage(0).id(), bed.storage(1).id(),
                            bed.client(0).id()},
                           {bed.dir_server(2).id(), bed.storage(2).id()}},
                          /*segment=*/0);
  bed.sim().run_for(sim::sec(2));
  d.step([&] {
    ASSERT_TRUE(d.append_retry(dcap, "unfazed").is_ok());
    auto res = d.lookup_retry(dcap, "unfazed");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
  EXPECT_EQ(dir::group_dir_stats(bed.dir_server(2)).recoveries,
            recoveries_before)
      << "a masked partition must not trigger recovery";
  EXPECT_FALSE(dir::group_dir_stats(bed.dir_server(2)).in_recovery);
}

TEST(GroupFault, CrashedServerRecoversWithStateTransfer) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 14});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "while-down").is_ok()); });

  bed.cluster().restart(bed.dir_server(2).id());
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));

  // Force reads through the recovered server by crashing another one.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "while-down");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, LastToFailGatesTotalRecovery) {
  // The paper's Sec. 3.2 walk-through: 3 crashes; {0,1} rebuild; an update
  // happens; both crash. Server 0 alone cannot recover; 0+2 cannot either
  // (2 missed the update era); only when 1 — a member of the last
  // configuration — returns may the service resume.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 15});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "late-update").is_ok()); });

  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::msec(500));

  // Server 0 returns alone: no majority, no service.
  bed.cluster().restart(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(4));
  EXPECT_TRUE(dir::group_dir_stats(bed.dir_server(0)).in_recovery);

  // Server 2 returns: {0,2} is a majority but NOT a superset of the last
  // configuration {0,1} — recovery must still be blocked.
  bed.cluster().restart(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(5));
  EXPECT_TRUE(dir::group_dir_stats(bed.dir_server(0)).in_recovery);
  EXPECT_TRUE(dir::group_dir_stats(bed.dir_server(2)).in_recovery);
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    EXPECT_FALSE(d.dc->lookup(dcap, "late-update").is_ok());
  });

  // Server 1 returns: now the last set is present; service resumes with
  // the late update intact.
  bed.cluster().restart(bed.dir_server(1).id());
  run_until_ready(bed, {0, 1, 2});
  EXPECT_FALSE(dir::group_dir_stats(bed.dir_server(0)).in_recovery);
  d.step([&] {
    auto res = d.lookup_retry(dcap, "late-update");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, ImprovedRuleAllowsContinuouslyUpServer) {
  // Sec. 3.2 improvement: 3 crashes; {0,1} rebuild; 1 crashes; 0 stays
  // alive. With the improved rule, returning server 2 plus the
  // continuously-up server 0 may recover (0 provably has every update).
  for (bool improved : {false, true}) {
    Testbed bed({.flavor = Flavor::group,
                 .clients = 1,
                 .seed = 16,
                 .improved_recovery = improved});
    ASSERT_TRUE(bed.wait_ready());
    Driver d(bed);
    cap::Capability dcap;
    d.step([&] {
      auto res = d.create_retry();
      ASSERT_TRUE(res.is_ok());
      dcap = *res;
    });

    bed.cluster().crash(bed.dir_server(2).id());
    bed.sim().run_for(sim::sec(1));
    d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "proof").is_ok()); });
    bed.cluster().crash(bed.dir_server(1).id());
    bed.sim().run_for(sim::sec(2));  // server 0 alone: recovery loop

    bed.cluster().restart(bed.dir_server(2).id());
    bed.sim().run_for(sim::sec(8));

    const bool s0_recovered =
        !dir::group_dir_stats(bed.dir_server(0)).in_recovery;
    EXPECT_EQ(s0_recovered, improved)
        << "improved=" << improved << " should "
        << (improved ? "" : "not ") << "allow {0,2} recovery";
    if (improved) {
      d.step([&] {
        auto res = d.lookup_retry(dcap, "proof");
        EXPECT_TRUE(res.is_ok()) << res.status().to_string();
      });
    }
  }
}

TEST(GroupFault, DirectoryDeletionSurvivesTotalCrash) {
  // The commit-block sequence number (Fig. 4): deletion as the last update
  // before a total crash must not be forgotten.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 17});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "doomed").is_ok());
    Status st = d.dc->delete_dir(dcap);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  });

  for (int i = 0; i < 3; ++i) bed.cluster().crash(bed.dir_server(i).id());
  bed.sim().run_for(sim::msec(300));
  for (int i = 0; i < 3; ++i) bed.cluster().restart(bed.dir_server(i).id());
  run_until_ready(bed, {0, 1, 2});

  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "doomed");
    EXPECT_EQ(res.code(), Errc::not_found)
        << "deleted directory came back from the dead: "
        << res.status().to_string();
  });
}

TEST(GroupFault, RecoveringFlagPreventsStaleSource) {
  // Crash a server mid state-transfer; its commit block has the recovering
  // flag set, so on the next boot it reports seqno 0 and fetches afresh.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 18});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(d.append_retry(dcap, "r" + std::to_string(i)).is_ok());
    }
  });

  // Restart and watch its commit block for the recovering flag.
  bed.cluster().restart(bed.dir_server(2).id());
  auto& vdisk = bed.storage(2).persistent<disk::VirtualDisk>("disk", [&] {
    return std::make_unique<disk::VirtualDisk>(bed.sim(), "disk");
  });
  bool saw_flag = false;
  for (int i = 0; i < 2000 && !saw_flag; ++i) {
    bed.sim().run_for(sim::msec(5));
    auto blk = vdisk.peek(0);
    if (blk && !blk->empty()) {
      try {
        saw_flag = dir::CommitBlock::deserialize(*blk).recovering;
      } catch (const DecodeError&) {
      }
    }
  }
  if (saw_flag) {
    bed.cluster().crash(bed.dir_server(2).id());  // die mid-transfer
    bed.sim().run_for(sim::msec(500));
    bed.cluster().restart(bed.dir_server(2).id());
  }
  run_until_ready(bed, {0, 1, 2});

  // Whatever the timing, the rejoined server must serve correct data.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "r5");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, SurvivesStorageMachineCrash) {
  // Losing one server's bullet/disk machine must not take the service
  // down: the other replicas still persist every update.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 19});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.cluster().crash(bed.storage(2).id());
  bed.sim().run_for(sim::msec(200));
  d.step([&] {
    ASSERT_TRUE(d.append_retry(dcap, "still-works").is_ok());
    auto res = d.lookup_retry(dcap, "still-works");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupNvram, UpdatesSurviveCrashBeforeFlush) {
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 20});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "volatile?").is_ok());
  });

  // Crash one server promptly (likely before its idle flush), restart, and
  // read through it.
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(300));
  bed.cluster().restart(bed.dir_server(1).id());
  run_until_ready(bed, {0, 1, 2});
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "volatile?");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupNvram, AppendDeletePairsCancelWithoutDiskWrites) {
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 21});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(2));  // let the create flush

  const std::uint64_t writes_before = bed.total_disk_writes();
  d.step([&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(d.dc->append_row(dcap, "tmp", {}).is_ok());
      ASSERT_TRUE(d.dc->delete_row(dcap, "tmp").is_ok());
    }
  });
  const std::uint64_t writes_after = bed.total_disk_writes();
  EXPECT_EQ(writes_after, writes_before)
      << "append+delete pairs should be cancelled in NVRAM (Sec. 4.1)";
  std::uint64_t cancels = 0;
  for (int i = 0; i < 3; ++i) {
    cancels += dir::group_dir_stats(bed.dir_server(i)).nvram_cancellations;
  }
  EXPECT_GE(cancels, 3u * 10u);
}

TEST(GroupNvram, WriteBackBlockLabelsTheRowsItWrote) {
  // A write-back's table block must carry the seqno of the rows in the
  // file beside it. Here an update lands while server 0's flusher is
  // writing the directory's Bullet file. Labelled with that update's
  // seqno, the block would make the next boot skip the update's NVRAM
  // record. Server 0 re-creates the group after the total restart, so no
  // state transfer masks the loss.
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 31});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    // A file of several Bullet blocks: the create takes ~100 ms.
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(d.append_retry(dcap, "r" + std::to_string(i)).is_ok());
    }
  });
  bed.sim().run_for(sim::sec(2));  // idle: every log is written back

  disk::VirtualDisk& disk0 = bed.vdisk(0);
  const auto block = [&] { return disk0.peek(dcap.object).value_or(Buffer{}); };
  const Buffer before = block();
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "a").is_ok()); });
  // Server 0's write-back has begun once its first data block is written.
  const std::uint64_t writes = disk0.writes();
  const sim::Time limit = bed.sim().now() + sim::sec(5);
  while (disk0.writes() == writes && bed.sim().now() < limit) {
    bed.sim().run_for(sim::msec(1));
  }
  ASSERT_GT(disk0.writes(), writes) << "no write-back started";
  bool b_done = false;
  d.cm.spawn("b", [&] {
    EXPECT_TRUE(d.dc->append_row(dcap, "b", {}).is_ok());
    b_done = true;
  });
  // Crash once that write-back has rewritten the table block, before the
  // next pass writes "b" back.
  while ((!b_done || block() == before) && bed.sim().now() < limit) {
    bed.sim().run_for(sim::msec(1));
  }
  ASSERT_TRUE(b_done);
  ASSERT_NE(block(), before) << "write-back did not finish";

  total_restart(bed);
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
  const auto states = replica_states(d);
  ASSERT_EQ(states.size(), 3u);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_TRUE(has_row(states[i], dcap.object, "a")) << "server " << i;
    EXPECT_TRUE(has_row(states[i], dcap.object, "b")) << "server " << i;
  }
}

TEST(GroupNvram, ReusedObjectNumberFreesTheOldFile) {
  // A directory is deleted and another created under its object number
  // between two write-backs: the write-back of the new one must delete the
  // file the table block named.
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 36});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability first;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    first = *res;
  });
  bed.sim().run_for(sim::sec(1));  // idle: written back
  cap::Capability second;
  d.step([&] {
    ASSERT_TRUE(d.dc->delete_dir(first).is_ok());
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    second = *res;
  });
  ASSERT_EQ(second.object, first.object);
  bed.sim().run_for(sim::sec(1));  // idle: written back
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    EXPECT_EQ(bullet_files(bed, i), 1u) << "storage " << i;
  }
}

TEST(GroupFault, RestartInstallWritesOnlyChangedDirectories) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 33});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  std::vector<cap::Capability> dirs;  // same, cancel, grown, doomed
  d.step([&] {
    for (int i = 0; i < 4; ++i) {
      auto res = d.create_retry();
      ASSERT_TRUE(res.is_ok());
      dirs.push_back(*res);
      ASSERT_TRUE(d.append_retry(*res, "row").is_ok());
    }
  });
  ASSERT_EQ(dirs.size(), 4u);

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    ASSERT_TRUE(d.append_retry(dirs[1], "tmp").is_ok());
    ASSERT_TRUE(d.dc->delete_row(dirs[1], "tmp").is_ok());
    ASSERT_TRUE(d.append_retry(dirs[2], "new").is_ok());
    // Created before the deletion, so it does not reuse the doomed slot.
    ASSERT_TRUE(d.create_retry().is_ok());
    ASSERT_TRUE(d.dc->delete_dir(dirs[3]).is_ok());
  });
  const sim::Time restart = bed.sim().now();
  bed.cluster().restart(bed.dir_server(2).id());
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));

  int installs = 0;
  dir::GroupInstallCounts n;
  for (const obs::TraceEvent& ev : bed.trace().events()) {
    if (ev.ts >= restart && ev.pid == bed.dir_server(2).id().v &&
        std::string(ev.name) == "recovery_install") {
      ++installs;
      n = dir::GroupInstallCounts::unpack(ev.arg);
    }
  }
  ASSERT_EQ(installs, 1);
  EXPECT_EQ(n.kept, 1) << "untouched directory";
  EXPECT_EQ(n.relabelled, 1) << "append+delete pair: same rows";
  EXPECT_EQ(n.written, 2) << "grown and freshly created directories";
  EXPECT_EQ(n.dropped, 1) << "directory deleted while down";
  EXPECT_EQ(bullet_files(bed, 2), 4u);  // same, cancel, grown, fresh

  // The relabelled directory reads back from the kept file.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    EXPECT_TRUE(d.lookup_retry(dirs[1], "row").is_ok());
    EXPECT_EQ(d.lookup_retry(dirs[1], "tmp").code(), Errc::not_found);
    EXPECT_TRUE(d.lookup_retry(dirs[2], "new").is_ok());
  });
}

TEST(GroupFault, RestartsLeaveOneBulletFilePerDirectory) {
  for (Flavor f : {Flavor::group, Flavor::group_nvram}) {
    SCOPED_TRACE(flavor_name(f));
    Testbed bed({.flavor = f, .clients = 1, .seed = 32});
    ASSERT_TRUE(bed.wait_ready());
    Driver d(bed);
    std::vector<cap::Capability> dirs;
    d.step([&] {
      for (int i = 0; i < 4; ++i) {
        auto res = d.create_retry();
        ASSERT_TRUE(res.is_ok());
        dirs.push_back(*res);
        ASSERT_TRUE(d.append_retry(*res, "row").is_ok());
      }
    });
    ASSERT_EQ(dirs.size(), 4u);
    for (int round = 0; round < 6; ++round) {
      const int victim = round % 3;
      bed.cluster().crash(bed.dir_server(victim).id());
      bed.sim().run_for(sim::sec(1));
      d.step([&] {
        d.rpc->flush_port_cache(bed.dir_port());
        const std::string name = "x" + std::to_string(round);
        ASSERT_TRUE(d.append_retry(dirs[round % 4], name).is_ok());
      });
      bed.cluster().restart(bed.dir_server(victim).id());
      run_until_ready(bed, {0, 1, 2});
      ASSERT_TRUE(group_ready(bed, {0, 1, 2})) << "round " << round;
    }
    bed.sim().run_for(sim::sec(2));  // idle: NVRAM logs written back
    for (int i = 0; i < bed.num_dir_servers(); ++i) {
      EXPECT_EQ(bullet_files(bed, i), dirs.size()) << "storage " << i;
    }
  }
}

TEST(GroupFault, DirectoryDeletedWhileDownStaysDeleted) {
  // Server 0 misses the deletion and installs a snapshot without the
  // directory. After a total restart it re-creates the group from its own
  // disk, so a table block the install left behind would bring the
  // directory back on every replica.
  for (Flavor f : {Flavor::group, Flavor::group_nvram}) {
    SCOPED_TRACE(flavor_name(f));
    Testbed bed({.flavor = f, .clients = 1, .seed = 34});
    ASSERT_TRUE(bed.wait_ready());
    Driver d(bed);
    cap::Capability keep;
    cap::Capability doomed;
    d.step([&] {
      auto k = d.create_retry();
      auto g = d.create_retry();
      ASSERT_TRUE(k.is_ok() && g.is_ok());
      keep = *k;
      doomed = *g;
      ASSERT_TRUE(d.append_retry(doomed, "row").is_ok());
    });
    bed.sim().run_for(sim::sec(1));  // idle: NVRAM logs written back

    bed.cluster().crash(bed.dir_server(0).id());
    bed.sim().run_for(sim::sec(1));
    d.step([&] {
      d.rpc->flush_port_cache(bed.dir_port());
      Status st = Status::error(Errc::internal, "unset");
      for (int i = 0; i < 40 && !st.is_ok() && st.code() != Errc::not_found;
           ++i) {
        st = d.dc->delete_dir(doomed);
        if (!st.is_ok()) bed.sim().sleep_for(sim::msec(150));
      }
      ASSERT_TRUE(st.is_ok() || st.code() == Errc::not_found)
          << st.to_string();
    });
    bed.cluster().restart(bed.dir_server(0).id());
    run_until_ready(bed, {0, 1, 2});
    ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
    bed.sim().run_for(sim::sec(1));

    total_restart(bed);
    run_until_ready(bed, {0, 1, 2});
    ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
    const auto states = replica_states(d);
    for (std::size_t i = 0; i < states.size(); ++i) {
      EXPECT_TRUE(states[i].objs.contains(keep.object)) << "server " << i;
      EXPECT_FALSE(states[i].objs.contains(doomed.object)) << "server " << i;
    }
    bed.sim().run_for(sim::sec(1));
    EXPECT_EQ(bullet_files(bed, 0), 1u) << "only the kept directory's file";
  }
}

TEST(RpcFault, DivergesUnderPartitionUnlikeGroup) {
  // The RPC service assumes partitions never happen (Sec. 1). Partition the
  // two servers, update through one side, read stale data through the
  // other: the anomaly the group design eliminates.
  Testbed bed({.flavor = Flavor::rpc, .clients = 2, .seed = 22});
  ASSERT_TRUE(bed.wait_ready());
  Driver a(bed, 0), b(bed, 1);
  cap::Capability dcap;
  a.step([&] {
    auto res = a.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(1));  // lazy replication catches up

  bed.cluster().partition({{bed.dir_server(0).id(), bed.storage(0).id(),
                            bed.client(0).id()},
                           {bed.dir_server(1).id(), bed.storage(1).id(),
                            bed.client(1).id()}});
  a.step([&] {
    a.rpc->flush_port_cache(bed.dir_port());
    ASSERT_TRUE(a.append_retry(dcap, "split-brain").is_ok());
  });
  b.step([&] {
    b.rpc->flush_port_cache(bed.dir_port());
    auto res = b.lookup_retry(dcap, "split-brain");
    // Server 1 happily serves a stale read: the row does not exist there.
    EXPECT_EQ(res.code(), Errc::not_found)
        << "expected stale data, got " << res.status().to_string();
  });
}

TEST(RpcNvram, UpdatesSurviveCrashBeforeFlush) {
  // The paper's Sec. 4.1 prediction applied to the RPC service: NVRAM
  // intentions + deferred copies must preserve updates across a crash.
  Testbed bed({.flavor = Flavor::rpc_nvram, .clients = 1, .seed = 26});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "durable?").is_ok());
  });
  // Crash the server likely holding only NVRAM copies, then restart it and
  // kill the OTHER one so reads must come from the recovered server.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::msec(300));
  bed.cluster().restart(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(3));
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(300));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "durable?");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(RpcNvram, FasterUpdatesThanPlainRpc) {
  auto pair_ms = [](Flavor f) {
    Testbed bed({.flavor = f, .clients = 1, .seed = 27});
    if (!bed.wait_ready()) return -1.0;
    auto r = measure_latencies(bed, 2, 8);
    return r.ok ? r.append_delete_ms : -1.0;
  };
  const double plain = pair_ms(Flavor::rpc);
  const double nv = pair_ms(Flavor::rpc_nvram);
  ASSERT_GT(plain, 0);
  ASSERT_GT(nv, 0);
  // "One could expect similar performance improvements" — at least 3x.
  EXPECT_LT(nv * 3, plain) << "plain=" << plain << "ms nvram=" << nv << "ms";
}

TEST(RpcNvram, DeleteAfterFailedAppendSurvivesRestart) {
  // Only state changes enter the NVRAM log. Were the failed append logged,
  // the delete_row would cancel it, and replaying the successful append
  // after a restart would bring the row back.
  Testbed bed({.flavor = Flavor::rpc_nvram, .clients = 1, .seed = 35});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(1));  // idle: the create is written back
  d.step([&] {
    cap::Capability v;
    v.object = 7;
    ASSERT_TRUE(d.dc->append_row(dcap, "k", {v}).is_ok());
    ASSERT_EQ(d.dc->append_row(dcap, "k", {v}).code(), Errc::exists);
    ASSERT_TRUE(d.dc->delete_row(dcap, "k").is_ok());
  });
  // Both servers go down before an idle flush writes the log back.
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    bed.cluster().crash(bed.dir_server(i).id());
  }
  bed.sim().run_for(sim::msec(300));
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    bed.cluster().restart(bed.dir_server(i).id());
  }
  bed.sim().run_for(sim::sec(2));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    EXPECT_EQ(d.lookup_retry(dcap, "k").code(), Errc::not_found);
  });
}

TEST(RpcNvram, PeerFlushesAboutAsOftenAsInitiator) {
  // Intents are update traffic at the peer: its NVRAM flusher must not
  // take the time it spends handling them for idle time.
  Testbed bed({.flavor = Flavor::rpc_nvram, .clients = 1, .seed = 1});
  ASSERT_TRUE(bed.wait_ready());
  const ThroughputResult r = append_throughput(bed, sim::sec(1), sim::sec(4));
  ASSERT_TRUE(r.ok);
  const dir::RpcDirStats& s0 = dir::rpc_dir_stats(bed.dir_server(0));
  const dir::RpcDirStats& s1 = dir::rpc_dir_stats(bed.dir_server(1));
  const dir::RpcDirStats& init = s0.writes >= s1.writes ? s0 : s1;
  const dir::RpcDirStats& peer = s0.writes >= s1.writes ? s1 : s0;
  ASSERT_GT(peer.intents_received, 0u);
  EXPECT_LE(peer.flushes, 2 * std::max<std::uint64_t>(init.flushes, 1))
      << "initiator " << init.flushes << ", peer " << peer.flushes;
}

TEST(RpcFault, PeerCrashDoesNotStopService) {
  Testbed bed({.flavor = Flavor::rpc, .clients = 1, .seed = 23});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(200));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    ASSERT_TRUE(d.append_retry(dcap, "solo").is_ok());
    auto res = d.lookup_retry(dcap, "solo");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, OldBulletFilesGarbageCollected) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 24});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(d.dc->append_row(dcap, "n" + std::to_string(i), {}).is_ok());
    }
  });
  bed.sim().run_for(sim::sec(1));
  // Each storage machine should hold roughly one bullet file per live
  // directory, not one per update.
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(bullet_files(bed, i), 3u) << "bullet files leak on storage " << i;
  }
}

}  // namespace
}  // namespace amoeba::harness
