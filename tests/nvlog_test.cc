// The NVRAM write-ahead log and the write-back engine built on it.
//
// Torn appends: a crash mid-append leaves a partial tail record, and the
// log must treat it as a clean end — truncated at the first undecodable
// record — no matter at which byte the crash cut it. Regression tests for
// the boot-time truncate_torn pass and the defensive replay/max_seqno/
// try_cancel paths.
//
// NvramWriteBack: single-flight flushing, the full-NVRAM stall, the
// append/delete cancellation, batch replay and the finish hook, driven
// directly; then both NVRAM flavors end to end.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "dir/client.h"
#include "dir/persist.h"
#include "harness/testbed.h"
#include "net/cluster.h"
#include "nvram/nvram.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"

namespace amoeba::dir::nvlog {
namespace {

Buffer make_record(std::uint64_t seqno, const std::string& request) {
  Record rec;
  rec.seqno = seqno;
  rec.secret = 0xfeedface00ull + seqno;
  rec.objhint = 0;
  rec.request = to_buffer(request);
  return encode(rec);
}

TEST(NvlogTorn, EveryBytePrefixOfTailIsDroppedCleanly) {
  // Cut the tail record at every possible byte offset: whatever prefix the
  // crash left behind, boot must drop exactly the torn record and keep the
  // intact ones.
  const Buffer full = make_record(7, "the second logged update request");
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    sim::Simulator sim(1);
    nvram::Nvram nv(sim);
    bool checked = false;
    sim.spawn("t", [&] {
      ASSERT_TRUE(nv.append(1, make_record(6, "first update")).is_ok());
      ASSERT_TRUE(nv.append(2, full).is_ok());
      ASSERT_TRUE(nv.corrupt_tail(cut)) << "cut=" << cut;

      EXPECT_EQ(truncate_torn(nv), 1u) << "cut=" << cut;
      ASSERT_EQ(nv.record_count(), 1u) << "cut=" << cut;
      EXPECT_EQ(decode(nv.records().front().data).seqno, 6u);
      EXPECT_EQ(max_seqno(nv), 6u);
      checked = true;
    });
    sim.run_until(sim::sec(1));
    ASSERT_TRUE(checked) << "cut=" << cut;
  }
}

TEST(NvlogTorn, IntactLogIsLeftAlone) {
  sim::Simulator sim(2);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    ASSERT_TRUE(nv.append(1, make_record(1, "a")).is_ok());
    ASSERT_TRUE(nv.append(2, make_record(2, "b")).is_ok());
    EXPECT_EQ(truncate_torn(nv), 0u);
    EXPECT_EQ(nv.record_count(), 2u);
    EXPECT_EQ(max_seqno(nv), 2u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogTorn, MaxSeqnoStopsAtTornRecordWithoutTruncation) {
  // Even if a server consulted the log before truncating (belt and
  // braces), the torn tail must not abort the scan or contribute a bogus
  // seqno.
  sim::Simulator sim(3);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    ASSERT_TRUE(nv.append(1, make_record(9, "kept")).is_ok());
    ASSERT_TRUE(nv.append(2, make_record(10, "torn")).is_ok());
    ASSERT_TRUE(nv.corrupt_tail(5));
    EXPECT_EQ(max_seqno(nv), 9u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogTorn, TornAppendFaultInjectionLeavesPartialTail) {
  // End-to-end through the Nvram fault hook: a crash delivered mid-append
  // with torn appends armed persists a strict prefix of the record.
  sim::Simulator sim(4);
  net::Cluster cluster(sim);
  net::Machine& m = cluster.add_machine("m");
  const Buffer full = make_record(3, "record cut by the crash");
  auto make = [&] { return std::make_unique<nvram::Nvram>(sim); };
  m.spawn("p", [&] {
    auto& nv = m.persistent<nvram::Nvram>("nv", make);
    (void)nv.append(1, make_record(2, "intact"));
    nv.set_torn_appends(true);
    (void)nv.append(2, full);  // killed mid-write
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::usec(150));  // inside the second append's latency
    cluster.crash(m.id());
  });
  sim.run_until(sim::msec(10));
  cluster.restart(m.id());

  bool checked = false;
  m.spawn("p2", [&] {
    auto& nv = m.persistent<nvram::Nvram>("nv", make);
    ASSERT_EQ(nv.record_count(), 2u);
    EXPECT_LT(nv.records().back().data.size(), full.size());
    EXPECT_EQ(nv.torn_append_count(), 1u);

    EXPECT_EQ(truncate_torn(nv), 1u);
    EXPECT_EQ(nv.record_count(), 1u);
    EXPECT_EQ(max_seqno(nv), 2u);
    checked = true;
  });
  sim.run_until(sim::msec(20));
  ASSERT_TRUE(checked);
}

// ------------------------------------------------------ write-back engine

constexpr sim::Duration kWriteBackTime = sim::msec(10);

/// One machine running an NvramWriteBack over a DirState. The write-back
/// hook takes simulated disk time and records which objects it wrote (and
/// fails for those in `failing`); the finish hook records the delete seqno
/// of every pass.
struct Engine {
  sim::Simulator sim{21};
  net::Cluster cluster{sim};
  net::Machine& m = cluster.add_machine("dir");
  DirState state{net::Port{500}};
  sim::Time last_activity = 0;
  // The engine's counts, under the metrics layer it is given below.
  obs::Counter& flushes = cluster.metrics().counter("dir.test", "flushes");
  obs::Counter& cancellations =
      cluster.metrics().counter("dir.test", "nvram_cancellations");
  std::vector<std::uint32_t> written;
  std::set<std::uint32_t> failing;
  std::vector<std::uint64_t> finished;
  std::optional<NvramWriteBack> wb;

  explicit Engine(std::size_t nvram_bytes = 24 * 1024) {
    wb.emplace(m, NvramWriteBack::Config{
                      .nvram_bytes = nvram_bytes,
                      .last_activity = &last_activity,
                      .layer = "dir.test",
                      .write_back =
                          [this](Storage&, std::uint32_t obj) {
                            sim.sleep_for(kWriteBackTime);
                            written.push_back(obj);
                            return !failing.contains(obj);
                          },
                      .finish =
                          [this](Storage&, std::uint64_t delete_seqno) {
                            finished.push_back(delete_seqno);
                          },
                  });
  }
  nvram::Nvram& nv() { return wb->nvram(); }

  /// Apply `request` at `seqno` and log it, as a server does.
  Buffer update(Storage& st, const Buffer& request, std::uint64_t seqno) {
    DirState::ApplyEffect effect;
    Buffer reply = state.apply(request, seqno, seqno, &effect);
    wb->log(st, request, seqno, seqno, effect);
    return reply;
  }
  cap::Capability create(Storage& st, std::uint64_t seqno) {
    Buffer reply = update(st, make_create_dir({"owner"}), seqno);
    Reader r(reply);
    EXPECT_EQ(r.u8(), 0);  // Errc::ok
    return cap::Capability::decode(r);
  }

  /// Run `body` as a process on the machine, with its own Storage.
  void run(const std::function<void(Storage&)>& body) {
    bool finished_body = false;
    m.spawn("t", [&] {
      Storage st(m, net::Port{1}, net::Port{2});
      body(st);
      finished_body = true;
    });
    sim.run_until(sim.now() + sim::sec(10));
    ASSERT_TRUE(finished_body);
  }
};

cap::Capability row_cap(std::uint32_t n) {
  cap::Capability c;
  c.port = net::Port{0xabc};
  c.object = n;
  return c;
}

TEST(WriteBack, ConcurrentFlushCallersShareOnePass) {
  Engine e;
  cap::Capability dir;
  e.run([&](Storage& st) { dir = e.create(st, 1); });
  int returned = 0;
  for (int i = 0; i < 2; ++i) {
    e.m.spawn("flush" + std::to_string(i), [&] {
      Storage st(e.m, net::Port{1}, net::Port{2});
      e.wb->flush(st);
      ++returned;
    });
  }
  e.sim.run_until(e.sim.now() + sim::sec(1));
  EXPECT_EQ(returned, 2);
  EXPECT_EQ(e.flushes, 1u);
  EXPECT_EQ(e.written, std::vector<std::uint32_t>{dir.object});
  EXPECT_TRUE(e.nv().empty());
}

TEST(WriteBack, UpdateStallsOnFullNvramThenLands) {
  Engine e(/*nvram_bytes=*/256);
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    for (std::uint64_t seqno = 2; e.flushes == 0; ++seqno) {
      ASSERT_LT(seqno, 20u) << "the NVRAM never filled";
      const Buffer req = make_append_row(dir, "row" + std::to_string(seqno),
                                         {row_cap(1)});
      const sim::Time t0 = e.sim.now();
      (void)e.update(st, req, seqno);
      if (e.flushes == 0) continue;
      // The update waited for a whole write-back pass, then landed alone.
      EXPECT_GE(e.sim.now() - t0, kWriteBackTime);
      ASSERT_EQ(e.nv().record_count(), 1u);
      EXPECT_EQ(decode(e.nv().records().front().data).request, req);
    }
    EXPECT_EQ(e.written, std::vector<std::uint32_t>{dir.object});
  });
}

TEST(WriteBack, AppendThenDeleteCancelsBoth) {
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    (void)e.update(st, make_append_row(dir, "tmp", {row_cap(1)}), 2);
    ASSERT_EQ(e.nv().record_count(), 2u);
    (void)e.update(st, make_delete_row(dir, "tmp"), 3);
    EXPECT_EQ(e.cancellations, 2u);
    ASSERT_EQ(e.nv().record_count(), 1u);  // only the create remains
    EXPECT_EQ(decode(e.nv().records().front().data).seqno, 1u);
  });
  EXPECT_EQ(e.flushes, 0u);
}

TEST(WriteBack, DeletingADirectoryBornInNvramCancelsItsHistory) {
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    (void)e.update(st, make_append_row(dir, "a", {row_cap(1)}), 2);
    (void)e.update(st, make_delete_dir(dir), 3);
    EXPECT_EQ(e.cancellations, 3u);
    EXPECT_TRUE(e.nv().empty());
    e.wb->flush(st);  // nothing logged, no deletion owed: no pass
  });
  EXPECT_EQ(e.flushes, 0u);
  EXPECT_TRUE(e.finished.empty());
}

/// Start a flush pass in another process and return once it is writing.
void start_pass(Engine& e) {
  e.m.spawn("pass", [&e] {
    Storage st(e.m, net::Port{1}, net::Port{2});
    e.wb->flush(st);
  });
  e.sim.sleep_for(kWriteBackTime / 2);
}

TEST(WriteBack, DeleteOfAnAppendInTheFlushPassIsLogged) {
  // The pass in flight may already have written the append to disk and
  // drops its record when it ends: cancelling would lose the delete.
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    e.wb->flush(st);
    (void)e.update(st, make_append_row(dir, "tmp", {row_cap(1)}), 2);
    start_pass(e);
    (void)e.update(st, make_delete_row(dir, "tmp"), 3);
    EXPECT_EQ(e.cancellations, 0u);
    e.wb->wait_idle();
    ASSERT_EQ(e.nv().record_count(), 1u);  // the pass dropped the append
    EXPECT_EQ(decode(e.nv().records().front().data).seqno, 3u);
    // With no pass in flight, a fresh pair cancels again.
    (void)e.update(st, make_append_row(dir, "tmp2", {row_cap(1)}), 4);
    (void)e.update(st, make_delete_row(dir, "tmp2"), 5);
    EXPECT_EQ(e.cancellations, 2u);
  });
}

TEST(WriteBack, DeleteOfADirectoryInTheFlushPassIsLogged) {
  // Born in NVRAM, but the pass in flight may already have written it:
  // the delete is logged, and the next pass writes the deletion back.
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    start_pass(e);
    (void)e.update(st, make_delete_dir(dir), 2);
    EXPECT_EQ(e.cancellations, 0u);
    e.wb->wait_idle();
    ASSERT_EQ(e.nv().record_count(), 1u);
    EXPECT_EQ(decode(e.nv().records().front().data).seqno, 2u);
    e.wb->flush(st);
    EXPECT_EQ(e.written,
              (std::vector<std::uint32_t>{dir.object, dir.object}));
  });
  EXPECT_TRUE(e.nv().empty());
}

TEST(WriteBack, DeleteOfAnAppendTheNextWriteBackTookIsLogged) {
  // The pass snapshots x and y, then writes x. An append to y logged
  // meanwhile is not in the snapshot and outlives the pass, but the
  // write-back of y that follows put it on disk: its delete, even once the
  // pass has ended, is logged.
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability x = e.create(st, 1);
    const cap::Capability y = e.create(st, 2);
    start_pass(e);
    (void)e.update(st, make_append_row(y, "tmp", {row_cap(1)}), 3);
    e.wb->wait_idle();
    ASSERT_EQ(e.written, (std::vector<std::uint32_t>{x.object, y.object}));
    ASSERT_EQ(e.nv().record_count(), 1u);
    (void)e.update(st, make_delete_row(y, "tmp"), 4);
    EXPECT_EQ(e.cancellations, 0u);
    ASSERT_EQ(e.nv().record_count(), 2u);
    EXPECT_EQ(decode(e.nv().records().back().data).seqno, 4u);
    // Once a pass has written the delete back, a fresh pair cancels again.
    e.wb->flush(st);
    EXPECT_TRUE(e.nv().empty());
    (void)e.update(st, make_append_row(y, "tmp2", {row_cap(1)}), 5);
    (void)e.update(st, make_delete_row(y, "tmp2"), 6);
    EXPECT_EQ(e.cancellations, 2u);
  });
}

TEST(WriteBack, DeleteOfAnAppendThatWaitedOutAPassIsLogged) {
  // The append stalled on the full log while a pass wrote its directory
  // back, so the disk holds it although the log does too.
  Engine e(/*nvram_bytes=*/256);
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    std::uint64_t seqno = 2;
    std::string row;
    for (; e.flushes == 0; ++seqno) {
      ASSERT_LT(seqno, 20u) << "the NVRAM never filled";
      row = "row" + std::to_string(seqno);
      (void)e.update(st, make_append_row(dir, row, {row_cap(1)}), seqno);
    }
    ASSERT_EQ(e.nv().record_count(), 1u);
    (void)e.update(st, make_delete_row(dir, row), seqno);
    EXPECT_EQ(e.cancellations, 0u);
    EXPECT_EQ(decode(e.nv().records().back().data).seqno, seqno);
  });
}

TEST(WriteBack, FailedWriteBackKeepsItsRecordsForTheNextPass) {
  // Dropping them would leave the update neither on disk nor in the log.
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability x = e.create(st, 1);
    const cap::Capability y = e.create(st, 2);
    (void)e.update(st, make_append_row(y, "a", {row_cap(1)}), 3);
    e.failing.insert(y.object);
    e.wb->flush(st);
    ASSERT_EQ(e.nv().record_count(), 2u);
    EXPECT_EQ(decode(e.nv().records().front().data).seqno, 2u);
    EXPECT_EQ(decode(e.nv().records().back().data).seqno, 3u);
    e.failing.clear();
    e.wb->flush(st);
    EXPECT_TRUE(e.nv().empty());
    EXPECT_EQ(e.written, (std::vector<std::uint32_t>{x.object, y.object,
                                                     y.object}));
  });
}

TEST(WriteBack, LoggedDirectoryDeleteReachesTheFinishHook) {
  Engine e;
  e.run([&](Storage& st) {
    const cap::Capability dir = e.create(st, 1);
    e.wb->flush(st);  // the directory is now on disk
    (void)e.update(st, make_delete_dir(dir), 5);
    ASSERT_EQ(e.nv().record_count(), 1u);
    e.wb->flush(st);
    EXPECT_EQ(e.written,
              (std::vector<std::uint32_t>{dir.object, dir.object}));
  });
  EXPECT_EQ(e.finished, (std::vector<std::uint64_t>{0, 5}));
  EXPECT_TRUE(e.nv().empty());
}

TEST(WriteBack, RecoverReplaysEveryUpdateOfABatchRecord) {
  Engine e;
  cap::Capability dir;
  e.run([&](Storage& st) {
    dir = e.create(st, 1);
    e.wb->flush(st);
    const Buffer on_disk = e.state.snapshot();
    // One ordered batch of two appends, logged as one group commit.
    std::vector<Record> subs;
    for (const char* name : {"x", "y"}) {
      const Buffer req = make_append_row(dir, name, {row_cap(2)});
      DirState::ApplyEffect effect;
      (void)e.state.apply(req, 0, 2, &effect);
      subs.push_back(nvlog::make_record(req, 0, 2, effect));
    }
    e.wb->log_batch(st, subs, 2);
    ASSERT_EQ(e.nv().record_count(), 1u);
    ASSERT_TRUE(is_batch(e.nv().records().front().data));

    // Reboot: the disk state predates the batch; replay brings both rows.
    e.state = DirState::from_snapshot(on_disk, e.state.port());
    EXPECT_EQ(e.wb->recover(e.state), 2u);
  });
  const Directory* d = e.state.directory(dir.object);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->has("x"));
  EXPECT_TRUE(d->has("y"));
}

// ------------------------------------------------- both flavors, end to end

/// Each object's directory contents: the replica-independent part of a
/// state snapshot (Bullet capabilities differ per server).
std::map<std::uint32_t, Buffer> contents(const Buffer& snapshot) {
  const DirState st = DirState::from_snapshot(snapshot, net::Port{0});
  std::map<std::uint32_t, Buffer> out;
  for (const auto& [obj, d] : st.dirs()) out[obj] = d.serialize();
  return out;
}

class WriteBackFlavor : public ::testing::TestWithParam<harness::Flavor> {};

TEST_P(WriteBackFlavor, SmallNvramFlushesAndReplicasAgree) {
  const harness::Flavor flavor = GetParam();
  const bool group = flavor == harness::Flavor::group_nvram;
  harness::Testbed bed(
      {.flavor = flavor, .clients = 1, .seed = 3, .nvram_bytes = 2048});
  ASSERT_TRUE(bed.wait_ready());
  constexpr int kAppends = 60;
  std::vector<Buffer> snapshots;
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("client", [&] {
    rpc::RpcClient rpc(cm);
    DirClient dc(rpc, bed.dir_port());
    auto dir = dc.create_dir({"owner"});
    ASSERT_TRUE(dir.is_ok());
    for (int i = 0; i < kAppends; ++i) {
      ASSERT_TRUE(
          dc.append_row(*dir, "f" + std::to_string(i), {row_cap(1)}).is_ok());
    }
    bed.sim().sleep_for(sim::sec(1));  // idle: the flushers drain the logs
    for (int i = 0; i < bed.num_dir_servers(); ++i) {
      Writer w;
      w.u8(group ? static_cast<std::uint8_t>(GroupAdminOp::fetch_state)
                 : static_cast<std::uint8_t>(RpcPeerOp::resync));
      auto res = rpc.trans(bed.admin_port(i), w.take(),
                           {.timeout = sim::sec(2)});
      ASSERT_TRUE(res.is_ok()) << "server " << i;
      Reader r(*res);
      ASSERT_EQ(r.u8(), 0);  // Errc::ok
      (void)r.u64();         // seqno
      if (group) {
        (void)r.u64();  // applied
        (void)r.u64();  // commit-block seqno
      }
      snapshots.push_back(r.bytes());
    }
    done = true;
  });
  bed.sim().run_for(sim::sec(60));
  ASSERT_TRUE(done);

  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    EXPECT_TRUE(bed.nvram_of(i)->empty()) << "server " << i;
  }
  EXPECT_GT(bed.metrics().counter(group ? "dir.group" : "dir.rpc", "flushes"),
            0u);
  ASSERT_EQ(snapshots.size(), static_cast<std::size_t>(bed.num_dir_servers()));
  const auto first = contents(snapshots.front());
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(Directory::deserialize(first.begin()->second).rows.size(),
            static_cast<std::size_t>(kAppends));
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(contents(snapshots[i]), first) << "server " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothNvramFlavors, WriteBackFlavor,
    ::testing::Values(harness::Flavor::group_nvram,
                      harness::Flavor::rpc_nvram),
    [](const ::testing::TestParamInfo<harness::Flavor>& info) {
      return std::string(info.param == harness::Flavor::group_nvram
                             ? "GroupNvram"
                             : "RpcNvram");
    });

}  // namespace
}  // namespace amoeba::dir::nvlog
