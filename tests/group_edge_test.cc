// Edge cases of the group-communication layer: join/leave corner cases,
// info reporting, send size handling, sequencer handoff, and the behaviour
// of a group of one.
#include <gtest/gtest.h>

#include "group/group.h"
#include "net/cluster.h"

namespace amoeba::group {
namespace {

constexpr Port kPort{7100};

struct EdgeFixture : ::testing::Test {
  sim::Simulator sim{71};
  net::Cluster cluster{sim};

  GroupConfig cfg_for(int n) {
    GroupConfig cfg;
    cfg.port = kPort;
    for (int i = 0; i < n; ++i) {
      cfg.universe.push_back(MachineId{static_cast<std::uint16_t>(i)});
    }
    return cfg;
  }
};

TEST_F(EdgeFixture, JoinWithoutGroupFails) {
  net::Machine& m = cluster.add_machine("m");
  Status st = Status::ok();
  m.spawn("join", [&] {
    auto res = GroupMember::join(m, cfg_for(1));
    st = res.status();
  });
  sim.run_for(sim::sec(1));
  EXPECT_EQ(st.code(), Errc::unreachable);
}

TEST_F(EdgeFixture, SingletonGroupDeliversToItself) {
  net::Machine& m = cluster.add_machine("m");
  std::vector<std::string> got;
  m.spawn("solo", [&] {
    auto gm = GroupMember::create(m, cfg_for(1));
    ASSERT_TRUE(gm->send_to_group(to_buffer("self")).is_ok());
    auto msg = gm->receive();
    ASSERT_TRUE(msg.is_ok());
    got.push_back(to_string(msg->payload));
    GroupInfo gi = gm->info();
    EXPECT_EQ(gi.members.size(), 1u);
    EXPECT_EQ(gi.sequencer, m.id());
    EXPECT_EQ(gi.last_delivered, msg->seqno);
  });
  sim.run_for(sim::sec(1));
  EXPECT_EQ(got, (std::vector<std::string>{"self"}));
}

TEST_F(EdgeFixture, JoinDeliveredAsMembershipMessage) {
  net::Machine& m0 = cluster.add_machine("m0");
  net::Machine& m1 = cluster.add_machine("m1");
  std::vector<MsgKind> kinds;
  std::unique_ptr<GroupMember> g0, g1;
  m0.spawn("founder", [&] {
    g0 = GroupMember::create(m0, cfg_for(2));
    while (true) {
      auto msg = g0->receive();
      if (!msg.is_ok()) break;
      kinds.push_back(msg->kind);
    }
  });
  m1.spawn("joiner", [&] {
    sim.sleep_for(sim::msec(10));
    auto res = GroupMember::join(m1, cfg_for(2));
    ASSERT_TRUE(res.is_ok());
    g1 = std::move(*res);
    (void)g1->send_to_group(to_buffer("hello"));
  });
  sim.run_for(sim::sec(1));
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], MsgKind::join);
  EXPECT_EQ(kinds[1], MsgKind::data);
}

TEST_F(EdgeFixture, LeaveUnderTrafficKeepsSurvivorsConsistent) {
  std::vector<std::unique_ptr<GroupMember>> ms(3);
  std::vector<std::vector<std::string>> got(3);
  GroupConfig cfg = cfg_for(3);
  for (int i = 0; i < 3; ++i) {
    net::Machine& m = cluster.add_machine("m" + std::to_string(i));
    m.spawn("drv", [&, i] {
      if (i == 0) {
        ms[0] = GroupMember::create(m, cfg);
      } else {
        sim.sleep_for(sim::msec(3 * i));
        while (!ms[static_cast<std::size_t>(i)]) {
          auto r = GroupMember::join(m, cfg);
          if (r.is_ok()) {
            ms[static_cast<std::size_t>(i)] = std::move(*r);
          } else {
            sim.sleep_for(sim::msec(10));
          }
        }
      }
      while (true) {
        auto msg = ms[static_cast<std::size_t>(i)]->receive();
        if (!msg.is_ok()) break;
        if (msg->kind == MsgKind::data) {
          got[static_cast<std::size_t>(i)].push_back(to_string(msg->payload));
        }
      }
    });
  }
  sim.run_for(sim::msec(100));
  // Sender on 0 streams while member 2 leaves mid-way.
  cluster.machine(MachineId{0}).spawn("send", [&] {
    for (int k = 0; k < 10; ++k) {
      (void)ms[0]->send_to_group(to_buffer("m" + std::to_string(k)));
      sim.sleep_for(sim::msec(15));
    }
  });
  cluster.machine(MachineId{2}).spawn("leaver", [&] {
    sim.sleep_for(sim::msec(70));
    EXPECT_TRUE(ms[2]->leave(sim::sec(1)).is_ok());
  });
  sim.run_for(sim::sec(3));
  EXPECT_EQ(got[0].size(), 10u);
  EXPECT_EQ(got[0], got[1]);
  EXPECT_EQ(ms[0]->info().members.size(), 2u);
  // The leaver saw a consistent prefix.
  ASSERT_LE(got[2].size(), got[0].size());
  for (std::size_t k = 0; k < got[2].size(); ++k) {
    EXPECT_EQ(got[2][k], got[0][k]);
  }
}

TEST_F(EdgeFixture, SequencerGracefulLeaveHandsOver) {
  std::vector<std::unique_ptr<GroupMember>> ms(3);
  GroupConfig cfg = cfg_for(3);
  for (int i = 0; i < 3; ++i) {
    net::Machine& m = cluster.add_machine("m" + std::to_string(i));
    m.spawn("drv", [&, i] {
      if (i == 0) {
        ms[0] = GroupMember::create(m, cfg);
      } else {
        sim.sleep_for(sim::msec(3 * i));
        while (!ms[static_cast<std::size_t>(i)]) {
          auto r = GroupMember::join(m, cfg);
          if (r.is_ok()) {
            ms[static_cast<std::size_t>(i)] = std::move(*r);
          } else {
            sim.sleep_for(sim::msec(10));
          }
        }
      }
      while (true) {
        if (!ms[static_cast<std::size_t>(i)]->receive().is_ok()) break;
      }
    });
  }
  sim.run_for(sim::msec(100));
  ASSERT_EQ(ms[1]->info().sequencer, MachineId{0});
  cluster.machine(MachineId{0}).spawn("leave", [&] {
    EXPECT_TRUE(ms[0]->leave(sim::sec(1)).is_ok());
  });
  sim.run_for(sim::sec(1));
  EXPECT_EQ(ms[1]->info().members.size(), 2u);
  EXPECT_EQ(ms[1]->info().sequencer, MachineId{1});  // lowest id takes over
  EXPECT_EQ(ms[2]->info().sequencer, MachineId{1});
  // The new sequencer orders new traffic.
  bool sent = false;
  cluster.machine(MachineId{2}).spawn("send", [&] {
    sent = ms[2]->send_to_group(to_buffer("post-handoff")).is_ok();
  });
  sim.run_for(sim::sec(1));
  EXPECT_TRUE(sent);
}

TEST_F(EdgeFixture, LargePayloadRoundTrips) {
  net::Machine& m0 = cluster.add_machine("m0");
  net::Machine& m1 = cluster.add_machine("m1");
  std::unique_ptr<GroupMember> g0, g1;
  Buffer got;
  m0.spawn("founder", [&] {
    g0 = GroupMember::create(m0, cfg_for(2));
    while (true) {
      auto msg = g0->receive();
      if (!msg.is_ok()) break;
      if (msg->kind == MsgKind::data) got = msg->payload;
    }
  });
  m1.spawn("joiner", [&] {
    sim.sleep_for(sim::msec(10));
    auto res = GroupMember::join(m1, cfg_for(2));
    ASSERT_TRUE(res.is_ok());
    g1 = std::move(*res);
    Buffer big(100 * 1024, 0);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 31);
    }
    ASSERT_TRUE(g1->send_to_group(big).is_ok());
  });
  sim.run_for(sim::sec(3));
  ASSERT_EQ(got.size(), 100u * 1024u);
  EXPECT_EQ(got[12345], static_cast<std::uint8_t>(12345 * 31));
}

TEST_F(EdgeFixture, TryReceiveIsNonBlocking) {
  net::Machine& m = cluster.add_machine("m");
  m.spawn("solo", [&] {
    auto gm = GroupMember::create(m, cfg_for(1));
    EXPECT_FALSE(gm->try_receive().has_value());
    ASSERT_TRUE(gm->send_to_group(to_buffer("x")).is_ok());
    auto msg = gm->try_receive();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(to_string(msg->payload), "x");
    EXPECT_FALSE(gm->try_receive().has_value());
  });
  sim.run_for(sim::sec(1));
}

TEST_F(EdgeFixture, StatsCountSendsAndResets) {
  std::vector<std::unique_ptr<GroupMember>> ms(2);
  GroupConfig cfg = cfg_for(2);
  for (int i = 0; i < 2; ++i) {
    net::Machine& m = cluster.add_machine("m" + std::to_string(i));
    m.spawn("drv", [&, i] {
      if (i == 0) {
        ms[0] = GroupMember::create(m, cfg);
      } else {
        sim.sleep_for(sim::msec(5));
        while (!ms[1]) {
          auto r = GroupMember::join(m, cfg);
          if (r.is_ok()) {
            ms[1] = std::move(*r);
          } else {
            sim.sleep_for(sim::msec(10));
          }
        }
      }
      while (true) {
        auto res = ms[static_cast<std::size_t>(i)]->receive();
        if (!res.is_ok()) {
          (void)ms[static_cast<std::size_t>(i)]->reset_group(sim::sec(1));
        }
      }
    });
  }
  sim.run_for(sim::msec(100));
  obs::Counter& sends = cluster.metrics().counter("group", "sends");
  obs::Counter& resets = cluster.metrics().counter("group", "resets");
  const std::uint64_t sends_before = sends;
  const std::uint64_t resets_before = resets;
  cluster.machine(MachineId{1}).spawn("send", [&] {
    for (int k = 0; k < 3; ++k) {
      (void)ms[1]->send_to_group(to_buffer("x"));
    }
  });
  sim.run_for(sim::sec(1));
  EXPECT_EQ(sends - sends_before, 3u);
  EXPECT_EQ(resets, resets_before);
  cluster.crash(MachineId{0});
  sim.run_for(sim::sec(2));
  EXPECT_GE(resets - resets_before, 1u);
}

TEST_F(EdgeFixture, PrunedHistoryGapEscalatesToStateTransfer) {
  // Regression: a member that falls briefly out of contact — not long
  // enough to be declared failed — used to request retransmission of
  // records every peer had already pruned (tiny history_limit) and then
  // wait forever, because the retransmission server silently had nothing
  // below its watermark to send. The kernel now answers with an explicit
  // gap note; the lagging member fails itself and reports
  // needs_state_transfer so the application rejoins with a state transfer.
  GroupConfig cfg = cfg_for(3);
  cfg.resilience = 1;     // commits need only one surviving ack in the split
  cfg.history_limit = 8;  // the storm prunes far past the victim's watermark
  net::Machine& m0 = cluster.add_machine("m0");
  net::Machine& m1 = cluster.add_machine("m1");
  net::Machine& m2 = cluster.add_machine("m2");
  std::unique_ptr<GroupMember> g0, g1, g2;
  bool victim_failed = false;
  m0.spawn("founder", [&] {
    g0 = GroupMember::create(m0, cfg);
    while (g0->receive().is_ok()) {
    }
  });
  auto joiner = [&](net::Machine& m, std::unique_ptr<GroupMember>& g,
                    sim::Duration delay, bool* failed) {
    m.spawn("joiner", [&m, &g, delay, failed, cfg, this] {
      sim.sleep_for(delay);
      while (!g) {
        auto res = GroupMember::join(m, cfg);
        if (res.is_ok()) {
          g = std::move(*res);
        } else {
          sim.sleep_for(sim::msec(10));
        }
      }
      while (g->receive().is_ok()) {
      }
      if (failed != nullptr) *failed = true;
    });
  };
  joiner(m1, g1, sim::msec(5), nullptr);
  joiner(m2, g2, sim::msec(10), &victim_failed);
  m0.spawn("sender", [&] {
    sim.sleep_for(sim::msec(60));  // m2 is cut off by now
    for (int i = 0; i < 40; ++i) {
      (void)g0->send_to_group(to_buffer("m" + std::to_string(i)));
    }
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::msec(40));
    cluster.partition({{MachineId{0}, MachineId{1}}, {MachineId{2}}});
    // Shorter than miss_limit * heartbeat: nobody declares m2 failed, so
    // after healing m2 is still a member — just far behind.
    sim.sleep_for(sim::msec(150));
    cluster.heal();
  });
  sim.run_for(sim::sec(3));
  ASSERT_NE(g2, nullptr);
  EXPECT_TRUE(victim_failed) << "the victim's receive() never errored out";
  GroupInfo gi = g2->info();
  EXPECT_EQ(gi.state, MemberState::failed);
  EXPECT_TRUE(gi.needs_state_transfer);
}

}  // namespace
}  // namespace amoeba::group
