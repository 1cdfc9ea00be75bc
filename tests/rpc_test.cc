#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "harness/workload.h"
#include "rpc/rpc.h"

namespace amoeba::rpc {
namespace {

constexpr Port kEcho{100};

/// Echo server with configurable per-request service time and thread count.
void start_echo(net::Machine& m, sim::Duration service_time, int threads) {
  m.install_service("echo", [service_time, threads](net::Machine& mm) {
    auto server = std::make_shared<RpcServer>(mm, kEcho);
    for (int i = 0; i < threads; ++i) {
      mm.spawn("echo.t" + std::to_string(i), [server, service_time, &mm] {
        while (true) {
          IncomingRequest req = server->get_request();
          if (service_time > 0) mm.cpu().use(service_time);
          server->put_reply(req, req.data);
        }
      });
    }
    mm.sim().sleep_for(sim::kTimeMax / 2);  // keep the owner frame alive
  });
}

struct RpcFixture : ::testing::Test {
  sim::Simulator sim{11};
  net::Cluster cluster{sim};
};

TEST_F(RpcFixture, BasicEcho) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, 0, 1);
  Result<Buffer> out{Status::error(Errc::internal, "unset")};
  c.spawn("client", [&] {
    RpcClient rpc(c);
    out = rpc.trans(kEcho, to_buffer("ping"));
  });
  sim.run_until(sim::msec(500));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(to_string(*out), "ping");
}

TEST_F(RpcFixture, RoundTripIsAboutTwoPacketsPlusService) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(3), 1);
  sim::Time took = -1;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("warm"));  // locate + first call
    sim::Time t0 = sim.now();
    (void)rpc.trans(kEcho, to_buffer("ping"));
    took = sim.now() - t0;
  });
  sim.run_until(sim::msec(500));
  // ~1ms there + 3ms service + ~1ms back, plus jitter.
  EXPECT_GE(took, sim::msec(4));
  EXPECT_LE(took, sim::msec(8));
}

TEST_F(RpcFixture, LocateCachesServer) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, 0, 1);
  std::optional<net::MachineId> chosen;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("a"));
    chosen = rpc.current_server(kEcho);
    (void)rpc.trans(kEcho, to_buffer("b"));
  });
  sim.run_until(sim::msec(500));
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, s.id());
  // Exactly one broadcast (the single locate).
  EXPECT_EQ(cluster.metrics().counter("net", "broadcasts"), 1u);
}

TEST_F(RpcFixture, UnreachableWhenNoServer) {
  net::Machine& c = cluster.add_machine("client");
  cluster.add_machine("idle");
  Status st = Status::ok();
  c.spawn("client", [&] {
    RpcClient rpc(c);
    auto res = rpc.trans(Port{12345}, to_buffer("x"),
                         {.timeout = sim::msec(300)});
    st = res.status();
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(st.code(), Errc::unreachable);
}

TEST_F(RpcFixture, TimeoutWhenServerCrashesMidCall) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  Status st = Status::ok();
  c.spawn("client", [&] {
    RpcClient rpc(c);
    auto res = rpc.trans(kEcho, to_buffer("x"), {.timeout = sim::msec(300)});
    st = res.status();
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::msec(20));  // request has been queued by then
    cluster.crash(s.id());
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(st.code(), Errc::timeout);
}

TEST_F(RpcFixture, NothereFailsOverToSecondServer) {
  net::Machine& s1 = cluster.add_machine("s1");
  net::Machine& s2 = cluster.add_machine("s2");
  net::Machine& c = cluster.add_machine("client");
  // s1 has one very slow thread; s2 is fast.
  start_echo(s1, sim::msec(500), 1);
  start_echo(s2, 0, 1);
  int ok = 0;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    // First call may land anywhere and may be slow; the point is that
    // subsequent calls keep succeeding via NOTHERE failover.
    for (int i = 0; i < 3; ++i) {
      auto res = rpc.trans(kEcho, to_buffer("x"), {.timeout = sim::sec(2)});
      if (res.is_ok()) ok++;
    }
  });
  sim.run_until(sim::sec(10));
  EXPECT_EQ(ok, 3);
}

TEST_F(RpcFixture, BusySingleThreadServerSaysNothere) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c1 = cluster.add_machine("c1");
  net::Machine& c2 = cluster.add_machine("c2");
  start_echo(s, sim::msec(50), 1);
  Status st2 = Status::ok();
  c1.spawn("client1", [&] {
    RpcClient rpc(c1);
    (void)rpc.trans(kEcho, to_buffer("slow"));
  });
  c2.spawn("client2", [&] {
    sim.sleep_for(sim::msec(10));  // while c1's request is in service
    RpcClient rpc(c2);
    auto res = rpc.trans(kEcho, to_buffer("x"),
                         {.timeout = sim::msec(200), .max_failovers = 1});
    st2 = res.status();
  });
  sim.run_until(sim::sec(2));
  // With only one (busy) server and one failover allowed, the client ends
  // with `refused` after NOTHERE.
  EXPECT_EQ(st2.code(), Errc::refused);
}

TEST_F(RpcFixture, DuplicateDeliveryExecutesAtMostOnce) {
  // Force the network to duplicate every packet: the server must execute
  // each transaction once (dedupe by client/port/xid) and answer the
  // duplicate from its done-cache instead of re-running the handler — a
  // re-run of a non-idempotent update would corrupt state, and a NOTHERE
  // would make the client fail over and re-execute elsewhere.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  int executions = 0;
  RpcServer* srv = nullptr;
  s.install_service("count", [&](net::Machine& mm) {
    auto server = std::make_shared<RpcServer>(mm, kEcho);
    srv = server.get();
    mm.spawn("count.t", [server, &executions] {
      while (true) {
        IncomingRequest req = server->get_request();
        ++executions;
        server->put_reply(req, req.data);
      }
    });
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
  const int kCalls = 20;
  int ok = 0;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    if (rpc.trans(kEcho, to_buffer("warm")).is_ok()) ok++;
    cluster.net().set_dup_prob(1.0);
    for (int i = 0; i < kCalls; ++i) {
      auto res = rpc.trans(kEcho, to_buffer("m" + std::to_string(i)),
                           {.timeout = sim::sec(2)});
      if (res.is_ok() && to_string(*res) == "m" + std::to_string(i)) ok++;
    }
    cluster.net().set_dup_prob(0.0);
  });
  sim.run_until(sim::sec(20));
  EXPECT_EQ(ok, kCalls + 1);
  EXPECT_EQ(executions, kCalls + 1);
  ASSERT_NE(srv, nullptr);
  EXPECT_GT(srv->duplicates_filtered(), 0u);
}

TEST_F(RpcFixture, ManyConcurrentClients) {
  net::Machine& s = cluster.add_machine("server");
  start_echo(s, sim::msec(1), 4);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    net::Machine& c = cluster.add_machine("c" + std::to_string(i));
    c.spawn("client", [&done, &c] {
      RpcClient rpc(c);
      for (int k = 0; k < 10; ++k) {
        auto res = rpc.trans(kEcho, to_buffer("x"),
                             {.timeout = sim::sec(5), .max_failovers = 50});
        if (res.is_ok()) done++;
      }
    });
  }
  sim.run_until(sim::sec(20));
  EXPECT_EQ(done, 60);
}

TEST_F(RpcFixture, LargePayloadCostsMoreLatency) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, 0, 1);
  sim::Time small_t = 0, big_t = 0;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("w"));
    sim::Time t0 = sim.now();
    (void)rpc.trans(kEcho, Buffer(16, 0));
    small_t = sim.now() - t0;
    t0 = sim.now();
    (void)rpc.trans(kEcho, Buffer(8000, 0));  // ~6.4ms extra each way
    big_t = sim.now() - t0;
  });
  sim.run_until(sim::sec(2));
  EXPECT_GT(big_t, small_t + sim::msec(8));
}

TEST_F(RpcFixture, RepliesOutliveStaleXids) {
  // A reply arriving after its transaction timed out must not confuse the
  // next transaction.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  Result<Buffer> second{Status::error(Errc::internal, "unset")};
  c.spawn("client", [&] {
    RpcClient rpc(c);
    // Returns timeout while the server still works on it.
    (void)rpc.trans(kEcho, to_buffer("first"), {.timeout = sim::msec(30)});
    // The stale reply for "first" will arrive during this call.
    second = rpc.trans(kEcho, to_buffer("second"),
                       {.timeout = sim::sec(2), .max_failovers = 100});
  });
  sim.run_until(sim::sec(5));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(to_string(*second), "second");
}

}  // namespace
}  // namespace amoeba::rpc

// Sustained append-only load once crashed both RPC directory flavors
// within seconds of simulated time: a pooled allocation of exactly 4096
// bytes, the largest pool size class, indexed past the pool's freelist
// array and corrupted memory (see PoolTest in common_test).
namespace amoeba::harness {
namespace {

void expect_append_load_survives(Flavor flavor) {
  Testbed bed({.flavor = flavor, .clients = 1, .seed = 1});
  ASSERT_TRUE(bed.wait_ready());
  const ThroughputResult r =
      append_throughput(bed, sim::sec(1), sim::sec(20));
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.completed, 100u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(RpcDirAppendLoad, RpcSurvivesSustainedAppends) {
  expect_append_load_survives(Flavor::rpc);
}

TEST(RpcDirAppendLoad, RpcNvramSurvivesSustainedAppends) {
  expect_append_load_survives(Flavor::rpc_nvram);
}

}  // namespace
}  // namespace amoeba::harness
