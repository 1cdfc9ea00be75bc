// End-to-end tests of the three directory-service implementations through
// the public client API, on the standard simulated testbed.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "bullet/bullet.h"
#include "dir/client.h"
#include "dir/proto.h"
#include "harness/testbed.h"
#include "harness/workload.h"

namespace amoeba::harness {
namespace {

using dir::DirClient;

/// Run `body` as a client process and drive the simulation until it ends.
void run_client(Testbed& bed, int client_idx,
                const std::function<void(DirClient&)>& body,
                sim::Duration limit = sim::sec(60)) {
  bool done = false;
  net::Machine& cm = bed.client(client_idx);
  cm.spawn("testclient", [&] {
    rpc::RpcClient rpc(cm);
    DirClient dc(rpc, bed.dir_port());
    body(dc);
    done = true;
  });
  const sim::Time deadline = bed.sim().now() + limit;
  while (!done && bed.sim().now() < deadline) {
    bed.sim().run_for(sim::msec(100));
  }
  ASSERT_TRUE(done) << "client did not finish within the limit";
  ASSERT_TRUE(bed.sim().process_errors().empty())
      << bed.sim().process_errors().front();
}

class AllFlavors : public ::testing::TestWithParam<Flavor> {};

TEST_P(AllFlavors, CrudLifecycle) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 5});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap = harness::make_dir_retry(dc, bed.sim());
    ASSERT_TRUE(dcap.is_ok()) << dcap.status().to_string();

    cap::Capability file;
    file.port = net::Port{77};
    file.object = 9;
    file.rights = cap::kRightsAll;
    file.check = 0xabcd;

    ASSERT_TRUE(dc.append_row(*dcap, "readme", {file}).is_ok());
    auto got = dc.lookup(*dcap, "readme");
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got->object, 9u);

    auto listing = dc.list_dir(*dcap);
    ASSERT_TRUE(listing.is_ok());
    EXPECT_EQ(listing->rows.size(), 1u);
    EXPECT_EQ(listing->rows[0].name, "readme");
    EXPECT_EQ(listing->columns.size(), 3u);

    // Duplicate append refused.
    EXPECT_EQ(dc.append_row(*dcap, "readme", {file}).code(), Errc::exists);

    ASSERT_TRUE(dc.delete_row(*dcap, "readme").is_ok());
    EXPECT_EQ(dc.lookup(*dcap, "readme").code(), Errc::not_found);

    ASSERT_TRUE(dc.delete_dir(*dcap).is_ok());
    EXPECT_EQ(dc.list_dir(*dcap).code(), Errc::not_found);
  });
}

TEST_P(AllFlavors, CapabilityEnforcement) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 6});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap = harness::make_dir_retry(dc, bed.sim());
    ASSERT_TRUE(dcap.is_ok());
    cap::Capability forged = *dcap;
    forged.check ^= 1;
    EXPECT_EQ(dc.list_dir(forged).code(), Errc::bad_capability);
    EXPECT_EQ(dc.append_row(forged, "x", {}).code(), Errc::bad_capability);
    EXPECT_EQ(dc.delete_dir(forged).code(), Errc::bad_capability);
    // The true capability still works.
    EXPECT_TRUE(dc.list_dir(*dcap).is_ok());
  });
}

TEST_P(AllFlavors, ReplaceSetIsAtomic) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 7});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto d1 = harness::make_dir_retry(dc, bed.sim());
    auto d2 = dc.create_dir({"c"});
    ASSERT_TRUE(d1.is_ok());
    ASSERT_TRUE(d2.is_ok());
    cap::Capability a, b;
    a.object = 1;
    b.object = 2;
    ASSERT_TRUE(dc.append_row(*d1, "x", {a}).is_ok());
    ASSERT_TRUE(dc.append_row(*d2, "y", {a}).is_ok());

    // One target missing: nothing may change.
    cap::Capability na;
    na.object = 42;
    Status st = dc.replace_set({{*d1, "x", na}, {*d2, "missing", na}});
    EXPECT_FALSE(st.is_ok());
    EXPECT_EQ(dc.lookup(*d1, "x")->object, 1u);

    // Both present: both change.
    ASSERT_TRUE(dc.replace_set({{*d1, "x", na}, {*d2, "y", na}}).is_ok());
    EXPECT_EQ(dc.lookup(*d1, "x")->object, 42u);
    EXPECT_EQ(dc.lookup(*d2, "y")->object, 42u);
  });
}

TEST_P(AllFlavors, LookupSetIsAllOrNothing) {
  // A multi-target lookup with one missing row must fail as a whole —
  // never return a partial result whose rows silently misalign with the
  // requested targets (the client indexes the reply by target position).
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 7});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto d1 = harness::make_dir_retry(dc, bed.sim());
    auto d2 = dc.create_dir({"c"});
    ASSERT_TRUE(d1.is_ok());
    ASSERT_TRUE(d2.is_ok());
    cap::Capability a, b;
    a.object = 1;
    b.object = 2;
    ASSERT_TRUE(dc.append_row(*d1, "x", {a}).is_ok());
    ASSERT_TRUE(dc.append_row(*d2, "y", {b}).is_ok());

    // Missing target in the middle: the whole call refuses.
    auto partial = dc.lookup_set({{*d1, "x"}, {*d2, "missing"}, {*d2, "y"}});
    EXPECT_FALSE(partial.is_ok());
    EXPECT_EQ(partial.code(), Errc::not_found);

    // All present: results align with target order.
    auto full = dc.lookup_set({{*d2, "y"}, {*d1, "x"}});
    ASSERT_TRUE(full.is_ok());
    ASSERT_EQ(full->size(), 2u);
    ASSERT_FALSE((*full)[0].empty());
    ASSERT_FALSE((*full)[1].empty());
    EXPECT_EQ((*full)[0][0].object, 2u);
    EXPECT_EQ((*full)[1][0].object, 1u);

    // A bad capability on any target also fails the whole set.
    cap::Capability forged = *d1;
    forged.check ^= 1;
    auto bad = dc.lookup_set({{forged, "x"}, {*d2, "y"}});
    EXPECT_FALSE(bad.is_ok());
  });
}

TEST_P(AllFlavors, ChmodRestrictsStoredCapability) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 8});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap = harness::make_dir_retry(dc, bed.sim());
    ASSERT_TRUE(dcap.is_ok());
    cap::Capability stored;
    stored.object = 5;
    stored.rights = cap::kRightsAll;
    ASSERT_TRUE(dc.append_row(*dcap, "f", {stored}).is_ok());
    ASSERT_TRUE(dc.chmod_row(*dcap, "f", 0, cap::kRightRead).is_ok());
    auto got = dc.lookup(*dcap, "f");
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got->rights, cap::kRightRead);
  });
}

/// Served reads and writes summed over every directory server's stats.
std::pair<std::uint64_t, std::uint64_t> served_ops(Testbed& bed) {
  std::pair<std::uint64_t, std::uint64_t> n{0, 0};
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    net::Machine& m = bed.dir_server(i);
    switch (bed.options().flavor) {
      case Flavor::group:
      case Flavor::group_nvram:
        n.first += dir::group_dir_stats(m).reads;
        n.second += dir::group_dir_stats(m).writes;
        break;
      case Flavor::rpc:
      case Flavor::rpc_nvram:
        n.first += dir::rpc_dir_stats(m).reads;
        n.second += dir::rpc_dir_stats(m).writes;
        break;
      case Flavor::nfs:
        n.first += dir::nfs_dir_stats(m).reads;
        n.second += dir::nfs_dir_stats(m).writes;
        break;
    }
  }
  return n;
}

/// The server-side op span layer of the testbed's flavor.
const char* op_layer(Flavor f) {
  switch (f) {
    case Flavor::group:
    case Flavor::group_nvram: return "dir.group";
    case Flavor::rpc:
    case Flavor::rpc_nvram: return "dir.rpc";
    case Flavor::nfs: return "dir.nfs";
  }
  return "";
}

/// Events of `layer` recorded in causal trace `trace`, optionally only
/// those named `name`.
std::size_t layer_events(Testbed& bed, std::uint64_t trace, const char* layer,
                         const char* name = nullptr) {
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : bed.trace().events()) {
    if (ev.trace == trace && std::strcmp(ev.cat, layer) == 0 &&
        (name == nullptr || std::strcmp(ev.name, name) == 0)) {
      ++n;
    }
  }
  return n;
}

TEST_P(AllFlavors, MalformedRequestRepliedBadRequestUncounted) {
  // An unknown op byte and an empty body reach the client port over the
  // wire: each is answered bad_request before any op span, CPU charge or
  // count.
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 11});
  ASSERT_TRUE(bed.wait_ready());
  const auto before = served_ops(bed);
  const std::uint64_t mx_reads_before =
      bed.metrics().snapshot()[std::string(op_layer(GetParam())) + ".reads"];
  std::vector<std::uint64_t> traces;
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("malformed", [&] {
    rpc::RpcClient rpc(cm);
    obs::Trace& tr = cm.trace();
    for (const Buffer& request : {Buffer{0xee, 0x01}, Buffer{}}) {
      const obs::TraceContext root{tr.start_trace().trace, tr.new_span_id()};
      auto res = rpc.trans(bed.dir_port(), request, {}, root);
      ASSERT_TRUE(res.is_ok()) << res.status().to_string();
      EXPECT_EQ(dir::reply_status(*res).code(), Errc::bad_request);
      traces.push_back(root.trace);
    }
    done = true;
  });
  bed.sim().run_for(sim::sec(5));
  ASSERT_TRUE(done);
  ASSERT_EQ(traces.size(), 2u);
  for (std::uint64_t t : traces) {
    EXPECT_EQ(layer_events(bed, t, op_layer(GetParam())), 0u);
    EXPECT_EQ(layer_events(bed, t, "cpu"), 0u);
  }
  EXPECT_EQ(served_ops(bed), before);
  EXPECT_EQ(
      bed.metrics().snapshot()[std::string(op_layer(GetParam())) + ".reads"],
      mx_reads_before);
}

INSTANTIATE_TEST_SUITE_P(Impl, AllFlavors,
                         ::testing::Values(Flavor::group, Flavor::group_nvram,
                                           Flavor::rpc, Flavor::rpc_nvram,
                                           Flavor::nfs),
                         [](const auto& info) {
                           switch (info.param) {
                             case Flavor::group: return "Group";
                             case Flavor::group_nvram: return "GroupNvram";
                             case Flavor::rpc: return "Rpc";
                             case Flavor::rpc_nvram: return "RpcNvram";
                             case Flavor::nfs: return "Nfs";
                           }
                           return "Unknown";
                         });

TEST(GroupDirService, RefusedOpClosesRefusedSpanUncounted) {
  // Without a majority the initiator refuses a well-formed op: the op span
  // is named "refused" and neither the stats nor the metrics count it.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 12});
  ASSERT_TRUE(bed.wait_ready());
  cap::Capability dcap;
  run_client(bed, 0, [&](DirClient& dc) {
    auto d = harness::make_dir_retry(dc, bed.sim());
    ASSERT_TRUE(d.is_ok());
    dcap = *d;
  });
  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(2));
  const auto before = served_ops(bed);
  const auto mx_before = bed.metrics().snapshot();
  const std::uint64_t refused_before =
      dir::group_dir_stats(bed.dir_server(0)).refused_no_majority;

  std::vector<std::uint64_t> traces;
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("refused", [&] {
    rpc::RpcClient rpc(cm);
    obs::Trace& tr = cm.trace();
    for (const Buffer& request :
         {dir::make_list_dir(dcap), dir::make_create_dir({"c"})}) {
      const obs::TraceContext root{tr.start_trace().trace, tr.new_span_id()};
      auto res = rpc.trans(bed.dir_port(), request, {}, root);
      ASSERT_TRUE(res.is_ok()) << res.status().to_string();
      EXPECT_EQ(dir::reply_status(*res).code(), Errc::no_majority);
      traces.push_back(root.trace);
    }
    done = true;
  });
  bed.sim().run_for(sim::sec(5));
  ASSERT_TRUE(done);
  ASSERT_EQ(traces.size(), 2u);
  for (std::uint64_t t : traces) {
    EXPECT_EQ(layer_events(bed, t, "dir.group", "refused"), 1u);
    EXPECT_EQ(layer_events(bed, t, "dir.group"), 1u);
  }
  EXPECT_EQ(dir::group_dir_stats(bed.dir_server(0)).refused_no_majority,
            refused_before + 2);
  EXPECT_EQ(served_ops(bed), before);
  auto mx_after = bed.metrics().snapshot();
  EXPECT_EQ(mx_after["dir.group.reads"], mx_before.at("dir.group.reads"));
  EXPECT_EQ(mx_after["dir.group.writes"], mx_before.at("dir.group.writes"));
}

TEST(GroupDirService, ReadYourWritesAcrossServers) {
  // The paper's Sec. 3.1 scenario: a client deletes a directory through one
  // server and immediately reads through another; the buffered-messages
  // barrier must make the delete visible.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 9});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap = harness::make_dir_retry(dc, bed.sim());
    ASSERT_TRUE(dcap.is_ok());
    // Force different servers for consecutive ops by flushing the client's
    // port cache between them.
    cap::Capability payload;
    payload.object = 123;
    for (int round = 0; round < 10; ++round) {
      std::string name = "n" + std::to_string(round);
      ASSERT_TRUE(dc.append_row(*dcap, name, {payload}).is_ok());
      dc.rpc().flush_port_cache(bed.dir_port());  // likely another server
      auto got = dc.lookup(*dcap, name);
      ASSERT_TRUE(got.is_ok())
          << "round " << round << ": " << got.status().to_string();
      ASSERT_TRUE(dc.delete_row(*dcap, name).is_ok());
      dc.rpc().flush_port_cache(bed.dir_port());
      EXPECT_EQ(dc.lookup(*dcap, name).code(), Errc::not_found)
          << "stale read after delete, round " << round;
    }
  });
}

}  // namespace
}  // namespace amoeba::harness
