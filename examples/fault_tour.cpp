// A guided tour of the fault-tolerance behaviour the paper claims:
//   1. one replica dies          -> service continues (majority)
//   2. a network partition forms -> the minority side refuses even reads
//                                   (the paper's deleted-'foo' argument)
//   3. the partition heals       -> the minority replica recovers and sees
//                                   the update it missed
//   4. two replicas die          -> the service refuses everything
//
//   $ ./examples/fault_tour
#include <cstdio>

#include "dir/client.h"
#include "harness/testbed.h"

using namespace amoeba;

namespace {

struct App {
  harness::Testbed& bed;
  net::Machine& cm;
  std::unique_ptr<rpc::RpcClient> rpc;
  std::unique_ptr<dir::DirClient> dc;

  explicit App(harness::Testbed& b, int client) : bed(b), cm(b.client(client)) {}

  void step(const char* label, const std::function<void()>& fn) {
    bool done = false;
    cm.spawn(label, [&] {
      if (!rpc) {
        rpc = std::make_unique<rpc::RpcClient>(cm);
        dc = std::make_unique<dir::DirClient>(*rpc, bed.dir_port());
      }
      fn();
      done = true;
    });
    while (!done) bed.sim().run_for(sim::msec(100));
  }

  Status try_op(const std::function<Status()>& op, int tries = 40) {
    Status st;
    for (int i = 0; i < tries; ++i) {
      st = op();
      if (st.is_ok()) return st;
      bed.sim().sleep_for(sim::msec(200));
      rpc->flush_port_cache(bed.dir_port());
    }
    return st;
  }
};

}  // namespace

int main() {
  harness::Testbed bed({.flavor = harness::Flavor::group, .clients = 2});
  if (!bed.wait_ready()) return 1;
  std::printf("== group directory service up: 3 replicas, r=2 ==\n\n");

  App maj(bed, 0);  // client that stays with the majority side
  App min(bed, 1);  // client that ends up in the minority partition

  cap::Capability home;
  maj.step("setup", [&] {
    auto res = maj.try_op([&] {
      auto c = maj.dc->create_dir({"c"});
      if (c.is_ok()) home = *c;
      return c.status();
    });
    (void)maj.dc->append_row(home, "foo", {});
    std::printf("[t=%6.1fs] created /home with entry 'foo'\n",
                bed.sim().now() / 1e6);
  });

  // --- 1. one replica dies -------------------------------------------
  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  maj.step("after-crash", [&] {
    Status st = maj.try_op(
        [&] { return maj.dc->append_row(home, "bar", {}); });
    std::printf("[t=%6.1fs] replica dir2 crashed; append('bar') -> %s\n",
                bed.sim().now() / 1e6, st.to_string().c_str());
  });
  bed.cluster().restart(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(5));
  std::printf("[t=%6.1fs] dir2 restarted and re-joined (recovery protocol)\n",
              bed.sim().now() / 1e6);

  // --- 2. partition: dir2 + client1 on the small side ------------------
  bed.cluster().partition({{bed.dir_server(0).id(), bed.dir_server(1).id(),
                            bed.storage(0).id(), bed.storage(1).id(),
                            bed.storage(2).id(), bed.client(0).id()},
                           {bed.dir_server(2).id(), bed.client(1).id()}});
  bed.sim().run_for(sim::sec(2));
  std::printf("\n[t=%6.1fs] network partition: {dir0,dir1} | {dir2}\n",
              bed.sim().now() / 1e6);

  maj.step("delete-foo", [&] {
    Status st =
        maj.try_op([&] { return maj.dc->delete_row(home, "foo"); });
    std::printf("[t=%6.1fs] majority side deletes 'foo' -> %s\n",
                bed.sim().now() / 1e6, st.to_string().c_str());
  });

  min.step("minority-read", [&] {
    auto res = min.dc->lookup(home, "foo");
    std::printf("[t=%6.1fs] minority side reads 'foo'   -> %s "
                "(refused: no majority — NOT stale data!)\n",
                bed.sim().now() / 1e6, res.status().to_string().c_str());
  });

  // --- 3. heal -----------------------------------------------------------
  bed.cluster().heal();
  bed.sim().run_for(sim::sec(5));
  std::printf("\n[t=%6.1fs] partition healed; dir2 recovered\n",
              bed.sim().now() / 1e6);
  min.step("post-heal-read", [&] {
    min.rpc->flush_port_cache(bed.dir_port());
    Result<cap::Capability> res{Status::ok()};
    for (int i = 0; i < 40; ++i) {
      res = min.dc->lookup(home, "foo");
      if (res.is_ok() || res.code() == Errc::not_found) break;
      bed.sim().sleep_for(sim::msec(200));
      min.rpc->flush_port_cache(bed.dir_port());
    }
    std::printf("[t=%6.1fs] minority client reads 'foo' -> %s "
                "(the deletion is visible everywhere)\n",
                bed.sim().now() / 1e6, res.status().to_string().c_str());
  });

  // --- 4. lose the majority ----------------------------------------------
  bed.cluster().crash(bed.dir_server(0).id());
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::sec(2));
  min.step("no-majority", [&] {
    // The cached server may be one of the crashed ones: locate afresh, so
    // the surviving replica answers.
    min.rpc->flush_port_cache(bed.dir_port());
    auto res = min.dc->lookup(home, "bar");
    std::printf("\n[t=%6.1fs] dir0+dir1 crashed; any read -> %s "
                "(1 of 3 is not a majority)\n",
                bed.sim().now() / 1e6, res.status().to_string().c_str());
  });

  std::printf("\nfault tour complete\n");
  return 0;
}
