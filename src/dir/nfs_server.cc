#include "dir/nfs_server.h"

#include <memory>

#include "bullet/bullet.h"
#include "common/log.h"
#include "dir/proto.h"
#include "dir/serve.h"
#include "disk/vdisk.h"
#include "rpc/rpc.h"

namespace amoeba::dir {

namespace {

using net::Machine;

struct NfsCtx {
  Machine& machine;
  NfsDirOptions opts;
  DirState state;
  std::uint64_t seqno = 0;
  disk::VirtualDisk* disk = nullptr;
  NfsDirStats* stats = nullptr;

  // Local "file system" objects for the tmp-file experiment.
  struct FileEntry {
    std::uint64_t secret;
    Buffer data;
  };
  std::map<std::uint32_t, FileEntry>* files = nullptr;
  std::uint32_t next_file = 1;

  NfsCtx(Machine& m, NfsDirOptions o)
      : machine(m), opts(std::move(o)), state(opts.dir_port) {}
};

/// One client op: a read from the RAM state, or an apply plus one
/// synchronous metadata write, as SunOS does for directories.
Handled handle_op(NfsCtx& ctx, const rpc::IncomingRequest& req, DirOp op,
                  obs::TraceContext octx) {
  if (is_read_op(op)) return {ctx.state.execute_read(req.data), "read", true};
  DirState::ApplyEffect effect;
  const std::uint64_t secret = ctx.machine.sim().rng().next();
  Buffer reply = ctx.state.apply(req.data, secret, ++ctx.seqno, &effect);
  if (effect.any_change) {
    std::uint32_t block =
        effect.touched.empty()
            ? (effect.deleted.empty() ? 0 : effect.deleted.front())
            : effect.touched.front();
    Directory* d =
        effect.touched.empty() ? nullptr : ctx.state.directory(block);
    (void)ctx.disk->write_block(block, d ? d->serialize() : Buffer{}, octx);
  }
  return {std::move(reply), "write", true};
}

void file_loop(NfsCtx& ctx, rpc::RpcServer& server) {
  obs::Counter& mx_file_ops =
      ctx.machine.metrics().counter("dir.nfs", "file_ops");
  while (true) {
    rpc::IncomingRequest req = server.get_request();
    Buffer reply;
    try {
      Reader r(req.data);
      auto op = static_cast<bullet::BulletOp>(r.u8());
      Writer w;
      switch (op) {
        case bullet::BulletOp::create: {
          Buffer data = r.bytes();
          // Data is write-behind; only the inode/indirect block is
          // synchronous — hence the smaller cost than a full disk write.
          ctx.machine.cpu().use(sim::msec(1));
          ctx.machine.sim().sleep_for(ctx.opts.file_create_disk);
          const std::uint32_t obj = ctx.next_file++;
          const std::uint64_t secret =
              ctx.machine.sim().rng().next() & cap::CheckScheme::kCheckMask;
          (*ctx.files)[obj] = NfsCtx::FileEntry{secret, std::move(data)};
          cap::Capability c;
          c.port = ctx.opts.file_port;
          c.object = obj;
          c.rights = cap::kRightsAll;
          c.check = cap::CheckScheme::make_check(secret, cap::kRightsAll);
          w.u8(static_cast<std::uint8_t>(Errc::ok));
          c.encode(w);
          break;
        }
        case bullet::BulletOp::read: {
          cap::Capability c = cap::Capability::decode(r);
          ctx.machine.cpu().use(sim::msec(1));
          auto it = ctx.files->find(c.object);
          if (it == ctx.files->end()) {
            w.u8(static_cast<std::uint8_t>(Errc::not_found));
          } else if (!cap::CheckScheme::verify(c, it->second.secret)) {
            w.u8(static_cast<std::uint8_t>(Errc::bad_capability));
          } else {
            w.u8(static_cast<std::uint8_t>(Errc::ok));
            w.bytes(it->second.data);
          }
          break;
        }
        case bullet::BulletOp::del: {
          cap::Capability c = cap::Capability::decode(r);
          ctx.machine.cpu().use(sim::msec(1));
          ctx.files->erase(c.object);
          w.u8(static_cast<std::uint8_t>(Errc::ok));
          break;
        }
        default:
          w.u8(static_cast<std::uint8_t>(Errc::bad_request));
      }
      reply = w.take();
    } catch (const DecodeError&) {
      reply = reply_error(Errc::bad_request);
    }
    server.put_reply(req, std::move(reply));
    ctx.stats->file_ops++;
    ++mx_file_ops;
  }
}

void service_main(Machine& machine, NfsDirOptions opts) {
  NfsCtx ctx(machine, std::move(opts));
  auto& stats = machine.persistent<NfsDirStats>(
      "nfs_dir.stats", [] { return std::make_unique<NfsDirStats>(); });
  stats = NfsDirStats{};
  ctx.stats = &stats;
  disk::DiskConfig dcfg;
  dcfg.write_latency = ctx.opts.dir_write_disk;
  ctx.disk = &machine.persistent<disk::VirtualDisk>(
      "nfs.disk", [&machine, dcfg] {
        return std::make_unique<disk::VirtualDisk>(machine.sim(), "nfs.disk",
                                                   dcfg);
      });
  ctx.disk->attach_obs(&machine.metrics(), &machine.trace(), machine.id().v);
  ctx.files = &machine.persistent<std::map<std::uint32_t, NfsCtx::FileEntry>>(
      "nfs.files",
      [] { return std::make_unique<std::map<std::uint32_t, NfsCtx::FileEntry>>(); });

  auto dir_srv = std::make_shared<rpc::RpcServer>(machine, ctx.opts.dir_port);
  auto file_srv =
      std::make_shared<rpc::RpcServer>(machine, ctx.opts.file_port);
  for (int i = 0; i < ctx.opts.server_threads; ++i) {
    machine.spawn("nfs.dir" + std::to_string(i), [&ctx, dir_srv] {
      serve_loop(ctx.machine, *dir_srv, "dir.nfs", ctx.opts.cpu_read,
                 ctx.opts.cpu_write, ctx.stats->reads, ctx.stats->writes,
                 [&ctx](const rpc::IncomingRequest& req, DirOp op,
                        obs::TraceContext octx) {
                   return handle_op(ctx, req, op, octx);
                 });
    });
  }
  for (int i = 0; i < 2; ++i) {
    machine.spawn("nfs.file" + std::to_string(i),
                  [&ctx, file_srv] { file_loop(ctx, *file_srv); });
  }
  machine.sim().sleep_for(sim::kTimeMax / 2);  // keep the ctx frame alive
}

}  // namespace

void install_nfs_dir_server(Machine& machine, NfsDirOptions opts) {
  machine.install_service("nfs_dir",
                          [opts](Machine& m) { service_main(m, opts); });
}

const NfsDirStats& nfs_dir_stats(net::Machine& machine) {
  return machine.persistent<NfsDirStats>(
      "nfs_dir.stats", [] { return std::make_unique<NfsDirStats>(); });
}

}  // namespace amoeba::dir
