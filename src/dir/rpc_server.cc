#include "dir/rpc_server.h"

#include <deque>
#include <memory>
#include <optional>

#include "common/log.h"
#include "dir/persist.h"
#include "dir/proto.h"
#include "dir/serve.h"
#include "sim/waitq.h"

namespace amoeba::dir {

namespace {

using net::Machine;

using PeerOp = RpcPeerOp;
using nvlog::request_target;

/// The intentions slot is the only raw-partition block the RPC service
/// uses; directory metadata lives inside the (self-describing) bullet
/// files, so an update costs exactly the paper's three disk operations:
/// intentions at the peer, the local copy, and the lazy peer copy.
constexpr std::uint32_t kIntentBlock = 0;

struct RpcServerCtx {
  Machine& machine;
  RpcDirOptions opts;
  int my_index;
  int peer_index;
  DirState state;
  std::uint64_t last_seqno = 0;

  bool update_lock = false;
  sim::WaitQueue lock_wq;
  bool peer_down = false;

  /// Background work: produce this server's disk copy of an object applied
  /// via an intent (peer side), or delete a removed object's file.
  struct LazyTask {
    std::uint32_t obj = 0;               // object to copy (0 = none)
    cap::Capability obsolete;            // file to remove afterwards
  };
  std::deque<LazyTask> lazy_q;
  sim::WaitQueue lazy_wq;

  sim::Time last_client_op = 0;
  RpcDirStats* stats = nullptr;

  std::optional<NvramWriteBack> wb;  // NVRAM mode (use_nvram)

  // Hot-path counter handles, interned once at construction so the request
  // loops never hash a metric name.
  obs::Counter& mx_intents;
  obs::Counter& mx_conflicts;
  obs::Counter& mx_flushes;

  RpcServerCtx(Machine& m, RpcDirOptions o, int idx)
      : machine(m),
        opts(std::move(o)),
        my_index(idx),
        peer_index(1 - idx),
        state(opts.dir_port),
        lock_wq(m.sim()),
        lazy_wq(m.sim()),
        mx_intents(m.metrics().counter("dir.rpc", "intents_received")),
        mx_conflicts(m.metrics().counter("dir.rpc", "conflicts")),
        mx_flushes(m.metrics().counter("dir.rpc", "flushes")) {}

  sim::Simulator& sim() { return machine.sim(); }
  sim::Time now() { return machine.sim().now(); }

  void lock() {
    while (update_lock) lock_wq.wait();
    update_lock = true;
  }

  /// lock() that records the contended wait as a lock_wait-leg span.
  void lock_traced(obs::TraceContext parent) {
    const sim::Time t0 = now();
    lock();
    trace_lock_wait(t0, parent);
  }
  /// The peer-request side of the lock (paper Sec. 1), traced like
  /// lock_traced. Server 0 refuses a conflicting request at once; server 1
  /// waits a bounded time, which gives server 0's updates priority and
  /// breaks the symmetric-initiation livelock without deadlock (0's refusal
  /// unwinds the cycle). Returns false when the lock stayed busy.
  bool lock_for_peer(obs::TraceContext parent = {}) {
    const sim::Time t0 = now();
    const sim::Time deadline = t0 + (my_index == 0 ? 0 : sim::msec(120));
    while (update_lock) {
      if (now() >= deadline) return false;
      lock_wq.wait_until(deadline);
    }
    update_lock = true;
    trace_lock_wait(t0, parent);
    return true;
  }
  void trace_lock_wait(sim::Time t0, obs::TraceContext parent) {
    if (parent.active() && now() > t0) {
      obs::Trace& tr = machine.trace();
      tr.complete(t0, now() - t0, "lock", "update_lock", machine.id().v, 0,
                  parent.trace, tr.new_span_id(), parent.span,
                  obs::Leg::lock_wait);
    }
  }
  void unlock() {
    update_lock = false;
    lock_wq.notify_all();  // both local initiators and peer-intent handlers
  }
  /// Releases the update lock when the holding scope ends.
  struct Unlock {
    RpcServerCtx* c;
    ~Unlock() { c->unlock(); }
  };
};

/// Self-describing on-disk form of a directory: object number, check
/// secret, contents (which already embed the seqno).
Buffer wrap_dir(std::uint32_t obj, std::uint64_t secret, const Directory& d) {
  Writer w;
  w.u32(obj);
  w.u64(secret);
  d.encode(w);
  return w.take();
}

struct Unwrapped {
  std::uint32_t obj;
  std::uint64_t secret;
  Directory dir;
};

Result<Unwrapped> unwrap_dir(const Buffer& b) {
  try {
    Reader r(b);
    Unwrapped u;
    u.obj = r.u32();
    u.secret = r.u64();
    u.dir = Directory::decode(r);
    return u;
  } catch (const DecodeError&) {
    return Status::error(Errc::bad_request, "not a directory file");
  }
}

/// Write this server's disk copy of `obj` (a new self-describing bullet
/// file) and record it in the object table. Returns the superseded file.
Result<cap::Capability> copy_object(RpcServerCtx& ctx, Storage& st,
                                    std::uint32_t obj,
                                    obs::TraceContext tctx = {}) {
  ObjectEntry* e = ctx.state.entry(obj);
  Directory* d = ctx.state.directory(obj);
  if (e == nullptr || d == nullptr) {
    return Status::error(Errc::internal, "copy of unknown object");
  }
  return write_copy(ctx.state, st, obj, wrap_dir(obj, e->secret, *d), tctx);
}

// ------------------------------------------------------------ lazy worker

void lazy_loop(RpcServerCtx& ctx) {
  Storage st(ctx);
  while (true) {
    while (ctx.lazy_q.empty()) ctx.lazy_wq.wait();
    RpcServerCtx::LazyTask task = ctx.lazy_q.front();
    ctx.lazy_q.pop_front();
    if (task.obj != 0) {
      // Coalesce: the copy below reflects the current state, so any queued
      // copies of the same object are subsumed.
      std::erase_if(ctx.lazy_q, [&](const RpcServerCtx::LazyTask& t) {
        return t.obj == task.obj;
      });
      if (ctx.state.entry(task.obj) != nullptr) {
        retire(st, copy_object(ctx, st, task.obj));
      }
    }
    if (!task.obsolete.is_null()) (void)st.bullet.del(task.obsolete);
    ctx.stats->lazy_finalizes++;
  }
}

// ------------------------------------------------------------ peer service

void install_snapshot(RpcServerCtx& ctx, Storage& st, const Buffer& snap,
                      std::uint64_t peer_seqno);

Buffer handle_peer(RpcServerCtx& ctx, Storage& st, const Buffer& request,
                   obs::TraceContext tctx = {}) {
  try {
    Reader r(request);
    auto op = static_cast<PeerOp>(r.u8());
    switch (op) {
      case PeerOp::intent: {
        const std::uint64_t seqno = r.u64();
        const std::uint64_t secret = r.u64();
        Buffer dir_request = r.bytes();
        // Peer-side residence span: child of the intent request's wire
        // span; lock wait, apply CPU and the intentions write nest under
        // it, so the initiator's tree shows where the peer spent the time.
        obs::Trace& tr = ctx.machine.trace();
        const sim::Time t0 = ctx.now();
        const std::uint64_t sp = tctx.active() ? tr.new_span_id() : 0;
        const obs::TraceContext ictx{tctx.trace, sp};
        const auto close = [&](Buffer reply) {
          if (sp != 0) {
            tr.complete(t0, ctx.now() - t0, "dir.rpc", "intent",
                        ctx.machine.id().v, seqno, ictx.trace, sp, tctx.span);
          }
          return reply;
        };
        // Busy performing a conflicting operation (paper Sec. 1).
        if (!ctx.lock_for_peer(ictx)) {
          ctx.stats->conflicts++;
          ++ctx.mx_conflicts;
          return close(reply_error(Errc::refused));
        }
        const RpcServerCtx::Unlock unlock{&ctx};
        ctx.peer_down = false;  // peer traffic proves the peer is alive
        if (seqno != ctx.last_seqno + 1) {
          // We missed updates (we restarted, or the initiator wrote while we
          // were unreachable): a delta on the wrong baseline would corrupt
          // our state. Refuse; the initiator pushes its full state first.
          return close(reply_error(Errc::conflict));
        }
        ctx.stats->intents_received++;
        ++ctx.mx_intents;
        // An intent is update traffic here too: the NVRAM flusher must not
        // take the peer for idle while the initiator is busy.
        ctx.last_client_op = ctx.now();
        traced_cpu(ctx.machine, ctx.opts.cpu_apply, ictx);
        // Store the intentions (update + new seqno) durably, then apply to
        // the RAM state; the disk copy of the directory follows lazily.
        if (!ctx.wb) {
          Writer iw;
          iw.u64(seqno);
          iw.u64(secret);
          iw.bytes(dir_request);
          Status ds = st.disk.write_block(kIntentBlock, iw.take(), ictx);
          if (!ds.is_ok()) return close(reply_error(ds.code()));
        }
        cap::Capability obsolete = cap::kNullCap;
        if (auto pop = peek_op(dir_request);
            pop.is_ok() && *pop == DirOp::delete_dir) {
          if (ObjectEntry* e = ctx.state.entry(request_target(dir_request))) {
            obsolete = e->bullet;
          }
        }
        DirState::ApplyEffect effect;
        (void)ctx.state.apply(dir_request, secret, seqno, &effect);
        ctx.last_seqno = std::max(ctx.last_seqno, seqno);
        if (ctx.wb) {
          // NVRAM intentions double as the deferred local copy. Only state
          // changes are logged: a logged failed append would be what a
          // later delete_row cancels, leaving the successful one to replay.
          if (effect.any_change) {
            ctx.wb->log(st, dir_request, secret, seqno, effect, ictx);
          }
          if (!obsolete.is_null()) (void)st.bullet.del(obsolete);
          return close(reply_ok());
        }
        for (std::uint32_t obj : effect.touched) {
          ctx.lazy_q.push_back({obj, cap::kNullCap});
        }
        if (!obsolete.is_null()) ctx.lazy_q.push_back({0, obsolete});
        ctx.lazy_wq.notify_one();
        return close(reply_ok());
      }
      case PeerOp::resync: {
        Writer w;
        w.u8(static_cast<std::uint8_t>(Errc::ok));
        w.u64(ctx.last_seqno);
        w.bytes(ctx.state.snapshot());
        return w.take();
      }
      case PeerOp::push_state: {
        const std::uint64_t seqno = r.u64();
        Buffer snap = r.bytes();
        if (!ctx.lock_for_peer()) return reply_error(Errc::refused);
        const RpcServerCtx::Unlock unlock{&ctx};
        // The pushing peer is alive and, once this exchange completes, up to
        // date — so updates must re-engage it via intents from here on.
        // Clearing the flag under the lock closes the stale-read window a
        // rebooted peer would otherwise have while we kept writing solo.
        ctx.peer_down = false;
        if (seqno > ctx.last_seqno) install_snapshot(ctx, st, snap, seqno);
        Writer w;
        w.u8(static_cast<std::uint8_t>(Errc::ok));
        w.u64(ctx.last_seqno);
        w.bytes(ctx.last_seqno > seqno ? ctx.state.snapshot() : Buffer{});
        return w.take();
      }
    }
    return reply_error(Errc::bad_request);
  } catch (const DecodeError&) {
    return reply_error(Errc::bad_request);
  }
}

// ------------------------------------------------------------- initiators

bool sync_with_peer(RpcServerCtx& ctx, Storage& st);

/// One client op at this server: a read from the RAM state, or an update
/// serialized here, acked as an intention by the peer, then applied.
Handled handle_op(RpcServerCtx& ctx, Storage& st,
                  const rpc::IncomingRequest& req, DirOp op,
                  obs::TraceContext octx) {
  ctx.last_client_op = ctx.now();
  if (is_read_op(op)) return {ctx.state.execute_read(req.data), "read", true};

  // Update: serialize locally, get the peer's intentions ack, apply.
  for (int attempt = 0; attempt <= ctx.opts.update_retries; ++attempt) {
    ctx.lock_traced(octx);
    const std::uint64_t seqno = ctx.last_seqno + 1;
    const std::uint64_t secret = ctx.sim().rng().next();

    Status peer_st = Status::ok();
    if (!ctx.peer_down) {
      Writer w;
      w.u8(static_cast<std::uint8_t>(PeerOp::intent));
      w.u64(seqno);
      w.u64(secret);
      w.bytes(req.data);
      auto res = st.rpc.trans(admin_port(ctx.opts, ctx.peer_index), w.take(),
                              {.timeout = ctx.opts.peer_timeout}, octx);
      if (res.is_ok()) {
        peer_st = reply_status(*res);
      } else {
        // Peer unreachable: carry on alone (no partition tolerance).
        ctx.peer_down = true;
        ctx.stats->peer_down_writes++;
      }
    } else {
      ctx.stats->peer_down_writes++;
    }

    if (!peer_st.is_ok() && peer_st.code() == Errc::refused) {
      // Conflicting update initiated at the peer; back off and retry.
      // Asymmetric backoff (higher-indexed server defers longer) breaks
      // the livelock when both servers initiate simultaneously.
      ctx.unlock();
      ctx.sim().sleep_for(
          sim::msec(4) + sim::msec(8) * ctx.my_index +
          static_cast<sim::Duration>(ctx.sim().rng().below(8000)));
      continue;
    }
    if (!peer_st.is_ok() && peer_st.code() == Errc::conflict) {
      // The peer missed updates (it restarted, or we wrote while it was
      // unreachable): converge states, then retry with a fresh seqno.
      (void)sync_with_peer(ctx, st);
      ctx.unlock();
      continue;
    }
    if (!peer_st.is_ok()) {
      ctx.unlock();
      return {reply_error(peer_st.code()), "write", false};
    }

    // Peer committed the intentions: perform the update.
    cap::Capability deleted_file = cap::kNullCap;
    if (op == DirOp::delete_dir) {
      if (ObjectEntry* e = ctx.state.entry(request_target(req.data))) {
        deleted_file = e->bullet;
      }
    }
    DirState::ApplyEffect effect;
    Buffer reply = ctx.state.apply(req.data, secret, seqno, &effect);
    ctx.last_seqno = seqno;
    if (ctx.wb) {
      // Local copy deferred: the NVRAM record is the durability. As at the
      // peer, only state changes are logged.
      if (effect.any_change) {
        ctx.wb->log(st, req.data, secret, seqno, effect, octx);
      }
    } else {
      for (std::uint32_t obj : effect.touched) {
        retire(st, copy_object(ctx, st, obj, octx));
      }
    }
    if (!deleted_file.is_null()) (void)st.bullet.del(deleted_file);
    ctx.unlock();
    return {std::move(reply), "write", true};
  }
  return {reply_error(Errc::refused), "write", false};
}

// ------------------------------------------------------------- boot/resync

void install_snapshot(RpcServerCtx& ctx, Storage& st, const Buffer& snap,
                      std::uint64_t peer_seqno) {
  // Drop any files we currently own, then write fresh copies of the
  // authoritative state to our bullet server.
  auto existing = st.bullet.list();
  if (existing.is_ok()) {
    for (const auto& f : *existing) (void)st.bullet.del(f.cap);
  }
  ctx.state = DirState::from_snapshot(snap, ctx.opts.dir_port);
  ctx.last_seqno = peer_seqno;
  if (ctx.wb) ctx.wb->clear();  // superseded by the snapshot
  for (const auto& [obj, e] : ctx.state.table()) {
    (void)copy_object(ctx, st, obj);
  }
  ctx.stats->resyncs++;
  ctx.machine.metrics().counter("dir.rpc", "resyncs")++;
  ctx.machine.trace().instant(ctx.now(), "dir.rpc", "resync",
                              ctx.machine.id().v);
}

/// Exchange state with the peer so the replicas converge after a
/// missed-update window (a restart, or writes committed while the peer was
/// unreachable). Pushes our state; the peer installs it iff it is behind
/// and replies with its own state iff it is ahead, which we then install.
/// Caller holds the update lock. Returns true when the exchange completed.
bool sync_with_peer(RpcServerCtx& ctx, Storage& st) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(PeerOp::push_state));
  w.u64(ctx.last_seqno);
  w.bytes(ctx.state.snapshot());
  auto res = st.rpc.trans(admin_port(ctx.opts, ctx.peer_index), w.take(),
                          {.timeout = ctx.opts.peer_timeout});
  if (!res.is_ok()) return false;
  try {
    Reader r(*res);
    if (static_cast<Errc>(r.u8()) != Errc::ok) return false;
    const std::uint64_t peer_seqno = r.u64();
    Buffer snap = r.bytes();
    if (peer_seqno > ctx.last_seqno && !snap.empty()) {
      install_snapshot(ctx, st, snap, peer_seqno);
    }
    ctx.stats->state_pushes++;
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

void load_and_resync(RpcServerCtx& ctx, Storage& st) {
  // Reconstruct the object table by enumerating our bullet server: the
  // files are self-describing.
  auto files = st.bullet.list();
  if (files.is_ok()) {
    for (const auto& f : *files) {
      auto u = unwrap_dir(f.data);
      if (!u.is_ok()) continue;
      ObjectEntry e;
      e.in_use = true;
      e.secret = u->secret;
      e.seqno = u->dir.seqno;
      e.bullet = f.cap;
      ctx.state.put(u->obj, e, std::move(u->dir));
    }
  }
  ctx.last_seqno = ctx.state.max_dir_seqno();

  if (ctx.wb) {
    // NVRAM mode: the log holds both our deferred copies and any acked
    // intentions; replay it on top of the disk state.
    ctx.last_seqno = std::max(ctx.last_seqno, ctx.wb->recover(ctx.state));
  }

  // Replay a pending intention (we may have crashed after acking it).
  auto intent = st.disk.read_block(kIntentBlock);
  if (intent.is_ok() && !intent->empty()) {
    try {
      Reader r(*intent);
      const std::uint64_t seqno = r.u64();
      const std::uint64_t secret = r.u64();
      Buffer dir_request = r.bytes();
      if (seqno > ctx.last_seqno) {
        DirState::ApplyEffect effect;
        (void)ctx.state.apply(dir_request, secret, seqno, &effect);
        ctx.last_seqno = seqno;
        for (std::uint32_t obj : effect.touched) {
          retire(st, copy_object(ctx, st, obj));
        }
      }
    } catch (const DecodeError&) {
      // Torn intention: ignore.
    }
    (void)st.disk.write_block(kIntentBlock, Buffer{});
  }

  // Exchange state with the peer: catch up if it kept running while we
  // were down, and — crucially — make it re-engage intents before we start
  // serving clients. Were we to serve reads while the peer still considered
  // us down, every update it committed solo would be invisible here: an
  // acknowledged write that a read then misses. The peer may be booting at
  // the same time, so retry before concluding it is down.
  bool synced = false;
  for (int attempt = 0; attempt < 10 && !synced; ++attempt) {
    ctx.lock();
    synced = sync_with_peer(ctx, st);
    ctx.unlock();
    if (!synced) ctx.sim().sleep_for(sim::msec(200));
  }
  if (!synced) {
    ctx.peer_down = true;  // start alone; the peer resyncs when it returns
  }
}

void service_main(Machine& machine, RpcDirOptions opts) {
  const int my_index = replica_index(opts.dir_servers, machine.id());
  if (my_index < 0 || opts.dir_servers.size() != 2) {
    LOG_ERROR << machine.name() << " rpc dir server misconfigured";
    return;
  }

  RpcServerCtx ctx(machine, std::move(opts), my_index);
  auto& stats = machine.persistent<RpcDirStats>(
      "rpc_dir.stats", [] { return std::make_unique<RpcDirStats>(); });
  stats = RpcDirStats{};
  ctx.stats = &stats;

  if (ctx.opts.use_nvram) {
    ctx.wb.emplace(
        machine,
        NvramWriteBack::Config{
            .nvram_bytes = ctx.opts.nvram_bytes,
            .last_activity = &ctx.last_client_op,
            .flushes = &stats.flushes,
            .cancellations = &stats.nvram_cancellations,
            .mx_flushes = &ctx.mx_flushes,
            // A deleted object needs nothing: its file was retired with
            // the delete.
            .write_back =
                [&ctx](Storage& st, std::uint32_t obj) {
                  if (ctx.state.entry(obj) != nullptr) {
                    retire(st, copy_object(ctx, st, obj));
                  }
                },
        });
  }

  // Peer-facing service (intent / resync) comes up before the boot resync:
  // when both servers boot together each must be able to answer the other.
  auto peer_srv = std::make_shared<rpc::RpcServer>(
      machine, admin_port(ctx.opts, ctx.my_index));
  for (int i = 0; i < 2; ++i) {
    machine.spawn("rdir.peer" + std::to_string(i), [&ctx, peer_srv] {
      Storage pst(ctx);
      while (true) {
        rpc::IncomingRequest req = peer_srv->get_request();
        peer_srv->put_reply(req, handle_peer(ctx, pst, req.data, req.ctx));
      }
    });
  }

  Storage st(ctx);
  load_and_resync(ctx, st);

  machine.spawn("rdir.lazy", [&ctx] { lazy_loop(ctx); });
  if (ctx.wb) {
    machine.spawn("rdir.flusher", [&ctx] {
      Storage st(ctx);
      ctx.wb->flusher_loop(st);
    });
  }

  auto server = std::make_shared<rpc::RpcServer>(machine, ctx.opts.dir_port);
  for (int i = 0; i < ctx.opts.server_threads; ++i) {
    machine.spawn("rdir.svr" + std::to_string(i), [&ctx, server] {
      Storage st(ctx);
      serve_loop(ctx.machine, *server, "dir.rpc", ctx.opts.cpu_read,
                 ctx.opts.cpu_write, ctx.stats->reads, ctx.stats->writes,
                 [&ctx, &st](const rpc::IncomingRequest& req, DirOp op,
                             obs::TraceContext octx) {
                   return handle_op(ctx, st, req, op, octx);
                 });
    });
  }

  // Peer liveness probe: when the peer returns, converge state and
  // re-engage intents. peer_down is cleared under the lock *before* the
  // exchange, so every update serialized after the pushed snapshot goes
  // through the intent path (where the seqno-contiguity check catches any
  // remaining gap) instead of silently staying local.
  Storage probe(ctx);
  while (true) {
    machine.sim().sleep_for(sim::msec(500));
    if (ctx.peer_down) {
      ctx.lock();
      ctx.peer_down = false;
      if (!sync_with_peer(ctx, probe)) ctx.peer_down = true;
      ctx.unlock();
    }
  }
}

}  // namespace

void install_rpc_dir_server(Machine& machine, RpcDirOptions opts) {
  machine.install_service("rpc_dir",
                          [opts](Machine& m) { service_main(m, opts); });
}

const RpcDirStats& rpc_dir_stats(net::Machine& machine) {
  return machine.persistent<RpcDirStats>(
      "rpc_dir.stats", [] { return std::make_unique<RpcDirStats>(); });
}

}  // namespace amoeba::dir
