// Persistence shared by the replicated directory services (paper Sec. 4.1).
//
// Instead of writing directories to disk in the critical path, a server
// logs the raw update request (plus the initiator's secret and, for
// create_dir, the allocated object number so replay is deterministic) in
// NVRAM. NvramWriteBack writes the in-memory state of every logged object
// to disk when the server is idle or the NVRAM fills, and replays the log
// on top of the disk state after a crash. The group service and the RPC
// service's NVRAM mode both run it; they differ only in how one object is
// written back and in what a flush pass finishes with.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "bullet/bullet.h"
#include "common/buffer.h"
#include "dir/proto.h"
#include "disk/disk_server.h"
#include "net/cluster.h"
#include "nvram/nvram.h"
#include "rpc/rpc.h"
#include "sim/waitq.h"

namespace amoeba::dir {

/// Per-process handles to a directory server's Bullet and raw-partition
/// servers. RpcClients are stateful, so every process owns its own Storage.
struct Storage {
  rpc::RpcClient rpc;
  bullet::BulletClient bullet;
  disk::DiskClient disk;

  Storage(net::Machine& m, net::Port bullet_port, net::Port disk_port)
      : rpc(m), bullet(rpc, bullet_port), disk(rpc, disk_port) {}
  /// From a server context: its machine and the ports in its options.
  template <typename Ctx>
  explicit Storage(Ctx& ctx)
      : Storage(ctx.machine, ctx.opts.bullet_port, ctx.opts.disk_port) {}
};

/// Write `contents` as object `obj`'s new Bullet file. The create yields,
/// so the entry is looked up again afterwards: if a delete removed it, the
/// fresh file is deleted and not_found returned. Otherwise returns the
/// superseded file, for retire() once the new copy is durable.
Result<cap::Capability> write_copy(DirState& state, Storage& st,
                                   std::uint32_t obj, const Buffer& contents,
                                   obs::TraceContext tctx = {});

/// Delete the file a successful write_copy superseded, if there was one.
void retire(Storage& st, const Result<cap::Capability>& old);

/// The directory server's NVRAM device on `m`, created on first use.
nvram::Nvram& nvram_device(net::Machine& m, std::size_t capacity_bytes);

namespace nvlog {

struct Record {
  std::uint64_t seqno = 0;
  std::uint64_t secret = 0;
  std::uint32_t objhint = 0;  // create_dir: the allocated object number
  Buffer request;
};

/// The record logging `request`, applied at `seqno` with `effect`.
Record make_record(const Buffer& request, std::uint64_t secret,
                   std::uint64_t seqno, const DirState::ApplyEffect& effect);

Buffer encode(const Record& rec);
Record decode(const Buffer& b);

/// Group commit (sequencer batching): every update of one ordered batch is
/// logged as a single NVRAM append — one log write per ACCEPT, not per op.
/// A batch record is distinguished from a plain one by the top bit of the
/// leading seqno field; decode() refuses it, decode_any() handles both.
inline constexpr std::uint64_t kBatchFlag = 1ULL << 63;

/// Encode one record covering all of `subs` (their `seqno` fields are
/// ignored — the whole batch carries `seqno`).
Buffer encode_batch(std::uint64_t seqno, const std::vector<Record>& subs);
[[nodiscard]] bool is_batch(const Buffer& b);
/// Decode either format: a plain record yields one entry, a batch record
/// one entry per sub (each stamped with the batch seqno).
std::vector<Record> decode_any(const Buffer& b);

/// Object number a request targets (0 for create_dir, which allocates).
std::uint32_t request_target(const Buffer& request);

/// Object number a record concerns: the created object, else the target.
std::uint32_t record_target(const Record& rec);

/// The Sec. 4.1 cancellation: if `request` is a delete whose matching
/// append (or created directory) still sits in the log, remove the matched
/// records and report how many operations were elided (the delete itself
/// included). Records of the target object with id <= `pinned` may already
/// be on disk: a delete that matches one is not cancelled. Returns 0 when
/// the caller should log the request instead.
std::size_t try_cancel(nvram::Nvram& nv, const Buffer& request,
                       const DirState::ApplyEffect& effect,
                       std::uint64_t pinned = 0);

/// A crash mid-append leaves a truncated tail record. Treat it as a clean
/// log end: drop undecodable records from the tail. Servers call this at
/// boot, before replay. Returns how many records were dropped.
std::size_t truncate_torn(nvram::Nvram& nv);

/// Replay the log on top of `state` (loaded from disk): records whose
/// effects are already persisted are skipped via per-object seqnos. A
/// record that fails to decode ends the replay (torn tail = clean log end).
void replay(DirState& state, const nvram::Nvram& nv);

/// Highest seqno recorded in the log (contributes to the recovery seqno).
std::uint64_t max_seqno(const nvram::Nvram& nv);

}  // namespace nvlog

/// The Sec. 4.1 write-back engine over one server's NVRAM device.
class NvramWriteBack {
 public:
  /// The flusher writes back once the server has seen no client op for
  /// kFlushIdle, or once the log fills kFlushHighWater of the device.
  static constexpr sim::Duration kFlushIdle = sim::msec(100);
  static constexpr double kFlushHighWater = 0.75;

  struct Config {
    std::size_t nvram_bytes = 24 * 1024;
    const sim::Time* last_activity = nullptr;  // server's last client op
    /// While *in_recovery is set the flusher writes nothing back: recovery
    /// may install a snapshot that supersedes the log. Null: never held.
    const bool* in_recovery = nullptr;
    /// Metrics layer of the server ("dir.group", "dir.rpc"): the engine
    /// counts flush passes in "<layer>.flushes" and ops the Sec. 4.1
    /// cancellation elided in "<layer>.nvram_cancellations".
    const char* layer = "";
    /// Write one logged object back: its current state, or its deletion
    /// when the in-memory state no longer holds it. The state is taken
    /// when the hook is called, before it yields. Returns false when the
    /// write did not reach the disk: the object's records then stay in the
    /// log for the next pass.
    std::function<bool(Storage&, std::uint32_t obj)> write_back = nullptr;
    /// Optional; ends every flush pass with the highest delete_dir seqno
    /// logged since the previous one (0 if none).
    std::function<void(Storage&, std::uint64_t delete_seqno)> finish = nullptr;
  };

  NvramWriteBack(net::Machine& m, Config cfg);

  [[nodiscard]] nvram::Nvram& nvram() { return nv_; }

  /// Log an update instead of touching the disk, or cancel it against a
  /// still-logged append or create. An update that does not fit stalls on
  /// a flush: the visible cost of a small NVRAM, in the critical path.
  /// The caller applies the update in memory and calls this without
  /// yielding in between.
  void log(Storage& st, const Buffer& request, std::uint64_t secret,
           std::uint64_t seqno, const DirState::ApplyEffect& effect,
           obs::TraceContext tctx = {});

  /// Group commit: ONE append covering every state-changing update of one
  /// ordered batch, never cancelled piecemeal.
  void log_batch(Storage& st, const std::vector<nvlog::Record>& subs,
                 std::uint64_t seqno, obs::TraceContext tctx = {});

  /// Write back every object the log mentions and drop the records that
  /// pass covered, except those of an object whose write-back failed.
  /// Single-flight: a caller arriving mid-pass waits for it.
  void flush(Storage& st);

  /// Return once no flush pass is in flight (one runs at a time).
  void wait_idle();

  /// Drop the whole log: an installed snapshot supersedes it.
  void clear();

  /// Boot: drop a torn tail, replay the log on top of `state` (loaded from
  /// disk), return the highest logged seqno.
  std::uint64_t recover(DirState& state);

  /// The background flusher process body.
  [[noreturn]] void flusher_loop(Storage& st);

 private:
  /// An update log() is appending: applied in memory, not yet in the log.
  struct Appending {
    std::uint32_t obj = 0;
    bool written = false;  // a write-back of `obj` started meanwhile
  };

  /// Append `encoded`, flushing first for as long as it does not fit.
  /// Returns the new record's id.
  std::uint64_t append(Storage& st, std::uint64_t tag, Buffer encoded,
                       obs::TraceContext tctx);
  void note_delete(const Buffer& request, std::uint64_t seqno);
  /// No delete may cancel a record of `obj` with id <= `id`.
  void pin(std::uint32_t obj, std::uint64_t id);

  net::Machine& machine_;
  Config cfg_;
  nvram::Nvram& nv_;
  obs::Counter& mx_flushes_;
  obs::Counter& mx_cancellations_;
  std::uint64_t delete_seqno_ = 0;  // logged delete_dir awaiting finish
  bool flushing_ = false;
  /// Per object, the newest record id a write-back of it may have put on
  /// disk: set when its write-back starts, and for an update still being
  /// appended then. The pass drops only the records it snapshotted, so a
  /// record logged before the write-back but after the snapshot stays in
  /// the log although the disk holds it; cancelling it would lose the
  /// delete. An entry goes once the log holds no record at or below it.
  std::map<std::uint32_t, std::uint64_t> written_through_;
  std::vector<Appending*> appending_;
  sim::WaitQueue flush_wq_;
};

}  // namespace amoeba::dir
