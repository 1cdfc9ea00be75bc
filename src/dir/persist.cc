#include "dir/persist.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cap/capability.h"
#include "common/log.h"

namespace amoeba::dir {

Result<cap::Capability> write_copy(DirState& state, Storage& st,
                                   std::uint32_t obj, const Buffer& contents,
                                   obs::TraceContext tctx) {
  auto file = st.bullet.create(contents, tctx);
  if (!file.is_ok()) return file.status();
  ObjectEntry* e = state.entry(obj);
  if (e == nullptr || state.directory(obj) == nullptr) {
    (void)st.bullet.del(*file);  // orphaned copy of a deleted object
    return Status::error(Errc::not_found, "object deleted during copy");
  }
  return std::exchange(e->bullet, *file);
}

void retire(Storage& st, const Result<cap::Capability>& old) {
  if (old.is_ok() && !old->is_null()) (void)st.bullet.del(*old);
}

nvram::Nvram& nvram_device(net::Machine& m, std::size_t capacity_bytes) {
  return m.persistent<nvram::Nvram>("dir.nvram", [&m, capacity_bytes] {
    nvram::NvramConfig cfg;
    cfg.capacity_bytes = capacity_bytes;
    return std::make_unique<nvram::Nvram>(m.sim(), cfg);
  });
}

namespace nvlog {

Record make_record(const Buffer& request, std::uint64_t secret,
                   std::uint64_t seqno, const DirState::ApplyEffect& effect) {
  Record rec;
  rec.seqno = seqno;
  rec.secret = secret;
  rec.request = request;
  if (auto op = peek_op(request); op.is_ok() && *op == DirOp::create_dir &&
                                  !effect.touched.empty()) {
    rec.objhint = effect.touched.front();
  }
  return rec;
}

Buffer encode(const Record& rec) {
  Writer w;
  w.u64(rec.seqno);
  w.u64(rec.secret);
  w.u32(rec.objhint);
  w.bytes(rec.request);
  return w.take();
}

Record decode(const Buffer& b) {
  Reader r(b);
  Record rec;
  rec.seqno = r.u64();
  if ((rec.seqno & kBatchFlag) != 0) {
    throw DecodeError("batch record: use decode_any");
  }
  rec.secret = r.u64();
  rec.objhint = r.u32();
  rec.request = r.bytes();
  return rec;
}

Buffer encode_batch(std::uint64_t seqno, const std::vector<Record>& subs) {
  Writer w;
  w.u64(kBatchFlag | seqno);
  w.u32(static_cast<std::uint32_t>(subs.size()));
  for (const auto& s : subs) {
    w.u64(s.secret);
    w.u32(s.objhint);
    w.bytes(s.request);
  }
  return w.take();
}

bool is_batch(const Buffer& b) {
  if (b.size() < 8) return false;
  Reader r(b);
  return (r.u64() & kBatchFlag) != 0;
}

std::vector<Record> decode_any(const Buffer& b) {
  if (!is_batch(b)) return {decode(b)};
  Reader r(b);
  const std::uint64_t seqno = r.u64() & ~kBatchFlag;
  const std::size_t n = r.count(8 + 4 + 4);  // secret, objhint, request
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record rec;
    rec.seqno = seqno;
    rec.secret = r.u64();
    rec.objhint = r.u32();
    rec.request = r.bytes();
    out.push_back(std::move(rec));
  }
  return out;
}

std::uint32_t request_target(const Buffer& request) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    if (op == DirOp::create_dir) return 0;
    return cap::Capability::decode(r).object;
  } catch (const DecodeError&) {
    return 0;
  }
}

std::uint32_t record_target(const Record& rec) {
  return rec.objhint != 0 ? rec.objhint : request_target(rec.request);
}

namespace {

/// Row name for row-granularity ops (append/delete/chmod), else empty.
std::string request_row(const Buffer& request) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    if (op != DirOp::append_row && op != DirOp::delete_row &&
        op != DirOp::chmod_row) {
      return {};
    }
    (void)cap::Capability::decode(r);
    return r.str();
  } catch (const DecodeError&) {
    return {};
  }
}

bool decodes(const Buffer& b) {
  try {
    (void)decode_any(b);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

/// Does any sub of a (decodable) batch record target `obj`? Used as an
/// ordering guard by try_cancel: a batch record cannot be cancelled
/// piecemeal, and cancelling a *plain* record ordered before batch ops on
/// the same object would reorder replay. Plain records report false.
bool batch_touches(const Buffer& b, std::uint32_t obj) {
  if (!is_batch(b)) return false;
  for (const auto& d : decode_any(b)) {
    if (d.objhint == obj) return true;
    if (request_target(d.request) == obj) return true;
  }
  return false;
}
}  // namespace

std::size_t truncate_torn(nvram::Nvram& nv) {
  std::size_t dropped = 0;
  while (!nv.records().empty() && !decodes(nv.records().back().data)) {
    nv.cancel(nv.records().back().id);
    ++dropped;
  }
  return dropped;
}

std::size_t try_cancel(nvram::Nvram& nv, const Buffer& request,
                       const DirState::ApplyEffect& effect) {
  auto op_res = peek_op(request);
  if (!op_res.is_ok()) return 0;

  if (*op_res == DirOp::delete_row) {
    const std::uint32_t obj = request_target(request);
    const std::string name = request_row(request);
    const auto& recs = nv.records();
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
      if (!decodes(it->data)) continue;  // torn tail: not cancellable
      if (batch_touches(it->data, obj)) return 0;  // see batch_touches
      if (is_batch(it->data)) continue;
      Record d = decode(it->data);
      auto rop = peek_op(d.request);
      if (rop.is_ok() && *rop == DirOp::append_row &&
          request_target(d.request) == obj && request_row(d.request) == name) {
        nv.cancel(it->id);
        return 2;  // the append and the delete both elided
      }
    }
    return 0;
  }

  if (*op_res == DirOp::delete_dir && !effect.deleted.empty()) {
    const std::uint32_t obj = effect.deleted.front();
    bool born_in_nvram = false;
    for (const auto& rec : nv.records()) {
      if (!decodes(rec.data)) continue;
      // A batch record touching this object cannot be cancelled piecemeal
      // (its other subs share the NVRAM append); log the delete instead.
      if (batch_touches(rec.data, obj)) return 0;
      if (is_batch(rec.data)) continue;
      Record d = decode(rec.data);
      auto rop = peek_op(d.request);
      if (rop.is_ok() && *rop == DirOp::create_dir && d.objhint == obj) {
        born_in_nvram = true;
      }
    }
    if (!born_in_nvram) return 0;
    std::vector<std::uint64_t> to_cancel;
    for (const auto& rec : nv.records()) {
      if (!decodes(rec.data) || is_batch(rec.data)) continue;
      if (record_target(decode(rec.data)) == obj) {
        to_cancel.push_back(rec.id);
      }
    }
    for (auto id : to_cancel) nv.cancel(id);
    return to_cancel.size() + 1;
  }

  return 0;
}

void replay(DirState& state, const nvram::Nvram& nv) {
  for (const auto& rec : nv.records()) {
    std::vector<Record> ds;
    try {
      ds = decode_any(rec.data);
    } catch (const DecodeError&) {
      break;  // torn tail record: the log cleanly ends here
    }
    // All subs of one batch carry the batch's seqno: an earlier sub raises
    // the entry seqno to it, which must not suppress later subs of the
    // same batch (disk copies either predate the whole batch or cover all
    // of it, so the per-record skip decision is still sound).
    std::set<std::uint32_t> applied_now;
    for (const Record& d : ds) {
      auto op = peek_op(d.request);
      if (!op.is_ok()) continue;
      std::uint32_t obj = 0;
      if (*op == DirOp::create_dir) {
        obj = d.objhint;
        if (d.objhint == 0 || state.entry(d.objhint) != nullptr) continue;
      } else {
        obj = request_target(d.request);
        ObjectEntry* e = state.entry(obj);
        if (e != nullptr && e->seqno >= d.seqno && !applied_now.contains(obj)) {
          continue;  // already on disk
        }
      }
      DirState::ApplyEffect effect;
      (void)state.apply(d.request, d.secret, d.seqno, &effect, d.objhint);
      applied_now.insert(obj);
    }
  }
}

std::uint64_t max_seqno(const nvram::Nvram& nv) {
  std::uint64_t m = 0;
  for (const auto& rec : nv.records()) {
    try {
      for (const Record& d : decode_any(rec.data)) m = std::max(m, d.seqno);
    } catch (const DecodeError&) {
      break;  // torn tail record: the log cleanly ends here
    }
  }
  return m;
}

}  // namespace nvlog

NvramWriteBack::NvramWriteBack(net::Machine& m, Config cfg)
    : machine_(m),
      cfg_(std::move(cfg)),
      nv_(nvram_device(m, cfg_.nvram_bytes)),
      flush_wq_(m.sim()) {
  nv_.attach_obs(&m.metrics(), &m.trace(), m.id().v);
}

void NvramWriteBack::note_delete(const Buffer& request, std::uint64_t seqno) {
  if (!cfg_.finish) return;
  if (auto op = peek_op(request); op.is_ok() && *op == DirOp::delete_dir) {
    delete_seqno_ = std::max(delete_seqno_, seqno);
  }
}

void NvramWriteBack::append(Storage& st, std::uint64_t tag, Buffer encoded,
                            obs::TraceContext tctx) {
  while (!nv_.would_fit(encoded.size())) flush(st);
  (void)nv_.append(tag, std::move(encoded), tctx);
}

void NvramWriteBack::log(Storage& st, const Buffer& request,
                         std::uint64_t secret, std::uint64_t seqno,
                         const DirState::ApplyEffect& effect,
                         obs::TraceContext tctx) {
  const std::size_t cancelled = nvlog::try_cancel(nv_, request, effect);
  if (cancelled > 0) {
    *cfg_.cancellations += cancelled;
    return;
  }
  // A logged deletion of an on-disk directory leaves the finish hook an
  // obligation (the commit-block seqno of Fig. 4).
  note_delete(request, seqno);
  const nvlog::Record rec = nvlog::make_record(request, secret, seqno, effect);
  append(st, nvlog::record_target(rec), nvlog::encode(rec), tctx);
}

void NvramWriteBack::log_batch(Storage& st,
                               const std::vector<nvlog::Record>& subs,
                               std::uint64_t seqno, obs::TraceContext tctx) {
  for (const auto& rec : subs) note_delete(rec.request, seqno);
  append(st, nvlog::record_target(subs.front()),
         nvlog::encode_batch(seqno, subs), tctx);
}

void NvramWriteBack::wait_idle() {
  while (flushing_) flush_wq_.wait();
}

void NvramWriteBack::flush(Storage& st) {
  wait_idle();
  if (nv_.empty() && delete_seqno_ == 0) return;
  flushing_ = true;
  struct Guard {
    NvramWriteBack* wb;
    ~Guard() {
      wb->flushing_ = false;
      wb->flush_wq_.notify_all();
    }
  } guard{this};

  // Snapshot which objects the log mentions; anything appended during the
  // disk writes below stays in the log for the next pass.
  std::vector<std::uint64_t> ids;
  std::vector<std::uint32_t> objs;
  for (const auto& rec : nv_.records()) {
    ids.push_back(rec.id);
    for (const nvlog::Record& d : nvlog::decode_any(rec.data)) {
      const std::uint32_t obj = nvlog::record_target(d);
      if (obj != 0 && std::find(objs.begin(), objs.end(), obj) == objs.end()) {
        objs.push_back(obj);
      }
    }
  }
  for (std::uint32_t obj : objs) cfg_.write_back(st, obj);
  const std::uint64_t deletes = std::exchange(delete_seqno_, 0);
  if (cfg_.finish) cfg_.finish(st, deletes);
  for (std::uint64_t id : ids) (void)nv_.cancel(id);
  ++*cfg_.flushes;
  ++*cfg_.mx_flushes;
}

void NvramWriteBack::clear() {
  while (!nv_.empty()) nv_.pop_front();
  delete_seqno_ = 0;
}

std::uint64_t NvramWriteBack::recover(DirState& state) {
  const std::size_t torn = nvlog::truncate_torn(nv_);
  if (torn > 0) {
    LOG_WARN << machine_.name() << " dropped " << torn
             << " torn nvram tail record(s)";
  }
  nvlog::replay(state, nv_);
  return nvlog::max_seqno(nv_);
}

void NvramWriteBack::flusher_loop(Storage& st) {
  sim::Simulator& sim = machine_.sim();
  while (true) {
    sim.sleep_for(kFlushIdle / 2);
    if (nv_.empty() && delete_seqno_ == 0) continue;
    if (cfg_.in_recovery != nullptr && *cfg_.in_recovery) continue;
    const bool full = static_cast<double>(nv_.used_bytes()) >
                      kFlushHighWater * static_cast<double>(nv_.capacity());
    const bool idle = sim.now() - *cfg_.last_activity >= kFlushIdle;
    if (full || idle) flush(st);
  }
}

}  // namespace amoeba::dir
