// Property and robustness tests of the wire codecs in dir/proto.cc: every
// request builder must round-trip through peek_op/apply, and no truncated,
// corrupted or random buffer may do worse than a clean rejection — a
// bad_request reply from the request decoders, a DecodeError from the
// state codecs — because servers feed network bytes straight into them.
// The same holds for the other length-prefixed decoders a server feeds
// untrusted bytes: NVRAM log records, the commit block and object-table
// entries read back at boot, the disk scan and Bullet list replies read at
// boot, and the group protocol's ACCEPT bodies and batch records.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bullet/bullet.h"
#include "common/rand.h"
#include "dir/persist.h"
#include "dir/proto.h"
#include "dir/types.h"
#include "disk/disk_server.h"
#include "group/group.h"

namespace amoeba::dir {
namespace {

constexpr net::Port kPort{77};

cap::Capability some_cap(std::uint32_t n) {
  cap::Capability c;
  c.port = net::Port{0xabc};
  c.object = n;
  c.rights = cap::kRightsAll;
  c.check = mix64(n);
  return c;
}

/// A populated state plus the owner capability of its one directory.
struct Fixture {
  DirState st{kPort};
  cap::Capability dir;

  Fixture() {
    DirState::ApplyEffect eff;
    Buffer reply = st.apply(make_create_dir({"owner"}), /*secret=*/1234,
                            /*seqno=*/1, &eff);
    Reader r(reply);
    EXPECT_EQ(r.u8(), 0);  // Errc::ok
    dir = cap::Capability::decode(r);
    eff = {};
    Buffer a = st.apply(make_append_row(dir, "row", {some_cap(9)}), 0, 2, &eff);
    EXPECT_TRUE(reply_status(a).is_ok());
  }
};

/// One well-formed request of every op, against `f`'s directory.
std::vector<Buffer> all_requests(const Fixture& f) {
  return {
      make_create_dir({"owner", "group"}),
      make_delete_dir(f.dir),
      make_list_dir(f.dir),
      make_append_row(f.dir, "name", {some_cap(1), some_cap(2)}),
      make_chmod_row(f.dir, "row", 0, cap::kRightRead),
      make_delete_row(f.dir, "row"),
      make_lookup_set({{f.dir, "row"}}),
      make_replace_set({{f.dir, "row", some_cap(3)}}),
  };
}

/// Feed a (possibly mangled) request through the full server-side decode
/// path. Every outcome other than a crash or an unexpected exception type
/// is acceptable; a reply, when produced, must itself parse.
void must_reject_cleanly(const Buffer& request) {
  Fixture f;
  auto op = peek_op(request);
  Buffer reply;
  if (op.is_ok() && is_read_op(*op)) {
    reply = f.st.execute_read(request);
  } else {
    DirState::ApplyEffect eff;
    reply = f.st.apply(request, /*secret=*/7, /*seqno=*/3, &eff);
  }
  ASSERT_FALSE(reply.empty());
  (void)reply_status(reply);  // must parse without throwing
  // The state must remain serializable after the attempt.
  Buffer snap = f.st.snapshot();
  DirState again = DirState::from_snapshot(snap, kPort);
  EXPECT_EQ(again.snapshot(), snap);
}

// ----------------------------------------------------------- round trips

TEST(ProtoFuzz, BuildersPeekTheirOwnOp) {
  Fixture f;
  const std::vector<Buffer> reqs = all_requests(f);
  const std::vector<DirOp> want = {
      DirOp::create_dir, DirOp::delete_dir,  DirOp::list_dir,
      DirOp::append_row, DirOp::chmod_row,   DirOp::delete_row,
      DirOp::lookup_set, DirOp::replace_set,
  };
  ASSERT_EQ(reqs.size(), want.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    auto op = peek_op(reqs[i]);
    ASSERT_TRUE(op.is_ok()) << i;
    EXPECT_EQ(*op, want[i]) << i;
    EXPECT_EQ(is_read_op(*op),
              want[i] == DirOp::list_dir || want[i] == DirOp::lookup_set);
  }
}

TEST(ProtoFuzz, EveryWellFormedRequestExecutes) {
  for (std::size_t i = 0; i < 8; ++i) {
    Fixture f;
    Buffer req = all_requests(f)[i];
    auto op = peek_op(req);
    ASSERT_TRUE(op.is_ok());
    Buffer reply;
    if (is_read_op(*op)) {
      reply = f.st.execute_read(req);
    } else {
      DirState::ApplyEffect eff;
      reply = f.st.apply(req, 55, 9, &eff);
      EXPECT_TRUE(eff.any_change) << "op " << i;
    }
    EXPECT_TRUE(reply_status(reply).is_ok()) << "op " << i;
  }
}

TEST(ProtoFuzz, SnapshotRoundTripsPopulatedState) {
  Fixture f;
  Buffer snap = f.st.snapshot();
  DirState copy = DirState::from_snapshot(snap, kPort);
  EXPECT_EQ(copy.snapshot(), snap);
  EXPECT_EQ(copy.table().size(), f.st.table().size());
  EXPECT_EQ(copy.dirs().size(), f.st.dirs().size());
  EXPECT_EQ(copy.max_dir_seqno(), f.st.max_dir_seqno());
}

// ----------------------------------------------------------- truncation

TEST(ProtoFuzz, EveryTruncationOfEveryRequestRejectsCleanly) {
  Fixture f;
  for (const Buffer& req : all_requests(f)) {
    for (std::size_t len = 0; len < req.size(); ++len) {
      Buffer cut(req.begin(), req.begin() + static_cast<std::ptrdiff_t>(len));
      must_reject_cleanly(cut);
    }
  }
}

TEST(ProtoFuzz, TruncatedDirectoryThrowsDecodeError) {
  Directory d;
  d.columns = {"owner", "group"};
  d.seqno = 7;
  d.rows.push_back({"a", {some_cap(1), some_cap(2)}});
  d.rows.push_back({"bb", {some_cap(3), some_cap(4)}});
  Buffer full = d.serialize();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Buffer cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)Directory::deserialize(cut), DecodeError) << len;
  }
}

TEST(ProtoFuzz, TruncatedSnapshotThrowsDecodeError) {
  Fixture f;
  Buffer full = f.st.snapshot();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Buffer cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)DirState::from_snapshot(cut, kPort), DecodeError)
        << len;
  }
}

// ----------------------------------------------------------- corruption

TEST(ProtoFuzz, CorruptedRequestsNeverCrash) {
  Prng rng(20260805);
  Fixture proto;
  const std::vector<Buffer> reqs = all_requests(proto);
  for (int trial = 0; trial < 400; ++trial) {
    Buffer req = reqs[rng.below(reqs.size())];
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips && !req.empty(); ++i) {
      req[rng.below(req.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    must_reject_cleanly(req);
  }
}

TEST(ProtoFuzz, RandomGarbageNeverCrashes) {
  Prng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    Buffer junk(rng.below(96));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    must_reject_cleanly(junk);
    // The state codecs throw rather than reply; both rejections are fine,
    // silent acceptance of garbage is not required to be impossible (a
    // random buffer can spell a valid encoding) but must not crash.
    try {
      (void)Directory::deserialize(junk);
    } catch (const DecodeError&) {
    }
    try {
      (void)DirState::from_snapshot(junk, kPort);
    } catch (const DecodeError&) {
    }
  }
}

TEST(ProtoFuzz, CorruptedSnapshotsNeverCrash) {
  Prng rng(7);
  Fixture f;
  const Buffer clean = f.st.snapshot();
  for (int trial = 0; trial < 400; ++trial) {
    Buffer snap = clean;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      snap[rng.below(snap.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    try {
      DirState st = DirState::from_snapshot(snap, kPort);
      (void)st.snapshot();  // whatever decoded must re-encode
    } catch (const DecodeError&) {
    }
  }
}

TEST(ProtoFuzz, EmptyAndUnknownOpsAreBadRequests) {
  Fixture f;
  EXPECT_FALSE(peek_op({}).is_ok());
  for (std::uint8_t op : {std::uint8_t{0}, std::uint8_t{9},
                          std::uint8_t{200}, std::uint8_t{255}}) {
    Writer w;
    w.u8(op);
    EXPECT_FALSE(peek_op(w.view()).is_ok()) << int(op);
    DirState::ApplyEffect eff;
    Buffer reply = f.st.apply(w.view(), 0, 1, &eff);
    EXPECT_EQ(reply_status(reply).code(), Errc::bad_request) << int(op);
    EXPECT_FALSE(eff.any_change);
  }
}

/// Feed `decode` many mangled copies of `clean`: every truncation, random
/// bit flips, and 0xff written over every 2- and 4-byte window, so each
/// count field is hit with a huge value. `decode` may return or throw DecodeError — anything
/// else (std::bad_alloc from reserving an unchecked count, say) escapes
/// and fails the test.
template <typename Decode>
void fuzz_decoder(const Buffer& clean, Decode decode) {
  std::vector<Buffer> variants;
  for (std::size_t len = 0; len < clean.size(); ++len) {
    variants.emplace_back(clean.begin(),
                          clean.begin() + static_cast<std::ptrdiff_t>(len));
  }
  for (std::size_t width : {2, 4}) {
    for (std::size_t at = 0; at + width <= clean.size(); ++at) {
      Buffer b = clean;
      for (std::size_t k = 0; k < width; ++k) b[at + k] = 0xff;
      variants.push_back(std::move(b));
    }
  }
  Prng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Buffer b = clean;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    variants.push_back(std::move(b));
  }
  for (const Buffer& b : variants) {
    try {
      decode(b);
    } catch (const DecodeError&) {
    }
  }
}

TEST(ProtoFuzz, SnapshotCountFieldsAreChecked) {
  Fixture f;
  fuzz_decoder(f.st.snapshot(), [](const Buffer& b) {
    (void)DirState::from_snapshot(b, kPort).snapshot();
  });
}

TEST(ProtoFuzz, NvramBatchRecordsNeverCrash) {
  Fixture f;
  std::vector<nvlog::Record> subs;
  for (const Buffer& req : all_requests(f)) {
    nvlog::Record rec;
    rec.secret = 5;
    rec.objhint = 2;
    rec.request = req;
    subs.push_back(std::move(rec));
  }
  const Buffer batch = nvlog::encode_batch(9, subs);
  ASSERT_EQ(nvlog::decode_any(batch).size(), subs.size());
  fuzz_decoder(batch, [](const Buffer& b) { (void)nvlog::decode_any(b); });
}

TEST(ProtoFuzz, DiskScanRepliesNeverCrash) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Errc::ok));
  w.u32(3);
  for (std::uint32_t block = 1; block <= 3; ++block) {
    w.u32(block);
    w.bytes(to_buffer("block contents " + std::to_string(block)));
  }
  const Buffer reply = w.take();
  auto clean = disk::DiskClient::decode_scan(reply);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_EQ(clean->size(), 3u);
  fuzz_decoder(reply,
               [](const Buffer& b) { (void)disk::DiskClient::decode_scan(b); });
}

TEST(ProtoFuzz, BulletListRepliesNeverCrash) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Errc::ok));
  w.u32(3);
  for (std::uint32_t obj = 1; obj <= 3; ++obj) {
    some_cap(obj).encode(w);
    w.bytes(to_buffer("file " + std::to_string(obj)));
  }
  const Buffer reply = w.take();
  auto clean = bullet::BulletClient::decode_list(reply);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_EQ(clean->size(), 3u);
  fuzz_decoder(reply, [](const Buffer& b) {
    (void)bullet::BulletClient::decode_list(b);
  });
}

TEST(ProtoFuzz, CommitBlocksNeverCrash) {
  CommitBlock cb;
  cb.config = 0b101;
  cb.seqno = 9;
  cb.recovering = true;
  const Buffer block = cb.serialize();
  const CommitBlock back = CommitBlock::deserialize(block);
  EXPECT_EQ(back.config, cb.config);
  EXPECT_EQ(back.seqno, cb.seqno);
  EXPECT_TRUE(back.recovering);
  fuzz_decoder(block,
               [](const Buffer& b) { (void)CommitBlock::deserialize(b); });
}

TEST(ProtoFuzz, ObjectEntriesNeverCrash) {
  ObjectEntry e;
  e.in_use = true;
  e.secret = 1234;
  e.seqno = 8;
  e.bullet = some_cap(4);
  Writer w;
  e.encode(w);
  const Buffer entry = w.take();
  Reader r(entry);
  EXPECT_EQ(ObjectEntry::decode(r).secret, e.secret);
  fuzz_decoder(entry, [](const Buffer& b) {
    Reader rb(b);
    (void)ObjectEntry::decode(rb);
  });
}

TEST(ProtoFuzz, GroupAcceptBodiesNeverCrash) {
  Fixture f;
  group::AcceptRecord rec;
  rec.seqno = 42;
  rec.origin = net::MachineId{3};
  rec.origin_msgid = 7;
  rec.payload = make_append_row(f.dir, "name", {some_cap(1)});
  Writer w;
  group::encode_accept_body(w, rec);
  const Buffer body = w.take();
  Reader r(body);
  const group::AcceptRecord back = group::decode_accept_body(r);
  EXPECT_EQ(back.seqno, rec.seqno);
  EXPECT_EQ(back.payload, rec.payload);
  fuzz_decoder(body, [](const Buffer& b) {
    Reader rb(b);
    (void)group::decode_accept_body(rb);
  });
}

TEST(ProtoFuzz, GroupBatchRecordsNeverCrash) {
  Fixture f;
  std::vector<group::BatchSub> subs;
  std::uint64_t msgid = 0;
  for (const Buffer& req : all_requests(f)) {
    subs.push_back({net::MachineId{2}, ++msgid, req});
  }
  const Buffer batch = group::encode_batch(subs);
  ASSERT_EQ(group::decode_batch(batch).size(), subs.size());
  fuzz_decoder(batch, [](const Buffer& b) { (void)group::decode_batch(b); });
}

}  // namespace
}  // namespace amoeba::dir
