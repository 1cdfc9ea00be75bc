// The Bullet file server (paper ref [29]): immutable whole-file storage.
// Files are created in one operation, read in one operation, and deleted;
// there is no update-in-place. The directory service stores each directory's
// contents as one Bullet file and replaces the file on every update.
//
// A BulletServer runs on a storage machine and shares that machine's disk
// with the raw-partition disk server (Fig. 3 of the paper). Committed files
// are mirrored in a RAM cache, so reads of recently used files cost no disk
// access — matching the paper's 2 ms file re-read.
#pragma once

#include <cstdint>
#include <map>

#include "cap/capability.h"
#include "common/buffer.h"
#include "common/status.h"
#include "disk/vdisk.h"
#include "net/cluster.h"
#include "rpc/rpc.h"

namespace amoeba::bullet {

/// Persistent state of a bullet server: survives crashes of the hosting
/// machine (it models what has reached the disk surface).
struct BulletStore {
  struct FileEntry {
    std::uint64_t secret = 0;  // check-field secret for this file
    Buffer data;
  };
  std::map<std::uint32_t, FileEntry> files;
  std::uint32_t next_object = 1;
};

/// Wire operations of the bullet protocol.
enum class BulletOp : std::uint8_t { create = 1, read, del, list };

class BulletServer {
 public:
  /// Starts `threads` service threads on `machine`, storing data on `disk`
  /// (shared with the machine's disk server). Call from a service main.
  BulletServer(net::Machine& machine, net::Port port, disk::VirtualDisk& disk,
               int threads = 2);

  [[nodiscard]] net::Port port() const { return port_; }

 private:
  void serve();
  Buffer handle(const Buffer& request, obs::TraceContext ctx);

  Result<cap::Capability> do_create(Buffer data, obs::TraceContext ctx);
  Result<Buffer> do_read(const cap::Capability& c);
  Status do_delete(const cap::Capability& c);
  Buffer do_list();

  net::Machine& machine_;
  net::Port port_;
  disk::VirtualDisk& disk_;
  BulletStore& store_;
  // Interned op counters (per-request path).
  obs::Counter& mx_creates_;
  obs::Counter& mx_reads_;
  obs::Counter& mx_deletes_;
  rpc::RpcServer server_;
};

/// Client-side wrapper over RpcClient for the bullet protocol.
class BulletClient {
 public:
  BulletClient(rpc::RpcClient& rpc, net::Port port) : rpc_(rpc), port_(port) {}

  /// Store an immutable file; returns an all-rights capability for it.
  /// `ctx` parents the RPC's spans (and the server-side disk spans) into
  /// a causal tree.
  Result<cap::Capability> create(Buffer data, obs::TraceContext ctx = {});
  Result<Buffer> read(const cap::Capability& c, obs::TraceContext ctx = {});
  Status del(const cap::Capability& c, obs::TraceContext ctx = {});

  /// Administrative enumeration of all files (capability + contents); used
  /// by servers reconstructing their metadata at boot.
  struct Listed {
    cap::Capability cap;
    Buffer data;
  };
  Result<std::vector<Listed>> list();
  /// The reply half of list(). Throws DecodeError on malformed bytes.
  static Result<std::vector<Listed>> decode_list(const Buffer& reply);

  [[nodiscard]] net::Port port() const { return port_; }

 private:
  rpc::RpcClient& rpc_;
  net::Port port_;
};

}  // namespace amoeba::bullet
