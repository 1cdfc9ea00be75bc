// The directory data model (paper Sec. 2): a directory is a table whose rows
// map an ASCII name to one capability per protection column ("owner",
// "group", "other", ...). Directory objects are named by object numbers in
// the service's object table and protected by capabilities whose check
// fields derive from a per-object secret.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cap/capability.h"
#include "common/buffer.h"
#include "common/status.h"

namespace amoeba::dir {

struct DirRow {
  std::string name;
  std::vector<cap::Capability> cols;  // one capability per column
  bool operator==(const DirRow&) const = default;
};

struct Directory {
  std::vector<std::string> columns;
  std::vector<DirRow> rows;
  std::uint64_t seqno = 0;  // sequence number of the last change (Sec. 3)

  [[nodiscard]] const DirRow* find(const std::string& name) const;
  [[nodiscard]] DirRow* find(const std::string& name);
  [[nodiscard]] bool has(const std::string& name) const {
    return find(name) != nullptr;
  }

  void encode(Writer& w) const;
  static Directory decode(Reader& r);
  [[nodiscard]] Buffer serialize() const;
  static Directory deserialize(const Buffer& b);
};

/// One object-table slot: where the current contents of a directory live
/// (a Bullet file capability), its check-field secret and its sequence
/// number. Persisted one-per-admin-block on the raw partition.
struct ObjectEntry {
  bool in_use = false;
  std::uint64_t secret = 0;          // capability check secret
  std::uint64_t seqno = 0;           // seqno of last change
  cap::Capability bullet;            // file holding the contents

  void encode(Writer& w) const;
  static ObjectEntry decode(Reader& r);
};

/// The commit block (paper Fig. 4): block 0 of the raw partition.
struct CommitBlock {
  std::uint32_t config = 0;      // bit i set => server i was up in the last
                                 // majority configuration we belonged to
  std::uint64_t seqno = 0;       // only advanced on directory deletion
  bool recovering = false;       // set while copying state from a peer

  [[nodiscard]] bool up(int server) const {
    return (config >> server) & 1u;
  }
  void set_up(int server, bool v) {
    if (v) {
      config |= (1u << server);
    } else {
      config &= ~(1u << server);
    }
  }

  [[nodiscard]] Buffer serialize() const;
  static CommitBlock deserialize(const Buffer& b);
};

}  // namespace amoeba::dir
