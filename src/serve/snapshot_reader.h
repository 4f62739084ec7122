// Validating reader for `.itms` snapshots.
//
// The reader trusts nothing: magic/version/endianness, the whole-tail
// checksum, section-table bounds, canonical section order and packing,
// string references, record sort invariants and exact payload consumption
// are all checked before anything is returned. A snapshot that loads is
// therefore safe to binary-search and will re-serialize byte-identically.
//
// There is one load mode: borrow_snapshot validates the bytes once and
// returns a SnapshotView whose section views point into them (which must
// outlive the view). `itm serve`, the resident server's mmap'd epochs and
// the delta applier all read snapshots this way; nothing decodes a whole
// snapshot into owned vectors.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "serve/snapshot.h"
#include "serve/view.h"

namespace itm::serve {

// Validates `bytes` as a canonical snapshot and returns section views that
// alias it — no record or string is copied. Returns nullopt and sets
// `error` (when non-null) to a one-line diagnostic on any violation.
[[nodiscard]] std::optional<SnapshotView> borrow_snapshot(
    std::string_view bytes, std::string* error);

// The header checksum field of a canonical snapshot byte blob — the epoch
// identity the delta format keys on. Assumes `bytes` already validated.
[[nodiscard]] std::uint64_t snapshot_checksum(std::string_view bytes);

}  // namespace itm::serve
