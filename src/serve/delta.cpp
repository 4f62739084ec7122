#include "serve/delta.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/format.h"
#include "serve/snapshot.h"
#include "serve/snapshot_reader.h"
#include "serve/snapshot_writer.h"
#include "serve/view.h"

namespace itm::serve {

namespace {

constexpr std::uint8_t kOpAdd = 1;
constexpr std::uint8_t kOpRemove = 2;
constexpr std::uint8_t kOpReplace = 3;

// Keyed ops carry records in their `.itms` wire encoding, and a record's
// key is always the leading bytes of that encoding: the country id, ASN,
// address or service id (4 bytes), or a prefix's (base, length) (8 bytes).
// Diff, parse and apply therefore all work on record bytes; a remove op
// carries just the key bytes.
struct KeyedSection {
  const char* what;
  std::size_t key_bytes;
  // Fixed record size; 0 for a mapping (service u32, entry count u32,
  // entries).
  std::size_t record_bytes;
};

constexpr KeyedSection kCountryOps{"country", 4,
                                   WireCodec<CountryRecord>::kBytes};
constexpr KeyedSection kAsOps{"AS", 4, WireCodec<AsRecord>::kBytes};
constexpr KeyedSection kPrefixOps{"prefix", 8, WireCodec<PrefixRecord>::kBytes};
constexpr KeyedSection kEndpointOps{"endpoint", 4,
                                    WireCodec<EndpointRecord>::kBytes};
constexpr KeyedSection kMappingOps{"mapping", 4, 0};

// The key as one integer; (base << 32 | length) orders exactly like the
// (base, length) pair.
std::uint64_t key_of(std::string_view record, std::size_t key_bytes) {
  const std::uint64_t first = wire_u32(record.data());
  return key_bytes == 4 ? first : first << 32 | wire_u32(record.data() + 4);
}

bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

// ---- Diff side: two-pointer merge of key-sorted sections into op lists ----

// `Span` is a section view with size() and bytes(i): a RecordSpan or the
// MappingsView. Equal keys compare by bytes — the delta's contract is byte
// identity, and a field compare would conflate 0.0 with -0.0.
template <typename Span>
void diff_section(ByteWriter& w, const Span& base, const Span& target,
                  const KeyedSection& section) {
  ByteWriter ops;
  std::uint32_t count = 0;
  const auto emit = [&ops, &count](std::uint8_t op, std::string_view bytes) {
    ops.u8(op);
    ops.bytes(bytes);
    ++count;
  };
  const auto key = [&section](std::string_view record) {
    return key_of(record, section.key_bytes);
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < base.size() || j < target.size()) {
    if (j == target.size() ||
        (i < base.size() && key(base.bytes(i)) < key(target.bytes(j)))) {
      emit(kOpRemove, base.bytes(i++).substr(0, section.key_bytes));
    } else if (i == base.size() ||
               key(target.bytes(j)) < key(base.bytes(i))) {
      emit(kOpAdd, target.bytes(j++));
    } else {
      if (base.bytes(i) != target.bytes(j)) emit(kOpReplace, target.bytes(j));
      ++i;
      ++j;
    }
  }
  w.u32(count);
  w.bytes(ops.buffer());
}

bool same_strings(const StringsView& a, const StringsView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool same_links(const RecordSpan<LinkRecord>& a,
                const RecordSpan<LinkRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.bytes(i) != b.bytes(i)) return false;
  }
  return true;
}

// ---- The one op parser, shared by apply_delta and read_delta_info ----

struct Op {
  std::uint8_t code = 0;
  std::uint64_t key = 0;
  std::string_view record;  // wire bytes of an added/replacing record
};

// A delta's validated tail. Every view points into the delta bytes.
struct ParsedDelta {
  DeltaInfo info;
  std::uint64_t addresses_probed = 0;
  std::uint64_t observed_links = 0;
  StringsView strings;  // the replacement table, when replaces_strings
  std::vector<Op> countries, ases, prefixes, endpoints, mappings;
  RecordSpan<LinkRecord> links;  // the replacement links, when replaces_links
};

std::string_view read_record(ByteReader& r, std::size_t record_bytes) {
  if (record_bytes != 0) return r.bytes(record_bytes);
  const std::string_view head = r.bytes(8);
  if (r.failed()) return {};
  const std::string_view entries = r.bytes(
      std::size_t{wire_u32(head.data() + 4)} * WireCodec<MappingEntry>::kBytes);
  if (r.failed()) return {};
  return {head.data(), head.size() + entries.size()};
}

bool parse_ops(ByteReader& r, const KeyedSection& section,
               std::vector<Op>& ops, std::string& error) {
  const std::string what(section.what);
  const std::uint32_t count = r.u32();
  // Every op is at least an op code and a 4-byte key.
  ops.reserve(std::min<std::size_t>(count, r.remaining() / 5));
  for (std::uint32_t n = 0; n < count && !r.failed(); ++n) {
    Op op;
    op.code = r.u8();
    std::string_view key_bytes;
    if (op.code == kOpRemove) {
      key_bytes = r.bytes(section.key_bytes);
    } else if (op.code == kOpAdd || op.code == kOpReplace) {
      op.record = read_record(r, section.record_bytes);
      key_bytes = op.record;
    } else if (!r.failed()) {
      return fail(error, what + " ops contain an unknown op code");
    }
    if (r.failed()) break;
    op.key = key_of(key_bytes, section.key_bytes);
    if (!ops.empty() && ops.back().key >= op.key) {
      return fail(error, what + " ops not sorted by key");
    }
    ops.push_back(op);
  }
  if (r.failed()) return fail(error, what + " ops truncated");
  return true;
}

bool parse_flag(ByteReader& r, const char* what, bool& out,
                std::string& error) {
  const std::uint8_t flag = r.u8();
  if (r.failed()) return fail(error, "delta tail truncated");
  if (flag > 1) return fail(error, std::string("bad ") + what + " flag");
  out = flag == 1;
  return true;
}

// A string table in its `.itms` section encoding: count, {len u32, bytes}.
bool parse_strings(ByteReader& r, std::string_view tail, StringsView& out) {
  const std::uint32_t count = r.u32();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> offsets;
  offsets.reserve(std::min<std::size_t>(count, r.remaining() / 4));
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    const std::uint32_t len = r.u32();
    const std::size_t offset = r.position();
    (void)r.bytes(len);
    offsets.emplace_back(static_cast<std::uint32_t>(offset), len);
  }
  out = StringsView::wire(tail.data(), std::move(offsets));
  return !r.failed();
}

constexpr std::size_t kDeltaHeaderSize = 8 + 4 + 4 + 8;

bool parse_into(std::string_view bytes, ParsedDelta& d, std::string& error) {
  if (bytes.size() < kDeltaHeaderSize) {
    return fail(error, "file shorter than delta header");
  }
  ByteReader header(bytes.substr(0, kDeltaHeaderSize));
  const auto magic = header.bytes(kDeltaMagic.size());
  if (magic != std::string_view(kDeltaMagic.data(), kDeltaMagic.size())) {
    return fail(error, "bad magic (not an .itmsd delta)");
  }
  if (header.u32() != kDeltaVersion) {
    return fail(error, "unsupported delta version");
  }
  if (header.u32() != kEndianMarker) {
    return fail(error, "endianness marker mismatch");
  }
  const std::uint64_t checksum = header.u64();
  const std::string_view tail = bytes.substr(kDeltaHeaderSize);
  if (fnv1a64(tail) != checksum) {
    return fail(error, "checksum mismatch (corrupted delta)");
  }

  ByteReader r(tail);
  d.info.base_checksum = r.u64();
  d.info.target_checksum = r.u64();
  d.info.target_seed = r.u64();
  d.addresses_probed = r.u64();
  d.observed_links = r.u64();
  if (!parse_flag(r, "string replacement", d.info.replaces_strings, error)) {
    return false;
  }
  if (d.info.replaces_strings && !parse_strings(r, tail, d.strings)) {
    return fail(error, "string replacement truncated");
  }
  if (!parse_ops(r, kCountryOps, d.countries, error) ||
      !parse_ops(r, kAsOps, d.ases, error) ||
      !parse_ops(r, kPrefixOps, d.prefixes, error) ||
      !parse_ops(r, kEndpointOps, d.endpoints, error) ||
      !parse_ops(r, kMappingOps, d.mappings, error) ||
      !parse_flag(r, "link replacement", d.info.replaces_links, error)) {
    return false;
  }
  if (d.info.replaces_links) {
    const std::uint32_t count = r.u32();
    const std::string_view links =
        r.bytes(std::size_t{count} * WireCodec<LinkRecord>::kBytes);
    if (r.failed()) return fail(error, "link replacement truncated");
    d.links = RecordSpan<LinkRecord>::wire(links.data(), count);
  }
  if (!r.exhausted()) return fail(error, "trailing bytes after delta ops");
  d.info.ops = d.countries.size() + d.ases.size() + d.prefixes.size() +
               d.endpoints.size() + d.mappings.size();
  return true;
}

std::optional<ParsedDelta> parse_delta(std::string_view bytes,
                                       std::string* error) {
  ParsedDelta delta;
  std::string message;
  if (parse_into(bytes, delta, message)) return delta;
  if (error != nullptr) *error = message;
  obs::count("serve.delta.rejected");
  return std::nullopt;
}

// ---- Apply side: one strict merge of base bytes + ops into the target ----

template <typename Rec>
Rec decode_record(std::string_view bytes) {
  return WireCodec<Rec>::decode(bytes.data());
}

ServiceMapping decode_mapping(std::string_view bytes) {
  ServiceMapping mapping;
  mapping.service = wire_u32(bytes.data());
  const auto entries = RecordSpan<MappingEntry>::wire(
      bytes.data() + 8, (bytes.size() - 8) / WireCodec<MappingEntry>::kBytes);
  mapping.entries.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    mapping.entries.push_back(entries[i]);
  }
  return mapping;
}

// Decodes the borrowed base section into the target's record vector,
// adding, dropping or replacing the record at each op key on the way —
// every base record is copied once, straight from its wire bytes.
template <typename Span, typename Rec>
bool merge_section(const Span& base, const std::vector<Op>& ops,
                   const KeyedSection& section,
                   Rec (*decode)(std::string_view), std::vector<Rec>& out,
                   std::string& error) {
  out.reserve(base.size() + ops.size());
  std::size_t i = 0;
  for (const Op& op : ops) {
    while (i < base.size() &&
           key_of(base.bytes(i), section.key_bytes) < op.key) {
      out.push_back(decode(base.bytes(i++)));
    }
    const bool present =
        i < base.size() && key_of(base.bytes(i), section.key_bytes) == op.key;
    if (op.code == kOpAdd && present) {
      return fail(error, std::string(section.what) +
                             " add op targets an existing key");
    }
    if (op.code != kOpAdd && !present) {
      return fail(error, std::string(section.what) +
                             (op.code == kOpRemove ? " remove" : " replace") +
                             " op targets a missing key");
    }
    if (op.code != kOpAdd) ++i;
    if (op.code != kOpRemove) out.push_back(decode(op.record));
  }
  while (i < base.size()) out.push_back(decode(base.bytes(i++)));
  return true;
}

std::string serialize(const Snapshot& snap) {
  std::ostringstream os;
  write_snapshot(snap, os);
  return std::move(os).str();
}

}  // namespace

std::optional<std::string> diff_snapshots(std::string_view base_bytes,
                                          std::string_view target_bytes,
                                          std::string* error) {
  std::string parse_error;
  const auto base = borrow_snapshot(base_bytes, &parse_error);
  if (!base) {
    if (error != nullptr) *error = "base snapshot: " + parse_error;
    return std::nullopt;
  }
  const auto target = borrow_snapshot(target_bytes, &parse_error);
  if (!target) {
    if (error != nullptr) *error = "target snapshot: " + parse_error;
    return std::nullopt;
  }

  ByteWriter tail;
  tail.u64(snapshot_checksum(base_bytes));
  tail.u64(snapshot_checksum(target_bytes));
  tail.u64(target->seed);
  tail.u64(target->addresses_probed);
  tail.u64(target->observed_links);

  if (same_strings(base->strings, target->strings)) {
    tail.u8(0);
  } else {
    tail.u8(1);
    tail.u32(static_cast<std::uint32_t>(target->strings.size()));
    for (std::size_t i = 0; i < target->strings.size(); ++i) {
      tail.u32(static_cast<std::uint32_t>(target->strings[i].size()));
      tail.bytes(target->strings[i]);
    }
  }
  diff_section(tail, base->countries, target->countries, kCountryOps);
  diff_section(tail, base->ases, target->ases, kAsOps);
  diff_section(tail, base->prefixes, target->prefixes, kPrefixOps);
  diff_section(tail, base->endpoints, target->endpoints, kEndpointOps);
  diff_section(tail, base->mappings, target->mappings, kMappingOps);
  if (same_links(base->links, target->links)) {
    tail.u8(0);
  } else {
    tail.u8(1);
    tail.u32(static_cast<std::uint32_t>(target->links.size()));
    for (std::size_t i = 0; i < target->links.size(); ++i) {
      tail.bytes(target->links.bytes(i));
    }
  }

  ByteWriter out;
  out.bytes(std::string_view(kDeltaMagic.data(), kDeltaMagic.size()));
  out.u32(kDeltaVersion);
  out.u32(kEndianMarker);
  out.u64(fnv1a64(tail.buffer()));
  out.bytes(tail.buffer());
  obs::count("serve.delta.diffs");
  obs::count("serve.delta.bytes_written", out.size());
  return out.buffer();
}

std::optional<std::string> apply_delta(std::string_view base_bytes,
                                       std::string_view delta_bytes,
                                       std::string* error) {
  const auto delta = parse_delta(delta_bytes, error);
  if (!delta) return std::nullopt;

  std::string message;
  const auto base = borrow_snapshot(base_bytes, &message);
  if (!base) {
    if (error != nullptr) *error = "base snapshot: " + message;
    return std::nullopt;
  }
  const auto reject = [&error](std::string reason)
      -> std::optional<std::string> {
    if (error != nullptr) *error = std::move(reason);
    obs::count("serve.delta.rejected");
    return std::nullopt;
  };
  if (delta->info.base_checksum != snapshot_checksum(base_bytes)) {
    return reject("delta targets a different base snapshot");
  }

  Snapshot snap;
  snap.seed = delta->info.target_seed;
  snap.addresses_probed = delta->addresses_probed;
  snap.observed_links = delta->observed_links;
  const StringsView& strings =
      delta->info.replaces_strings ? delta->strings : base->strings;
  snap.strings.reserve(strings.size());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    snap.strings.emplace_back(strings[i]);
  }
  if (!merge_section(base->countries, delta->countries, kCountryOps,
                     decode_record<CountryRecord>, snap.countries, message) ||
      !merge_section(base->ases, delta->ases, kAsOps, decode_record<AsRecord>,
                     snap.ases, message) ||
      !merge_section(base->prefixes, delta->prefixes, kPrefixOps,
                     decode_record<PrefixRecord>, snap.prefixes, message) ||
      !merge_section(base->endpoints, delta->endpoints, kEndpointOps,
                     decode_record<EndpointRecord>, snap.endpoints,
                     message) ||
      !merge_section(base->mappings, delta->mappings, kMappingOps,
                     decode_mapping, snap.mappings, message)) {
    return reject(message);
  }
  const RecordSpan<LinkRecord>& links =
      delta->info.replaces_links ? delta->links : base->links;
  snap.links.reserve(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    snap.links.push_back(links[i]);
  }

  // The proof obligation: the rebuilt snapshot must BE the target, byte for
  // byte. Serialization is canonical, so checksum equality is bytes
  // equality; anything the op checks missed dies here.
  std::string rebuilt = serialize(snap);
  if (snapshot_checksum(rebuilt) != delta->info.target_checksum) {
    return reject("applied result does not match the delta's target checksum");
  }
  obs::count("serve.delta.applies");
  obs::count("serve.delta.ops_applied", delta->info.ops);
  return rebuilt;
}

std::optional<DeltaInfo> read_delta_info(std::string_view delta_bytes,
                                         std::string* error) {
  const auto delta = parse_delta(delta_bytes, error);
  if (!delta) return std::nullopt;
  return delta->info;
}

}  // namespace itm::serve
