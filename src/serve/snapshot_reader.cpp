#include "serve/snapshot_reader.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "serve/format.h"

namespace itm::serve {

namespace {

// Local error channel: fail() records the first diagnostic and every
// subsequent check short-circuits, so validation code reads top-to-bottom.
struct Parser {
  std::string error;
  bool failed = false;

  bool fail(const std::string& message) {
    if (!failed) {
      failed = true;
      error = message;
    }
    return false;
  }
};

bool check(Parser& p, bool ok, const char* message) {
  if (!ok) p.fail(message);
  return ok && !p.failed;
}

// Every section is a u32 record count followed by its payload. Each
// validator decodes every record field-by-field through a ByteReader — the
// exact mirror of the writer's emit sequence — and then borrows the raw
// payload as a RecordSpan, so the returned view stays zero-copy while
// truncation, trailing bytes, and per-record invariants are all checked
// once, up front.

bool validate_strings(Parser& p, std::string_view payload, StringsView& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> offsets;
  offsets.reserve(std::min<std::size_t>(count, r.remaining() / 4));
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    const std::uint32_t len = r.u32();
    const std::size_t offset = r.position();
    (void)r.bytes(len);
    if (!r.failed()) {
      offsets.emplace_back(static_cast<std::uint32_t>(offset), len);
    }
  }
  if (!check(p, !r.failed(), "string table truncated")) return false;
  if (!check(p, r.exhausted(), "string table has trailing bytes")) {
    return false;
  }
  out = StringsView::wire(payload.data(), std::move(offsets));
  return true;
}

bool validate_meta(Parser& p, std::string_view payload, SnapshotView& view) {
  ByteReader r(payload);
  view.addresses_probed = r.u64();
  view.observed_links = r.u64();
  if (!check(p, !r.failed(), "meta section truncated")) return false;
  return check(p, r.exhausted(), "meta section has trailing bytes");
}

bool validate_countries(Parser& p, std::string_view payload,
                        const SnapshotView& view,
                        RecordSpan<CountryRecord>& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  CountryRecord prev;
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    CountryRecord rec;
    rec.country = r.u32();
    rec.name_ref = r.u32();
    if (r.failed()) break;
    if (!check(p, rec.name_ref < view.strings.size(),
               "country name reference out of range")) {
      return false;
    }
    if (i > 0 && !check(p, prev.country < rec.country,
                        "country records not sorted by id")) {
      return false;
    }
    prev = rec;
  }
  if (!check(p, !r.failed(), "country section truncated")) return false;
  if (!check(p, r.exhausted(), "country section has trailing bytes")) {
    return false;
  }
  out = RecordSpan<CountryRecord>::wire(payload.data() + 4, count);
  return true;
}

bool validate_ases(Parser& p, std::string_view payload,
                   const SnapshotView& view, RecordSpan<AsRecord>& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  std::uint32_t prev_asn = 0;
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    AsRecord rec;
    rec.asn = r.u32();
    rec.name_ref = r.u32();
    rec.country = r.u32();
    rec.type = r.u32();
    rec.flags = r.u32();
    rec.activity = r.f64();
    if (r.failed()) break;
    if (!check(p, rec.name_ref < view.strings.size(),
               "AS name reference out of range")) {
      return false;
    }
    if (i > 0 &&
        !check(p, prev_asn < rec.asn, "AS records not sorted by ASN")) {
      return false;
    }
    prev_asn = rec.asn;
  }
  if (!check(p, !r.failed(), "AS section truncated")) return false;
  if (!check(p, r.exhausted(), "AS section has trailing bytes")) {
    return false;
  }
  out = RecordSpan<AsRecord>::wire(payload.data() + 4, count);
  return true;
}

bool validate_prefixes(Parser& p, std::string_view payload,
                       RecordSpan<PrefixRecord>& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  PrefixRecord prev;
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    PrefixRecord rec;
    rec.base = r.u32();
    rec.length = r.u32();
    rec.origin_asn = r.u32();
    if (r.failed()) break;
    if (!check(p, rec.length <= 32, "prefix length out of range")) {
      return false;
    }
    if (i > 0) {
      if (!check(p, std::pair{prev.base, prev.length} <
                        std::pair{rec.base, rec.length},
                 "prefix records not sorted")) {
        return false;
      }
      // Disjointness keeps point lookup a single binary search.
      if (!check(p, !prev.prefix().contains(rec.prefix()),
                 "prefix records overlap")) {
        return false;
      }
    }
    prev = rec;
  }
  if (!check(p, !r.failed(), "prefix section truncated")) return false;
  if (!check(p, r.exhausted(), "prefix section has trailing bytes")) {
    return false;
  }
  out = RecordSpan<PrefixRecord>::wire(payload.data() + 4, count);
  return true;
}

bool validate_endpoints(Parser& p, std::string_view payload,
                        const SnapshotView& view,
                        RecordSpan<EndpointRecord>& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  std::uint32_t prev_address = 0;
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    EndpointRecord rec;
    rec.address = r.u32();
    rec.origin_asn = r.u32();
    rec.operator_ref = r.u32();
    rec.flags = r.u32();
    rec.lat_deg = r.f64();
    rec.lon_deg = r.f64();
    if (r.failed()) break;
    if (!check(p,
               rec.operator_ref == kNoRef ||
                   rec.operator_ref < view.strings.size(),
               "endpoint operator reference out of range")) {
      return false;
    }
    if (i > 0 && !check(p, prev_address < rec.address,
                        "endpoint records not sorted by address")) {
      return false;
    }
    prev_address = rec.address;
  }
  if (!check(p, !r.failed(), "endpoint section truncated")) return false;
  if (!check(p, r.exhausted(), "endpoint section has trailing bytes")) {
    return false;
  }
  out = RecordSpan<EndpointRecord>::wire(payload.data() + 4, count);
  return true;
}

bool validate_mappings(Parser& p, std::string_view payload,
                       MappingsView& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  std::vector<MappingsView::WireDir> dir;
  dir.reserve(std::min<std::size_t>(count, r.remaining() / 8));
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    MappingsView::WireDir d;
    d.service = r.u32();
    d.entry_count = r.u32();
    d.entry_offset = r.position();
    MappingEntry prev;
    for (std::uint32_t j = 0; j < d.entry_count && !r.failed(); ++j) {
      MappingEntry entry;
      entry.prefix_base = r.u32();
      entry.prefix_length = r.u32();
      entry.address = r.u32();
      if (r.failed()) break;
      if (!check(p, entry.prefix_length <= 32,
                 "mapping prefix length out of range")) {
        return false;
      }
      if (j > 0 &&
          !check(p,
                 std::pair{prev.prefix_base, prev.prefix_length} <
                     std::pair{entry.prefix_base, entry.prefix_length},
                 "mapping entries not sorted by prefix")) {
        return false;
      }
      prev = entry;
    }
    if (r.failed()) break;
    if (!dir.empty() && !check(p, dir.back().service < d.service,
                               "service mappings not sorted by id")) {
      return false;
    }
    dir.push_back(d);
  }
  if (!check(p, !r.failed(), "mapping section truncated")) return false;
  if (!check(p, r.exhausted(), "mapping section has trailing bytes")) {
    return false;
  }
  out = MappingsView::wire(payload.data(), std::move(dir));
  return true;
}

bool validate_links(Parser& p, std::string_view payload,
                    RecordSpan<LinkRecord>& out) {
  ByteReader r(payload);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    LinkRecord rec;
    rec.a = r.u32();
    rec.b = r.u32();
    rec.score = r.f64();
    (void)rec;
  }
  if (!check(p, !r.failed(), "link section truncated")) return false;
  if (!check(p, r.exhausted(), "link section has trailing bytes")) {
    return false;
  }
  out = RecordSpan<LinkRecord>::wire(payload.data() + 4, count);
  return true;
}

constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;

}  // namespace

std::optional<SnapshotView> borrow_snapshot(std::string_view bytes,
                                            std::string* error) {
  Parser p;
  const auto fail = [&](const char* message) -> std::optional<SnapshotView> {
    p.fail(message);
    if (error != nullptr) *error = p.error;
    obs::count("serve.snapshot.load_rejected");
    return std::nullopt;
  };

  if (bytes.size() < kHeaderSize) return fail("file shorter than header");
  ByteReader header(bytes.substr(0, kHeaderSize));
  const auto magic = header.bytes(kSnapshotMagic.size());
  if (magic != std::string_view(kSnapshotMagic.data(), kSnapshotMagic.size())) {
    return fail("bad magic (not an .itms snapshot)");
  }
  if (header.u32() != kSnapshotVersion) return fail("unsupported version");
  if (header.u32() != kEndianMarker) return fail("endianness marker mismatch");
  const std::uint64_t checksum = header.u64();

  const std::string_view tail = bytes.substr(kHeaderSize);
  if (fnv1a64(tail) != checksum) {
    return fail("checksum mismatch (corrupted snapshot)");
  }

  ByteReader t(tail);
  SnapshotView view;
  view.seed = t.u64();
  const std::uint32_t section_count = t.u32();
  if (t.u32() != 0) return fail("reserved header field not zero");
  if (t.failed()) return fail("section table truncated");

  // The canonical layout: ascending unique ids, payloads tightly packed
  // immediately after the table, covering the file exactly.
  struct Section {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t size;
  };
  std::vector<Section> sections;
  sections.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    Section s{};
    s.id = t.u32();
    if (t.u32() != 0) return fail("reserved section field not zero");
    s.offset = t.u64();
    s.size = t.u64();
    if (t.failed()) return fail("section table truncated");
    sections.push_back(s);
  }
  std::uint64_t expected_offset = kHeaderSize + 8 + 4 + 4 +
                                  std::uint64_t{section_count} * 24;
  for (const auto& s : sections) {
    if (s.offset != expected_offset) return fail("sections not tightly packed");
    if (s.offset + s.size > bytes.size()) return fail("section out of bounds");
    expected_offset += s.size;
  }
  if (expected_offset != bytes.size()) {
    return fail("trailing bytes after last section");
  }
  for (std::size_t i = 1; i < sections.size(); ++i) {
    if (sections[i - 1].id >= sections[i].id) {
      return fail("sections not in ascending id order");
    }
  }

  const auto payload = [&](SectionId id) -> std::string_view {
    for (const auto& s : sections) {
      if (s.id == static_cast<std::uint32_t>(id)) {
        return bytes.substr(s.offset, s.size);
      }
    }
    return {};
  };
  // Every v1 section is required, and no other ids are defined.
  for (const auto& s : sections) {
    if (s.id < 1 || s.id > 8) return fail("unknown section id");
  }
  if (sections.size() != 8) return fail("missing required section");

  bool ok = validate_strings(p, payload(SectionId::kStrings), view.strings);
  ok = ok && validate_meta(p, payload(SectionId::kMeta), view);
  ok = ok && validate_countries(p, payload(SectionId::kCountries), view,
                                view.countries);
  ok = ok && validate_ases(p, payload(SectionId::kAsRecords), view, view.ases);
  ok = ok && validate_prefixes(p, payload(SectionId::kPrefixes), view.prefixes);
  ok = ok && validate_endpoints(p, payload(SectionId::kEndpoints), view,
                                view.endpoints);
  ok = ok && validate_mappings(p, payload(SectionId::kMappings), view.mappings);
  ok = ok && validate_links(p, payload(SectionId::kLinks), view.links);
  if (!ok || p.failed) {
    if (error != nullptr) *error = p.error;
    obs::count("serve.snapshot.load_rejected");
    return std::nullopt;
  }

  obs::count("serve.snapshot.loads");
  obs::count("serve.snapshot.bytes_read", bytes.size());
  return view;
}

std::uint64_t snapshot_checksum(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) return 0;
  return wire_u64(bytes.data() + 8 + 4 + 4);
}

}  // namespace itm::serve
