// Zero-copy section views over `.itms` snapshot bytes.
//
// The wire format is flat, little-endian and offset-indexed, so a validated
// file is *served from in place*: a SnapshotView's record spans borrow the
// raw section bytes and decode a record per access (a handful of unaligned
// little-endian loads). Validated wire bytes are the one read form of a
// snapshot — QueryEngine, the resident server, the delta differ/applier and
// the tests all read records through these views.
//
// A view never owns the underlying storage: the mmap or byte buffer it was
// built over must outlive it (MmapSnapshot and serve::Epoch package storage
// + view together). The small auxiliary indexes a view needs for random
// access — string offsets, the per-service mapping directory — are owned by
// the view itself and cost a few bytes per entry instead of a copy of the
// section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/snapshot.h"

namespace itm::serve {

// Unaligned little-endian loads — the borrow-mode record decoders. memcpy
// compiles to a plain load on every target we build for; the explicit
// byte-assembly keeps big-endian hosts correct (mirroring ByteReader).
inline std::uint32_t wire_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}
inline std::uint64_t wire_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}
inline double wire_f64(const char* p) {
  const std::uint64_t bits = wire_u64(p);
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// Per-record wire layout: size in bytes and a decoder. The layouts mirror
// snapshot_writer.cpp exactly; the ABI-pairing lint rule keeps them honest.
template <typename Rec>
struct WireCodec;

template <>
struct WireCodec<CountryRecord> {
  static constexpr std::size_t kBytes = 8;
  static CountryRecord decode(const char* p) {
    CountryRecord rec;
    rec.country = wire_u32(p);
    rec.name_ref = wire_u32(p + 4);
    return rec;
  }
};

template <>
struct WireCodec<AsRecord> {
  static constexpr std::size_t kBytes = 28;
  static AsRecord decode(const char* p) {
    AsRecord rec;
    rec.asn = wire_u32(p);
    rec.name_ref = wire_u32(p + 4);
    rec.country = wire_u32(p + 8);
    rec.type = wire_u32(p + 12);
    rec.flags = wire_u32(p + 16);
    rec.activity = wire_f64(p + 20);
    return rec;
  }
};

template <>
struct WireCodec<PrefixRecord> {
  static constexpr std::size_t kBytes = 12;
  static PrefixRecord decode(const char* p) {
    PrefixRecord rec;
    rec.base = wire_u32(p);
    rec.length = wire_u32(p + 4);
    rec.origin_asn = wire_u32(p + 8);
    return rec;
  }
};

template <>
struct WireCodec<EndpointRecord> {
  static constexpr std::size_t kBytes = 32;
  static EndpointRecord decode(const char* p) {
    EndpointRecord rec;
    rec.address = wire_u32(p);
    rec.origin_asn = wire_u32(p + 4);
    rec.operator_ref = wire_u32(p + 8);
    rec.flags = wire_u32(p + 12);
    rec.lat_deg = wire_f64(p + 16);
    rec.lon_deg = wire_f64(p + 24);
    return rec;
  }
};

template <>
struct WireCodec<MappingEntry> {
  static constexpr std::size_t kBytes = 12;
  static MappingEntry decode(const char* p) {
    MappingEntry entry;
    entry.prefix_base = wire_u32(p);
    entry.prefix_length = wire_u32(p + 4);
    entry.address = wire_u32(p + 8);
    return entry;
  }
};

template <>
struct WireCodec<LinkRecord> {
  static constexpr std::size_t kBytes = 16;
  static LinkRecord decode(const char* p) {
    LinkRecord rec;
    rec.a = wire_u32(p);
    rec.b = wire_u32(p + 4);
    rec.score = wire_f64(p + 8);
    return rec;
  }
};

// A read-only random-access span of fixed-shape records over raw wire
// bytes. operator[] returns by value: records are a few machine words, and
// decoding on access is what makes the view copy-free.
template <typename Rec>
class RecordSpan {
 public:
  RecordSpan() = default;

  static RecordSpan wire(const char* bytes, std::size_t count) {
    RecordSpan span;
    span.wire_ = bytes;
    span.count_ = count;
    return span;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] Rec operator[](std::size_t i) const {
    return WireCodec<Rec>::decode(bytes(i).data());
  }
  // Record i's wire encoding — what deltas compare and carry.
  [[nodiscard]] std::string_view bytes(std::size_t i) const {
    return {wire_ + i * WireCodec<Rec>::kBytes, WireCodec<Rec>::kBytes};
  }

 private:
  const char* wire_ = nullptr;
  std::size_t count_ = 0;
};

// First index whose record does NOT satisfy `less_than_key` — the span
// analogue of std::lower_bound over a sorted section. The spans' value-
// returning accessors rule out the standard iterator algorithms, and a
// twenty-line binary search beats conforming proxy iterators.
template <typename Rec, typename LessThanKey>
std::size_t span_lower_bound(const RecordSpan<Rec>& span,
                             LessThanKey&& less_than_key) {
  std::size_t lo = 0;
  std::size_t hi = span.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (less_than_key(span[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// String table view: (offset, length) pairs into the section payload, so
// the string bytes themselves stay in the mapping.
class StringsView {
 public:
  StringsView() = default;

  static StringsView wire(const char* base,
                          std::vector<std::pair<std::uint32_t, std::uint32_t>>
                              offsets) {
    StringsView view;
    view.wire_ = base;
    view.offsets_ = std::move(offsets);
    return view;
  }

  [[nodiscard]] std::size_t size() const { return offsets_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    return {wire_ + offsets_[i].first, offsets_[i].second};
  }

 private:
  const char* wire_ = nullptr;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> offsets_;
};

// One service's mapping as the engine consumes it: the id plus a span of
// prefix-sorted entries.
struct ServiceMappingView {
  std::uint32_t service = 0;
  RecordSpan<MappingEntry> entries;
};

// The mapping section: services ascending. The view carries a small
// directory (service id, entry offset, entry count) built at validation
// time; entries stay in the mapping.
class MappingsView {
 public:
  struct WireDir {
    std::uint32_t service = 0;
    std::uint32_t entry_count = 0;
    std::uint64_t entry_offset = 0;  // bytes from section start
  };

  MappingsView() = default;

  static MappingsView wire(const char* base, std::vector<WireDir> dir) {
    MappingsView view;
    view.wire_ = base;
    view.dir_ = std::move(dir);
    return view;
  }

  [[nodiscard]] std::size_t size() const { return dir_.size(); }
  [[nodiscard]] ServiceMappingView operator[](std::size_t i) const {
    const WireDir& d = dir_[i];
    return {d.service,
            RecordSpan<MappingEntry>::wire(wire_ + d.entry_offset,
                                           d.entry_count)};
  }
  // Service i's wire encoding: service id, entry count, then the entries.
  [[nodiscard]] std::string_view bytes(std::size_t i) const {
    const WireDir& d = dir_[i];
    return {wire_ + d.entry_offset - 8,
            8 + d.entry_count * WireCodec<MappingEntry>::kBytes};
  }

 private:
  const char* wire_ = nullptr;
  std::vector<WireDir> dir_;
};

// The whole snapshot as section views — what QueryEngine serves from.
struct SnapshotView {
  std::uint64_t seed = 0;
  std::uint64_t addresses_probed = 0;
  std::uint64_t observed_links = 0;

  StringsView strings;
  RecordSpan<CountryRecord> countries;
  RecordSpan<AsRecord> ases;
  RecordSpan<PrefixRecord> prefixes;
  RecordSpan<EndpointRecord> endpoints;
  MappingsView mappings;
  RecordSpan<LinkRecord> links;
};

}  // namespace itm::serve
