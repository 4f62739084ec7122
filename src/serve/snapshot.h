// In-memory model of a compiled `.itms` map snapshot.
//
// This is what compile_snapshot flattens a map into and what write_snapshot
// serializes: flat sorted vectors of fixed-shape records — the serving
// layer's data model, deliberately divorced from the builder's pointer-rich
// TrafficMap. Reading goes the other way only through the wire views of
// view.h; the record structs here are what those views decode to. Record
// order invariants (documented per field) are part of the format; the
// reader rejects files that violate them, which is what makes
// re-serialization byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4.h"

namespace itm::serve {

// One AS of the public topology slice: identity, classification, and the
// map's activity estimate. `activity` is 0.0 for ASes the map detected no
// activity in (matching inference::ActivityEstimate::score).
struct AsRecord {
  std::uint32_t asn = 0;
  std::uint32_t name_ref = 0;  // index into Snapshot::strings
  std::uint32_t country = 0;
  std::uint32_t type = 0;  // topology::AsType as an integer
  // Bit 0: the map lists this AS as a client (eyeball) network.
  std::uint32_t flags = 0;
  double activity = 0.0;

  [[nodiscard]] bool is_client() const { return (flags & 1u) != 0; }
};

// One detected client prefix with its precompiled origin AS (kNoRef when
// the address plan had no covering aggregate at build time).
struct PrefixRecord {
  std::uint32_t base = 0;    // network byte pattern, host order
  std::uint32_t length = 0;  // mask length, 0..32
  std::uint32_t origin_asn = 0;

  [[nodiscard]] Ipv4Prefix prefix() const {
    return Ipv4Prefix(Ipv4Addr(base), static_cast<std::uint8_t>(length));
  }
};

// One TLS endpoint from the map's serving-infrastructure component.
struct EndpointRecord {
  std::uint32_t address = 0;
  std::uint32_t origin_asn = 0;
  std::uint32_t operator_ref = 0;  // kNoRef when no operator was inferred
  // Bit 0: inferred off-net; bit 1: geolocation present.
  std::uint32_t flags = 0;
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  [[nodiscard]] bool offnet() const { return (flags & 1u) != 0; }
  [[nodiscard]] bool has_geo() const { return (flags & 2u) != 0; }
};

// One (client /24 -> front end) pair of a service's ECS mapping sweep.
struct MappingEntry {
  std::uint32_t prefix_base = 0;
  std::uint32_t prefix_length = 0;
  std::uint32_t address = 0;
};

// A service's full user-to-host mapping, entries sorted by prefix.
struct ServiceMapping {
  std::uint32_t service = 0;
  std::vector<MappingEntry> entries;
};

// One recommended peering link, in recommender order (score descending with
// the recommender's deterministic tie-breaks) — order is meaningful, so it
// is preserved rather than re-sorted.
struct LinkRecord {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double score = 0.0;
};

struct CountryRecord {
  std::uint32_t country = 0;
  std::uint32_t name_ref = 0;
};

struct Snapshot {
  // Scenario seed the map was built from (provenance, printed by `itm
  // serve`; never used to re-derive data).
  std::uint64_t seed = 0;

  // Map-wide scalars (the meta section).
  std::uint64_t addresses_probed = 0;
  std::uint64_t observed_links = 0;

  // Deduplicated string table; records reference entries by index.
  std::vector<std::string> strings;

  std::vector<CountryRecord> countries;  // sorted by country id, unique
  std::vector<AsRecord> ases;            // sorted by asn, unique
  // Sorted by (base, length), unique and pairwise disjoint — the invariant
  // that makes longest-prefix point lookup a single binary search.
  std::vector<PrefixRecord> prefixes;
  std::vector<EndpointRecord> endpoints;  // sorted by address, unique
  std::vector<ServiceMapping> mappings;   // sorted by service id, unique
  std::vector<LinkRecord> links;          // recommender order
};

}  // namespace itm::serve
