// Deduplicating, deterministic string table (interner).
//
// Table order is first-insertion order, and every producer interns in a
// deterministic (ASN-/record-sorted) sequence, so the table contents are a
// pure function of the data — the property the `.itms` snapshot's string
// section relies on for byte-identical exports across thread counts.
//
// The serve snapshot writer interns AS names in dense ASN order, then
// country names, then measurement-derived strings such as inferred operator
// names; that order is the `.itms` string section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace itm::net {

class StringTable {
 public:
  // Sentinel for "no string" references.
  static constexpr std::uint32_t kNoRef = 0xffffffffu;

  // Returns the table index for `s`, inserting it on first sight.
  std::uint32_t intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const auto ref = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    index_.emplace(std::string(s), ref);
    return ref;
  }

  // Lookup of an already-interned string; kNoRef when absent.
  [[nodiscard]] std::uint32_t find(std::string_view s) const {
    const auto it = index_.find(s);
    return it == index_.end() ? kNoRef : it->second;
  }

  [[nodiscard]] const std::string& at(std::uint32_t ref) const {
    return strings_[ref];
  }
  [[nodiscard]] std::size_t size() const { return strings_.size(); }
  [[nodiscard]] const std::vector<std::string>& strings() const {
    return strings_;
  }

  // Moves the table contents out (the snapshot writer's final step).
  [[nodiscard]] std::vector<std::string> take() {
    index_.clear();
    return std::move(strings_);
  }

  // Approximate heap bytes (bench accounting: interned names are the
  // string-heavy part of the per-AS layout).
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t total = strings_.capacity() * sizeof(std::string);
    for (const auto& s : strings_) {
      if (s.size() >= sizeof(std::string)) total += s.capacity() + 1;
    }
    // Index nodes: owned key + ref + tree overhead, roughly.
    total += index_.size() * (sizeof(void*) * 4 + sizeof(std::uint32_t) +
                              sizeof(std::string));
    return total;
  }

 private:
  std::vector<std::string> strings_;
  // The index owns key copies (table entries may relocate as the vector
  // grows); std::map keeps lookup deterministic and heterogeneous.
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

}  // namespace itm::net
