#ifndef TRAC_ABSINT_DOMAINS_H_
#define TRAC_ABSINT_DOMAINS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace trac {
namespace absint {

/// The two lattice domains of the abstract interpreter over the plan
/// IR (absint/absint.h). Deliberately header-only: exec/planner.h takes
/// a CardInterval as a planning hint, and trac_ir consumes planner.h
/// header-only, so the domains must not pull in a new link dependency.

/// Finite-powerset domain of data-source provenance (Definition 2): the
/// set of source-declaring relations whose identity a column's values
/// may carry. Bottom is the empty set; join is set union; the domain is
/// finite (tables in the catalog), so joins trivially terminate.
struct SourceSet {
  /// Sorted, deduplicated table names.
  std::vector<std::string> tables;

  bool empty() const { return tables.empty(); }

  void Insert(const std::string& table) {
    auto it = std::lower_bound(tables.begin(), tables.end(), table);
    if (it == tables.end() || *it != table) tables.insert(it, table);
  }

  /// Lattice join: set union.
  void JoinWith(const SourceSet& other) {
    for (const std::string& t : other.tables) Insert(t);
  }

  bool operator==(const SourceSet& other) const {
    return tables == other.tables;
  }
  bool operator!=(const SourceSet& other) const { return !(*this == other); }

  /// "{a,b}" ("{}" when empty).
  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < tables.size(); ++i) {
      if (i != 0) out += ',';
      out += tables[i];
    }
    out += '}';
    return out;
  }
};

/// Interval domain over row counts with saturating arithmetic. `lo` is a
/// guaranteed minimum, `hi` a guaranteed maximum; `unbounded` lifts the
/// upper end to +inf (the conservative answer for scans of unknown
/// size).
struct CardInterval {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool unbounded = false;

  static CardInterval Exact(uint64_t n) { return CardInterval{n, n, false}; }
  static CardInterval UpTo(uint64_t n) { return CardInterval{0, n, false}; }
  static CardInterval Unknown() { return CardInterval{0, 0, true}; }

  /// The node can provably produce no rows (TRAC-V006 trigger shape).
  bool DefinitelyEmpty() const { return !unbounded && hi == 0; }

  /// Lattice join: interval hull.
  void JoinWith(const CardInterval& other) {
    lo = std::min(lo, other.lo);
    hi = std::max(hi, other.hi);
    unbounded = unbounded || other.unbounded;
  }

  /// Saturating sum (merge of disjoint strands).
  static CardInterval Sum(const CardInterval& a, const CardInterval& b) {
    CardInterval out;
    out.unbounded = a.unbounded || b.unbounded;
    out.lo = SatAdd(a.lo, b.lo);
    out.hi = out.unbounded ? 0 : SatAdd(a.hi, b.hi);
    return out;
  }

  /// Saturating product (join worst case: the cross product).
  static CardInterval Product(const CardInterval& a, const CardInterval& b) {
    CardInterval out;
    out.lo = 0;  // Any join may match nothing.
    out.unbounded = a.unbounded || b.unbounded;
    out.hi = out.unbounded ? 0 : SatMul(a.hi, b.hi);
    return out;
  }

  /// "[lo..hi]" or "[lo..inf]".
  std::string ToString() const {
    std::string out = "[" + std::to_string(lo) + "..";
    out += unbounded ? "inf" : std::to_string(hi);
    return out + "]";
  }

  static uint64_t SatAdd(uint64_t a, uint64_t b) {
    uint64_t r;
    if (__builtin_add_overflow(a, b, &r)) {
      return std::numeric_limits<uint64_t>::max();
    }
    return r;
  }
  static uint64_t SatMul(uint64_t a, uint64_t b) {
    uint64_t r;
    if (__builtin_mul_overflow(a, b, &r)) {
      return std::numeric_limits<uint64_t>::max();
    }
    return r;
  }
};

}  // namespace absint
}  // namespace trac

#endif  // TRAC_ABSINT_DOMAINS_H_
