#include "storage/attribute_set.h"

#include <algorithm>

#include "common/macros.h"

namespace lsens {

AttributeSet MakeAttributeSet(std::vector<AttrId> attrs) {
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

bool IsValidAttributeSet(const AttributeSet& set) {
  for (size_t i = 1; i < set.size(); ++i) {
    if (set[i - 1] >= set[i]) return false;
  }
  return true;
}

AttributeSet Union(const AttributeSet& a, const AttributeSet& b) {
  AttributeSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

AttributeSet Intersect(const AttributeSet& a, const AttributeSet& b) {
  AttributeSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

AttributeSet Difference(const AttributeSet& a, const AttributeSet& b) {
  AttributeSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool Contains(const AttributeSet& set, AttrId attr) {
  return std::binary_search(set.begin(), set.end(), attr);
}

bool IsSubset(const AttributeSet& sub, const AttributeSet& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool Intersects(const AttributeSet& a, const AttributeSet& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

std::vector<int> PositionsOf(const AttributeSet& set, const AttributeSet& sub) {
  std::vector<int> positions;
  positions.reserve(sub.size());
  for (AttrId a : sub) {
    auto it = std::lower_bound(set.begin(), set.end(), a);
    LSENS_CHECK(it != set.end() && *it == a);
    positions.push_back(static_cast<int>(it - set.begin()));
  }
  return positions;
}

}  // namespace lsens
