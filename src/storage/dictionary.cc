#include "storage/dictionary.h"

#include "common/macros.h"

namespace lsens {

Value Dictionary::Intern(std::string_view s) {
  auto it = values_.find(s);
  if (it != values_.end()) return it->second;
  Value v = kBase + static_cast<Value>(strings_.size());
  strings_.emplace_back(s);
  values_.emplace(strings_.back(), v);
  return v;
}

void Dictionary::CatchUpTo(const Dictionary& source) {
  LSENS_CHECK(size() <= source.size());
  for (size_t i = size(); i < source.size(); ++i) {
    LSENS_CHECK(Intern(source.strings_[i]) == kBase + static_cast<Value>(i));
  }
}

Value Dictionary::Lookup(std::string_view s) const {
  auto it = values_.find(s);
  if (it == values_.end()) return -1;
  return it->second;
}

const std::string& Dictionary::String(Value v) const {
  LSENS_CHECK(ContainsValue(v));
  return strings_[static_cast<size_t>(v - kBase)];
}

size_t Dictionary::MemoryBytes() const {
  // strings_ and values_ hold the same entries 1:1 (every string is stored
  // twice — code order and reverse-index key), so the walk stays on the
  // ordered view and only the bucket array is charged from the map itself.
  size_t bytes = strings_.capacity() * sizeof(std::string);
  bytes += values_.bucket_count() * sizeof(void*);
  for (const std::string& s : strings_) {
    bytes += 2 * s.capacity() + sizeof(std::string) + sizeof(Value) +
             2 * sizeof(void*);
  }
  return bytes;
}

}  // namespace lsens
