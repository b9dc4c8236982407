#include "query/versioned_cores.h"

#include <algorithm>
#include <cstring>

namespace parcore::query {

std::vector<CoreValue> CoreView::materialize() const {
  std::vector<CoreValue> out;
  if (table_ == nullptr) return out;
  out.resize(table_->n);
  std::size_t at = 0;
  for (const auto& page : table_->pages) {
    std::memcpy(out.data() + at, page->data(),
                page->size() * sizeof(CoreValue));
    at += page->size();
  }
  return out;
}

VersionedCoreIndex::VersionedCoreIndex(Options opts) {
  const std::size_t want =
      std::clamp(opts.page_size, kMinPageSize, kMaxPageSize);
  bits_ = 0;
  while ((std::size_t{1} << bits_) < want) ++bits_;
}

std::shared_ptr<CoreView::PageTable> VersionedCoreIndex::make_table(
    std::size_t n) const {
  auto table = std::make_shared<CoreView::PageTable>();
  table->n = n;
  table->bits = bits_;
  table->mask = static_cast<VertexId>((std::size_t{1} << bits_) - 1);
  table->pages.resize((n + (std::size_t{1} << bits_) - 1) >> bits_);
  return table;
}

}  // namespace parcore::query
