#include "sql/decoded_page.h"

#include <string>

namespace rql::sql {

void DecodedPage::MaterializeRow(uint32_t row, Row* out) const {
  const uint32_t begin = row_begin[row];
  const uint32_t n = row_begin[row + 1] - begin;
  out->resize(n);
  for (uint32_t c = 0; c < n; ++c) (*out)[c].Assign(CellAt(begin + c));
}

Status DecodedPage::AppendRecord(std::string_view record, uint16_t slot) {
  // The EncodeRow format, parsed as DecodeRow parses it and failing with
  // its errors, but into cells: numbers are copied bit for bit and text
  // is located, not copied.
  std::string_view data = record;
  auto take = [&data](auto* out) {
    if (data.size() < sizeof(*out)) return false;
    std::memcpy(out, data.data(), sizeof(*out));
    data.remove_prefix(sizeof(*out));
    return true;
  };
  const size_t first = tags.size();
  auto fail = [&](const char* what) {
    tags.resize(first);
    cells.resize(first);
    return Status::Corruption(std::string("row decode: ") + what);
  };
  uint32_t count = 0;
  if (!take(&count)) return fail("truncated header");
  for (uint32_t i = 0; i < count; ++i) {
    if (data.empty()) return fail("truncated tag");
    const auto type = static_cast<ValueType>(data.front());
    data.remove_prefix(1);
    uint64_t bits = 0;
    switch (type) {
      case ValueType::kNull:
        break;
      case ValueType::kInteger:
        if (!take(&bits)) return fail("truncated int");
        break;
      case ValueType::kReal:
        if (!take(&bits)) return fail("truncated real");
        break;
      case ValueType::kText: {
        uint32_t len;
        if (!take(&len) || data.size() < len) return fail("truncated text");
        bits = static_cast<uint64_t>(data.data() - base) << 32 | len;
        data.remove_prefix(len);
        break;
      }
      default:
        return fail("bad type tag");
    }
    tags.push_back(type);
    cells.push_back(bits);
  }
  if (!data.empty()) return fail("trailing bytes");
  slots.push_back(slot);
  row_begin.push_back(static_cast<uint32_t>(tags.size()));
  return Status::OK();
}

void DecodedPage::ShrinkToFit() {
  slots.shrink_to_fit();
  row_begin.shrink_to_fit();
  tags.shrink_to_fit();
  cells.shrink_to_fit();
}

namespace {

struct OwnedRows {
  std::string bytes;
  DecodedPage page;
};

}  // namespace

std::shared_ptr<const DecodedPage> DecodeRows(const std::vector<Row>& rows) {
  auto owned = std::make_shared<OwnedRows>();
  std::vector<size_t> ends;
  for (const Row& row : rows) {
    EncodeRow(row, &owned->bytes);
    ends.push_back(owned->bytes.size());
  }
  DecodedPage* page = &owned->page;
  page->base = owned->bytes.data();
  size_t begin = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    // EncodeRow output always parses back.
    (void)page->AppendRecord(
        std::string_view(page->base + begin, ends[r] - begin),
        static_cast<uint16_t>(r));
    begin = ends[r];
  }
  return std::shared_ptr<const DecodedPage>(owned, page);
}

}  // namespace rql::sql
