#include "frote/util/hash.hpp"

#include <bit>
#include <cstdio>

#include "frote/data/dataset.hpp"

namespace frote {

std::string dataset_digest_hex(const Dataset& data) {
  Fnv1a64 h;
  h.update_u64(data.size());
  h.update_u64(data.num_features());
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update_u64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(data.label(i))));
    h.update_u64(data.row_id(i));
    for (const double value : data.row(i)) {
      h.update_u64(std::bit_cast<std::uint64_t>(value));
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buffer;
}

}  // namespace frote
