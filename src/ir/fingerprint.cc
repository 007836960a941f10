#include "ir/fingerprint.h"

namespace trac {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 14695981039346656037ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace trac
