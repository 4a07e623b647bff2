// FNV-1a over the IEEE-754 bit patterns of a vector of doubles, for
// tests that pin a mechanism's output bits: any change in a value,
// its sign (including -0.0) or the vector length changes the hash.

#ifndef BLOWFISH_TESTS_BIT_HASH_H_
#define BLOWFISH_TESTS_BIT_HASH_H_

#include <cstdint>
#include <cstring>

#include "linalg/vector_ops.h"

namespace blowfish {

inline uint64_t HashBits(const Vector& values) {
  uint64_t h = 14695981039346656037ull;
  for (const double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace blowfish

#endif  // BLOWFISH_TESTS_BIT_HASH_H_
