// Tests for the centralized fingerprint primitive (ir/fingerprint.h):
// the 64-bit FNV-1a hash behind the plan IR's pred= fingerprints.

#include <gtest/gtest.h>

#include "ir/fingerprint.h"

namespace trac {
namespace {

TEST(Fnv1a64Test, MatchesPublishedVectors) {
  // The canonical FNV-1a 64-bit test vectors (offset basis, then the
  // values tabulated in the FNV reference material).
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64Test, ClassicThirtyTwoBitCollisionsSeparate) {
  // "costarring"/"liquid" and "declinate"/"macallums" are the classic
  // 32-bit FNV-1a collision pairs. Predicate fingerprints use the 64-bit
  // variant precisely so that these separate; this is the regression
  // test pinning that width.
  EXPECT_NE(Fnv1a64("costarring"), Fnv1a64("liquid"));
  EXPECT_NE(Fnv1a64("declinate"), Fnv1a64("macallums"));
  EXPECT_NE(Fnv1a64("altarage"), Fnv1a64("zinke"));
}

}  // namespace
}  // namespace trac
