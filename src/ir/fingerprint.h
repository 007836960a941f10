#ifndef TRAC_IR_FINGERPRINT_H_
#define TRAC_IR_FINGERPRINT_H_

#include <cstdint>
#include <string_view>

namespace trac {

/// 64-bit FNV-1a over `data`. The single fingerprint primitive of the
/// codebase: the predicate fingerprints (pred= in ir/lower.h) go through
/// here, and trac_lint's fingerprint-confinement rule keeps the
/// constants from leaking into other layers. 64 bits matter: the classic
/// 32-bit FNV-1a collision pairs ("costarring"/"liquid") separate at
/// this width.
uint64_t Fnv1a64(std::string_view data);

}  // namespace trac

#endif  // TRAC_IR_FINGERPRINT_H_
