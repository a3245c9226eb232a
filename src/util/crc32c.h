// CRC-32C (Castagnoli) checksums for on-disk integrity.
//
// Every leaf is verified against its CRC on every read, so this checksum
// sits on the query's leaf-I/O path: over a ~49 KB leaf the byte-at-a-time
// table loop costs ~150 µs, more than everything else a leaf read does in
// memory. On x86-64 hosts with SSE4.2 the checksum therefore runs on the
// `crc32` instruction (8 bytes per step, ~20x faster); the table loop is
// the portable fallback and the reference both are tested against. Both
// compute the same function, so stored checksums do not depend on the
// host that wrote them.
//
// The variant follows util::ActiveCpuLevel(): `MSV_CPU_FEATURES=scalar`
// forces the table loop, any other level uses the instruction when the
// host has it.

#ifndef MSV_UTIL_CRC32C_H_
#define MSV_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "util/cpu.h"

namespace msv {

/// CRC-32C of `data[0, n)`, seeded with `init` (pass a previous Crc32c
/// result to extend a running checksum). Dispatched on the active CPU
/// level.
uint32_t Crc32c(const char* data, size_t n, uint32_t init = 0);

/// Crc32c computed by the variant for `level`: the table loop at kScalar
/// or on hosts without SSE4.2, the `crc32` instruction otherwise. For the
/// equivalence tests and the in-bench A/B.
uint32_t Crc32cAt(util::CpuLevel level, const char* data, size_t n,
                  uint32_t init = 0);

/// True when this host executes the hardware variant at non-scalar levels.
bool Crc32cHardwareAvailable();

/// Masked CRC, RocksDB/LevelDB style: storing the CRC of data that itself
/// contains CRCs is error-prone, so stored checksums are rotated+offset.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace msv

#endif  // MSV_UTIL_CRC32C_H_
