#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MSV_CRC_X86 1
#include <immintrin.h>
#endif

namespace msv {
namespace {

// Table for the Castagnoli polynomial 0x1EDC6F41 (reflected 0x82F63B78).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

uint32_t Crc32cTableLoop(const char* data, size_t n, uint32_t init) {
  const Crc32cTable& table = Table();
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ static_cast<unsigned char>(data[i])) & 0xffu] ^
          (crc >> 8);
  }
  return ~crc;
}

#ifdef MSV_CRC_X86

// The `crc32` instruction implements the same reflected polynomial with
// no pre/post inversion, so wrapping it in ~ gives the table's function.
// One dependent stream: each step waits on the last (3-cycle latency),
// which is still ~20x the table loop.
__attribute__((target("sse4.2")))
uint32_t Crc32cSse42(const char* data, size_t n, uint32_t init) {
  uint64_t crc = ~init;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return ~crc32;
}

#endif  // MSV_CRC_X86

}  // namespace

bool Crc32cHardwareAvailable() {
#ifdef MSV_CRC_X86
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
#else
  return false;
#endif
}

uint32_t Crc32cAt([[maybe_unused]] util::CpuLevel level, const char* data,
                  size_t n, uint32_t init) {
#ifdef MSV_CRC_X86
  if (level != util::CpuLevel::kScalar && Crc32cHardwareAvailable()) {
    return Crc32cSse42(data, n, init);
  }
#endif
  return Crc32cTableLoop(data, n, init);
}

uint32_t Crc32c(const char* data, size_t n, uint32_t init) {
  return Crc32cAt(util::ActiveCpuLevel(), data, n, init);
}

}  // namespace msv
