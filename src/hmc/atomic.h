// HMC 2.0 atomic operations (paper Table I) and their functional semantics.
//
// HMC 2.0 defines 18 atomic request commands across four categories:
// arithmetic, bitwise, boolean, and comparison. Every operation is a
// read-modify-write on a single 16-byte (or 8-byte) memory operand with an
// immediate carried in the request packet. Posted (no-response) behavior is
// expressed by the request's want_return flag rather than separate opcodes.
//
// Section III-C of the paper proposes extending the set with floating-point
// add/sub; those extension ops are included here behind an "extension"
// marker so the evaluation can ablate them
// (`graphpim_bench ablation_fp_atomics`).
#ifndef GRAPHPIM_HMC_ATOMIC_H_
#define GRAPHPIM_HMC_ATOMIC_H_

#include <cstdint>
#include <string>

namespace graphpim::hmc {

enum class AtomicOp : std::uint8_t {
  // Arithmetic (8/16 byte single/dual signed add, with or without return).
  kDualAdd8 = 0,  // two independent 8-byte signed adds, no return
  kAdd16,         // single 16-byte signed add, no return
  kDualAdd8Ret,   // dual 8-byte signed add, returns original data
  kAdd16Ret,      // 16-byte signed add, returns original data

  // Bitwise (swap / bit-write, with or without return).
  kSwap16,        // write operand, return original
  kSwap16NoRet,   // write operand, no data return
  kBitWrite8,     // (mem & ~mask) | (data & mask), no return
  kBitWrite8Ret,  // bit write, returns original data

  // Boolean (16 byte, no return).
  kAnd16,
  kNand16,
  kOr16,
  kNor16,
  kXor16,

  // Comparison (with return / response flag).
  kCasEqual8,        // if (mem64 == cmp) mem64 = new; returns original
  kCasZero16,        // if (mem128 == 0) mem128 = operand; returns original
  kCasGreater16,     // if (operand > mem128, signed) mem128 = operand
  kCasLess16,        // if (operand < mem128, signed) mem128 = operand
  kCompareEqual16,   // response flag = (mem128 == operand); no write

  // ---- Extension ops (Section III-C), not part of the HMC 2.0 base 18 ----
  kFpAdd32,  // 32-bit IEEE-754 add on the low lane
  kFpAdd64,  // 64-bit IEEE-754 add on the low lane
  kFpSub64,  // 64-bit IEEE-754 subtract on the low lane

  kNumOps,
};

inline constexpr int kNumBaseOps = 18;  // HMC 2.0 specification count

enum class AtomicCategory : std::uint8_t {
  kArithmetic,
  kBitwise,
  kBoolean,
  kComparison,
  kFloatingPoint,  // extension
};

// A 16-byte memory operand viewed as two little-endian 64-bit lanes.
struct Value16 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Value16& a, const Value16& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// Outcome of functionally executing an atomic.
struct AtomicOutcome {
  Value16 new_value;  // value to write back (== old value if !wrote)
  Value16 returned;   // original data returned in the response (if any)
  bool flag = false;  // HMC response "atomic flag" (operation succeeded)
  bool wrote = false; // whether memory was modified
};

// Metadata describing an op.
struct AtomicOpInfo {
  const char* name;           // spec-style mnemonic
  AtomicCategory category;
  std::uint8_t operand_bytes; // data size the op touches (8 or 16)
  bool returns_data;          // response carries original data
  bool extension;             // Section III-C extension op
};

// Returns static metadata for `op`.
const AtomicOpInfo& GetOpInfo(AtomicOp op);

// Functionally executes `op` against memory value `mem` with packet
// immediate `operand`. Pure function; timing is handled by the vault model.
AtomicOutcome ExecuteAtomic(AtomicOp op, const Value16& mem, const Value16& operand);

// True if `op` requires a floating-point functional unit.
bool IsFpOp(AtomicOp op);

std::string ToString(AtomicOp op);

}  // namespace graphpim::hmc

#endif  // GRAPHPIM_HMC_ATOMIC_H_
