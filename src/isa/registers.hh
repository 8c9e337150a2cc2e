/**
 * @file
 * Architectural register definitions and the ABI calling convention.
 *
 * The ISA is a MIPS-flavored RISC machine: 32 integer registers and 32
 * floating-point registers. The calling convention partitions the
 * integer registers into caller-saved and callee-saved sets exactly as
 * the paper assumes (§5): compilers put call-free temporaries in
 * caller-saved registers and values that live across calls in
 * callee-saved registers.
 *
 * The I-DVI mask (§2, §7 "Hardware and ABI interactions") is the
 * ABI-supplied register subset whose values are dead at every procedure
 * entry and exit. It covers the caller-saved *temporaries* only:
 * argument registers carry live values into calls and the return-value
 * registers carry live values out of them, so they are excluded.
 */

#ifndef DVI_ISA_REGISTERS_HH
#define DVI_ISA_REGISTERS_HH

#include <cstdint>
#include <string>

#include "base/reg_mask.hh"
#include "base/types.hh"

namespace dvi
{
namespace isa
{

/** Number of architectural integer registers. */
constexpr unsigned numIntRegs = 32;

/** Number of architectural floating-point registers. */
constexpr unsigned numFpRegs = 32;

/** @name Special-purpose integer registers @{ */
constexpr RegIndex regZero = 0;  ///< hard-wired zero
constexpr RegIndex regAt = 1;    ///< assembler temporary (caller-saved)
constexpr RegIndex regV0 = 2;    ///< return value 0
constexpr RegIndex regV1 = 3;    ///< return value 1
constexpr RegIndex regA0 = 4;    ///< first argument register
constexpr RegIndex regA3 = 7;    ///< last argument register
constexpr RegIndex regK0 = 26;   ///< reserved for kernel
constexpr RegIndex regK1 = 27;   ///< reserved for kernel
constexpr RegIndex regGp = 28;   ///< global pointer
constexpr RegIndex regSp = 29;   ///< stack pointer
constexpr RegIndex regFp = 30;   ///< frame pointer (callee-saved)
constexpr RegIndex regRa = 31;   ///< return address
/** @} */

/** @name Allocatable register ranges @{ */
constexpr RegIndex regT0 = 8;    ///< first temporary (t0–t7: r8–r15)
constexpr RegIndex regT7 = 15;
constexpr RegIndex regS0 = 16;   ///< first callee-saved (s0–s7: r16–r23)
constexpr RegIndex regS7 = 23;
constexpr RegIndex regT8 = 24;   ///< extra temporaries t8–t9
constexpr RegIndex regT9 = 25;
/** @} */

/*
 * The ABI masks below are compile-time constants: the functional
 * emulator applies several of them on every call and return, and
 * the compiler, the timing core and the scheduler read them on
 * their own paths, so none of them is rebuilt at run time.
 */

namespace detail
{

/** Raw bits of registers lo..hi inclusive. */
constexpr std::uint64_t
regSpan(RegIndex lo, RegIndex hi)
{
    return ((std::uint64_t(2) << (hi - lo)) - 1) << lo;
}

/** Raw bit of one register. */
constexpr std::uint64_t
regBit(RegIndex r)
{
    return std::uint64_t(1) << r;
}

} // namespace detail

/** Callee-saved integer registers: s0–s7 (r16–r23) and fp (r30). */
constexpr RegMask
calleeSavedMask()
{
    return RegMask(detail::regSpan(regS0, regS7) |
                   detail::regBit(regFp));
}

/** Argument-passing registers a0–a3. */
constexpr RegMask
argMask()
{
    return RegMask(detail::regSpan(regA0, regA3));
}

/** Return-value registers v0–v1. */
constexpr RegMask
returnValueMask()
{
    return RegMask(detail::regSpan(regV0, regV1));
}

/**
 * Caller-saved temporaries the compiler may allocate (t0–t7, t8–t9).
 */
constexpr RegMask
allocatableCallerSaved()
{
    return RegMask(detail::regSpan(regT0, regT7) |
                   detail::regSpan(regT8, regT9));
}

/**
 * Callee-saved registers the compiler may allocate (s0–s7). The frame
 * pointer is reserved.
 */
constexpr RegMask
allocatableCalleeSaved()
{
    return RegMask(detail::regSpan(regS0, regS7));
}

/**
 * The ABI's I-DVI mask: caller-saved temporaries that are dead at
 * every procedure entry and exit (at, t0–t7, t8–t9). See file
 * comment for why argument/return registers are excluded from this
 * common subset.
 */
constexpr RegMask
idviMask()
{
    return RegMask(detail::regBit(regAt) |
                   allocatableCallerSaved().raw());
}

/**
 * I-DVI at a dynamic call (procedure *entry*): the temporaries plus
 * the return-value registers — v0/v1 carry nothing *into* a callee
 * (§2: caller-saved values are "dead at the entry ... points of any
 * procedure"). Argument registers are live at entry and excluded.
 */
constexpr RegMask
idviCallMask()
{
    return RegMask(idviMask().raw() | returnValueMask().raw());
}

/**
 * I-DVI at a dynamic return (procedure *exit*): the temporaries plus
 * the argument registers — a0–a3 carry nothing *out* of a callee.
 * Return-value registers are live at exit and excluded.
 */
constexpr RegMask
idviReturnMask()
{
    return RegMask(idviMask().raw() | argMask().raw());
}

/**
 * All caller-saved integer registers: at, v0–v1, a0–a3, t0–t7, t8–t9,
 * and ra.
 */
constexpr RegMask
callerSavedMask()
{
    return RegMask(idviMask().raw() | returnValueMask().raw() |
                   argMask().raw() | detail::regBit(regRa));
}

/**
 * Integer registers a context switch must preserve in the baseline
 * (everything except the hard-wired zero and the kernel temporaries).
 */
constexpr RegMask
contextSwitchSavedMask()
{
    return RegMask(detail::regSpan(regZero, regRa) &
                   ~(detail::regBit(regZero) | detail::regBit(regK0) |
                     detail::regBit(regK1)));
}

/**
 * Registers holding defined values at process entry, per the ABI:
 * the stack pointer, global pointer, return address (to the exit
 * stub), argument registers, and the hard-wired zero. Everything
 * else contains garbage the program must not read, so the LVM can
 * start with only these bits live.
 */
constexpr RegMask
abiEntryLiveMask()
{
    return RegMask(argMask().raw() | detail::regBit(regZero) |
                   detail::regBit(regSp) | detail::regBit(regGp) |
                   detail::regBit(regRa));
}

/** Caller-saved FP registers (f0–f19): dead across calls in the
 * FP I-DVI convention. */
constexpr RegMask
fpCallerSavedMask()
{
    return RegMask(detail::regSpan(0, 19));
}

/** Callee-saved FP registers (f20–f31). */
constexpr RegMask
fpCalleeSavedMask()
{
    return RegMask(detail::regSpan(20, numFpRegs - 1));
}

/** True if r is callee-saved under the ABI. */
inline bool
isCalleeSaved(RegIndex r)
{
    return calleeSavedMask().test(r);
}

/** True if r is caller-saved under the ABI. */
inline bool
isCallerSaved(RegIndex r)
{
    return callerSavedMask().test(r);
}

/** ABI mnemonic for an integer register, e.g. "t0", "s3", "sp". */
std::string intRegName(RegIndex r);

/** Name for an FP register: "f7". */
std::string fpRegName(RegIndex r);

} // namespace isa
} // namespace dvi

#endif // DVI_ISA_REGISTERS_HH
