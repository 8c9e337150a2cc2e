/**
 * @file
 * Basic-block translation tier for the functional emulator.
 *
 * Tier 0 (arch/emulator.cc) decodes every dynamic instruction from
 * the Executable's code vector. This module implements tier 1: each
 * basic block is decoded once into a flat array of MicroOps —
 * operands, effective-address recipes, E-DVI kill masks, and the
 * dead-read probe list pre-baked — plus a precomputed static stats
 * delta, and the emulator then executes the decoded blocks with a
 * threaded-dispatch inner loop (emulator_xlate.cc).
 *
 * Each Emulator owns its block index: a pc -> XBlock table filled
 * the first time a leader is reached and freed with the emulator.
 * Nothing is shared between emulators, so nothing here is locked.
 */

#ifndef DVI_ARCH_XLATE_HH
#define DVI_ARCH_XLATE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/instruction.hh"

namespace dvi
{
namespace arch
{

/** Which execution path run()/stepBatch() take. step() is always
 * the tier-0 interpreter — it is the reference the lockstep tests
 * diff tier 1 against. */
enum class ExecTier : std::uint8_t
{
    Interp = 0,  ///< decode-dispatch interpreter (tier 0)
    Xlate = 1,   ///< basic-block translation (tier 1)
};

/**
 * One pre-decoded instruction. 16 bytes, flat in the block's uop
 * array: the inner loop touches exactly one cache line per four
 * micro-ops and never re-derives operands, srcIdx recipes, or the
 * dead-read probe set.
 */
struct MicroOp
{
    isa::Opcode op = isa::Opcode::Nop;
    RegIndex rd = 0;
    RegIndex rs1 = 0;
    RegIndex rs2 = 0;
    /** ALU immediate / displacement / branch target / kill mask —
     * same overloading as Instruction::imm. */
    std::int32_t imm = 0;
    /** Source instruction index (the architectural pc). */
    std::uint32_t pc = 0;
    /** Integer registers the dead-read probe reads
     * (isa::deadCheckRegs; r0 excluded), one bit each. The inner
     * loop tests them against the LVM in one AND; only when one is
     * dead does it re-derive the ordered probe list, so the
     * first-dead-read diagnostics keep the interpreter's order. */
    std::uint32_t chkMask = 0;
};
static_assert(sizeof(MicroOp) == 16, "MicroOp packs to 16 bytes");

/**
 * Per-block instruction-mix delta: every EmulatorStats counter that
 * depends only on the static opcode sequence. A complete block run
 * bumps only its block's run count (XBlock::runs), and
 * Emulator::stats() adds runs x delta when it is read, so a run
 * writes one counter instead of thirteen. Dynamic counters
 * (takenBranches, the save/restore elimination oracles, dead reads,
 * maxCallDepth) stay per-uop.
 */
struct BlockStats
{
    std::uint32_t insts = 0;
    std::uint32_t progInsts = 0;
    std::uint32_t kills = 0;
    std::uint32_t aluOps = 0;
    std::uint32_t memRefs = 0;
    std::uint32_t loads = 0;
    std::uint32_t stores = 0;
    std::uint32_t fpOps = 0;
    std::uint32_t saves = 0;
    std::uint32_t restores = 0;
    std::uint32_t condBranches = 0;
    std::uint32_t calls = 0;
    std::uint32_t returns = 0;
};

/** One translated basic block: [entryPc, entryPc + len) decoded. */
struct XBlock
{
    std::uint32_t entryPc = 0;
    std::uint32_t len = 0;
    BlockStats stat;
    /** Complete runs of this block; a run cut short by a fault adds
     * its executed prefix to the emulator's own counters instead. */
    std::uint64_t runs = 0;
    std::vector<MicroOp> uops;
};

/** Translation stops after this many micro-ops even without a
 * terminator; the successor block picks up at the fall-through pc.
 * Bounds the worst case of the budget-tail logic in stepBatch. */
constexpr std::uint32_t maxBlockLen = 64;

/**
 * Decode one block starting at `pc`: micro-ops through the first
 * control transfer or halt (inclusive), capped at maxBlockLen or the
 * end of the code image. Blocks may overlap — a branch into the
 * middle of an already-translated block simply starts a new block
 * there; code is immutable so both decodings agree.
 */
XBlock translateBlock(const std::vector<isa::Instruction> &code,
                      std::uint32_t pc);

/** Static stats of the first `n` micro-ops of `b` — the mid-block
 * fault path re-classifies the executed prefix with this. */
BlockStats blockPrefixStats(const XBlock &b, std::uint32_t n);

} // namespace arch
} // namespace dvi

#endif // DVI_ARCH_XLATE_HH
