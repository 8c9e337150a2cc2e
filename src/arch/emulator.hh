/**
 * @file
 * Functional (architectural) emulator and dynamic-liveness oracle.
 *
 * The emulator executes a linked Executable instruction by
 * instruction and can hand each retired instruction to a timing model
 * as a TraceRecord (execute-first, trace-driven simulation — the same
 * structure as SimpleScalar's sim-outorder functional core).
 *
 * Alongside architectural state it maintains a *functional LVM*: the
 * liveness the paper's hardware would track, fed by destination
 * definitions, E-DVI kills, I-DVI call/return convention kills, and
 * the LVM-Stack merge at returns. This yields:
 *
 *  - the dead-read detector (a read of a register the LVM believes
 *    dead means the E-DVI in the binary is wrong — §7 "Errors in
 *    E-DVI should be considered compiler errors");
 *  - oracle counts of eliminable saves/restores (Fig. 9 is "a
 *    property of the program and the amount of available DVI ...
 *    independent of the processor configuration");
 *  - live-register histograms at arbitrary preemption points
 *    (Fig. 12).
 */

#ifndef DVI_ARCH_EMULATOR_HH
#define DVI_ARCH_EMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/memory.hh"
#include "arch/xlate.hh"
#include "base/fault.hh"
#include "base/reg_mask.hh"
#include "base/types.hh"
#include "compiler/executable.hh"
#include "core/lvm.hh"
#include "core/lvm_stack.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace arch
{

/** One retired instruction, as the timing model needs to see it. */
struct TraceRecord
{
    isa::Instruction inst;
    std::uint32_t pc = 0;       ///< instruction index
    std::uint32_t nextPc = 0;   ///< actual successor (branch outcome)
    Addr effAddr = 0;           ///< memory ops: effective address
    bool taken = false;         ///< conditional branches
};

/** Emulator configuration. */
struct EmulatorOptions
{
    bool trackLiveness = true;  ///< maintain the functional LVM
    bool honorEdvi = true;      ///< LVM consumes kill instructions
    bool honorIdvi = true;      ///< LVM consumes call/return I-DVI
    /** LVM-Stack depth for the oracle; 0 = unbounded. */
    unsigned lvmStackDepth = 0;
    /** Panic on a read of a dead register (E-DVI soundness check). */
    bool strictDeadReads = false;
    /**
     * Treat a misaligned data access as a program fault that halts
     * execution (faulted() reports it) instead of panicking. The
     * fuzz oracle sets this so broken candidate programs (e.g.
     * minimizer probes that removed part of an address computation)
     * are rejected gracefully rather than aborting the campaign.
     */
    bool faultOnMisaligned = false;

    /**
     * Execution tier for run() and stepBatch(). Xlate (the default)
     * executes translated basic blocks: the emulator decodes each
     * block it reaches once into pre-resolved micro-ops, keeps it
     * for its own lifetime, and dispatches through a threaded inner
     * loop, with architectural state, stats, traces, and the
     * functional LVM bit-identical to the interpreter (the fuzz
     * oracle's tier-lockstep layer and the golden-stats tests
     * enforce this). Interp forces the tier-0
     * decode-dispatch loop — the A/B reference. step() always
     * interprets regardless of tier.
     */
    ExecTier tier = ExecTier::Xlate;

    /**
     * Cooperative cancellation: when non-null, run() polls the token
     * every 4k instructions and unwinds with base::CancelledError
     * once it is requested. Not a scenario axis — never serialized,
     * never affects the stats of runs that complete.
     */
    const base::CancelToken *cancel = nullptr;
};

/** Dynamic instruction mix and DVI oracle counters. */
struct EmulatorStats
{
    std::uint64_t insts = 0;        ///< all retired (incl. kills)
    std::uint64_t progInsts = 0;    ///< excluding kill annotations
    std::uint64_t kills = 0;
    std::uint64_t aluOps = 0;
    std::uint64_t memRefs = 0;      ///< all loads + stores
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t fpOps = 0;
    std::uint64_t saves = 0;        ///< live-store instances
    std::uint64_t restores = 0;     ///< live-load instances
    /** Saves whose data register the LVM marks dead (eliminable). */
    std::uint64_t saveElimOracle = 0;
    /** Restores dead per the LVM-Stack snapshot (eliminable). */
    std::uint64_t restoreElimOracle = 0;
    std::uint64_t deadReads = 0;    ///< liveness violations seen
    /** pc and register of the first dead read (fuzz/oracle
     * diagnostics); valid when deadReads > 0. */
    std::uint32_t firstDeadReadPc = 0;
    RegIndex firstDeadReadReg = 0;
    std::uint64_t maxCallDepth = 0;
};

/** Architectural emulator. See file comment. */
class Emulator
{
  public:
    Emulator(const comp::Executable &exe,
             const EmulatorOptions &options = {});

    /**
     * Execute one instruction; fills *out when non-null. Returns
     * false (without executing) once halted.
     */
    bool step(TraceRecord *out = nullptr);

    /**
     * Batched trace delivery: execute up to max_records instructions,
     * writing one TraceRecord per instruction into out[]. Stops early
     * at halt, or — when max_prog_insts is non-zero — before the
     * instruction that would exceed that many non-kill (program)
     * records. Under ExecTier::Xlate it may also stop short at a
     * block edge, when the next whole basic block would not fit in
     * the remaining records (it returns at least one record unless
     * halted or gated). Returns the number of records written.
     *
     * The budget gate is applied before every single step, so the
     * record sequence (and the emulator's final architectural state)
     * is identical to calling step() one record at a time under the
     * same gate; the batch only amortizes the per-record call
     * overhead for the timing core's fetch stage.
     */
    std::size_t stepBatch(TraceRecord *out, std::size_t max_records,
                          std::uint64_t max_prog_insts = 0);

    /** Run up to maxInsts more instructions (0 = until halt). */
    std::uint64_t run(std::uint64_t max_insts = 0);

    bool halted() const { return halted_; }

    /** True once a misaligned access halted the run (only under
     * EmulatorOptions::faultOnMisaligned). */
    bool faulted() const { return faulted_; }
    /** pc of the faulting instruction; valid when faulted(). */
    std::uint32_t faultPc() const { return faultPc_; }

    /** @name Architectural state access @{ */
    std::int64_t intReg(RegIndex r) const { return intRegs[r]; }

    void
    setIntReg(RegIndex r, std::int64_t v)
    {
        if (r == isa::regZero)
            return;
        intRegs[r] = v;
        if (opts.trackLiveness)
            lvm_.define(r);
    }
    double fpReg(RegIndex r) const { return fpRegs[r]; }
    std::uint32_t pc() const { return pc_; }
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }
    /** @} */

    /** @name Liveness oracle @{ */
    const core::Lvm &lvm() const { return lvm_; }
    const core::LvmStack &lvmStack() const { return stack; }
    /** Live FP registers (defs set, I-DVI at calls clears
     * caller-saved FP). */
    const RegMask &fpLive() const { return fpLive_; }
    /** @} */

    /**
     * Counters so far. Returned by value: under ExecTier::Xlate a
     * complete block run only bumps its block's run count, and the
     * block's static delta times that count is summed in here.
     */
    EmulatorStats stats() const;
    const comp::Executable &executable() const { return exe; }

    /** Distinct block leaders translated so far; 0 until the first
     * run()/stepBatch() under ExecTier::Xlate. */
    std::size_t translatedBlocks() const;

    /**
     * Digest of the program-visible result: return-value registers
     * plus the global data region. Stack contents and return
     * addresses are excluded so images with and without E-DVI
     * compare equal (E-DVI shifts code addresses).
     */
    std::uint64_t resultHash() const;

  private:
    const isa::Instruction &fetch(std::uint32_t idx) const;

    void
    checkRead(RegIndex r)
    {
        if (!opts.trackLiveness || r == isa::regZero)
            return;
        checkReadSlow(r);
    }

    /** Out-of-line tail of checkRead: the LVM probe and dead-read
     * accounting, only reachable with liveness tracking on. */
    void checkReadSlow(RegIndex r);

    /** @name Tier-1 executor (emulator_xlate.cc) @{ */
    /** The block led by `pc` (inside the code image), translated on
     * first use. */
    XBlock &blockAt(std::uint32_t pc);
    /** Slow path of the block prologue's dead-read test, taken
     * only when a register in u.chkMask is dead: probes u's
     * registers in interpreter order (isa::deadCheckRegs). */
    void probeDeadReads(const MicroOp &u);
    /** Dead-read probe for block execution: pc_ is not advanced
     * per micro-op, so the faulting pc is passed explicitly. */
    void checkLiveAt(RegIndex r, std::uint32_t at_pc);
    /** Effective address + misaligned-fault latch for a micro-op. */
    Addr xlateAddr(const MicroOp &u);
    /** Execute one translated block; returns instructions retired
     * (== b.len unless a misaligned fault halted mid-block). When
     * Trace, writes one TraceRecord per retired instruction. Live
     * bakes opts.trackLiveness into the instantiation so the
     * no-LVM configuration (the timing core's) carries no liveness
     * branches in the dispatch loop. The LVM is held in a local
     * for the whole block and written back to lvm_ wherever the
     * block leaves or calls code that reads lvm_. */
    template <bool Trace, bool Live>
    std::uint32_t execBlock(XBlock &b, TraceRecord *out);
    std::uint64_t runXlate(std::uint64_t max_insts);
    std::size_t stepBatchXlate(TraceRecord *out,
                               std::size_t max_records,
                               std::uint64_t max_prog_insts);
    /** @} */

    /** Owned copy: the emulator must outlive any caller temporary
     * (code images are a few KB). */
    const comp::Executable exe;
    EmulatorOptions opts;

    std::array<std::int64_t, isa::numIntRegs> intRegs{};
    std::array<double, isa::numFpRegs> fpRegs{};
    std::uint32_t pc_;
    bool halted_ = false;
    bool faulted_ = false;
    std::uint32_t faultPc_ = 0;
    Memory mem;

    core::Lvm lvm_;
    core::LvmStack stack;
    RegMask fpLive_;
    std::uint64_t callDepth = 0;

    /** Tier-1 block index, one slot per pc; sized to the code on
     * the first translated run, null until that leader is reached. */
    std::vector<std::unique_ptr<XBlock>> blocks_;

    /** Interpreter steps, dynamic counters and the prefix of a
     * block cut short by a fault; stats() adds the block runs. */
    EmulatorStats stats_;
};

} // namespace arch
} // namespace dvi

#endif // DVI_ARCH_EMULATOR_HH
