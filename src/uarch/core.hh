/**
 * @file
 * Trace-driven out-of-order core with the paper's three DVI hooks.
 *
 * Pipeline: fetch (I-cache, combining branch predictor, BTB, RAS) →
 * decode/rename/dispatch (LVM update, save/restore squashing, R10000
 * renaming with DVI kills) → issue (unified window, functional
 * units, cache ports, load/store ordering with store-to-load
 * forwarding) → complete → in-order commit (physical register
 * reclamation, including DVI early reclamation; store writeback
 * through a cache port; predictor training).
 *
 * The instruction stream is the correct execution path produced by
 * the functional emulator; a mispredicted branch stalls fetch until
 * it resolves rather than fetching wrong-path instructions (see
 * DESIGN.md §2 for why this substitution preserves the penalty).
 *
 * Scheduling is event-driven (see DESIGN.md "Event-driven timing
 * core"): instead of scanning the whole window every cycle, the core
 * keeps a ready bitmap ordered by age, per-physical-register wakeup
 * lists that move instructions into it when their last operand's
 * producer completes, a calendar wheel of pending completions
 * keyed by doneCycle, and a last-store-to-address table for
 * forwarding. When
 * a cycle makes no progress the clock jumps straight to the next
 * completion or fetch-resume event, bulk-accounting the per-cycle
 * stall statistics. All of this is bookkeeping only: CoreStats is
 * cycle-for-cycle, bit-for-bit identical to the original scan-based
 * scheduler (enforced by tests/uarch_golden_test.cc).
 *
 * DVI hooks, mapped to the paper:
 *  - §4.1: a kill (explicit or implied by call/return) unmaps the
 *    architectural register at rename; the previous mapping is freed
 *    when the killing instruction commits (never speculatively).
 *  - §5.2 LVM scheme: a live-store whose data register is dead in
 *    the LVM is squashed at decode — it consumes fetch/decode
 *    bandwidth but no window entry, issue slot, cache port, or
 *    commit slot.
 *  - §5.2 LVM-Stack scheme: calls push LVM snapshots; a live-load
 *    dead in the top snapshot is squashed the same way; returns pop
 *    and merge the snapshot's callee-saved bits back into the LVM.
 */

#ifndef DVI_UARCH_CORE_HH
#define DVI_UARCH_CORE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/emulator.hh"
#include "base/ring_buffer.hh"
#include "base/small_vec.hh"
#include "core/lvm.hh"
#include "core/lvm_stack.hh"
#include "core/renamer.hh"
#include "mem/cache.hh"
#include "predictor/branch_predictor.hh"
#include "uarch/core_config.hh"
#include "uarch/core_stats.hh"

namespace dvi
{
namespace uarch
{

/** Trace-driven out-of-order core. */
class Core
{
  public:
    Core(const comp::Executable &exe, const CoreConfig &config);

    /** Run to completion (or configured limits); returns stats. */
    const CoreStats &run();

    const CoreStats &stats() const { return stats_; }
    const core::LvmStack &lvmStack() const { return lvmStack_; }
    const arch::Emulator &emulator() const { return emu; }

  private:
    enum class EntryState : std::uint8_t
    {
        Waiting,
        Issued,
        Done,
    };

    /** One unified-window (RUU) entry. Entries occupy a stable
     * physical slot in the window ring for their whole lifetime, so
     * the scheduler's side structures (ready bitmap, wakeup lists,
     * completion heap) address them by slot. */
    struct WindowEntry
    {
        arch::TraceRecord tr;
        InstSeqNum seq = 0;
        EntryState state = EntryState::Waiting;
        Cycle doneCycle = 0;

        bool hasDest = false;
        PhysRegIndex destPreg = invalidPhysReg;
        PhysRegIndex prevPreg = invalidPhysReg;
        /** Mappings this entry's committed DVI kill releases: count
         * of this entry's slice of killFreeQueue_ (entries commit in
         * order, so the queue pops in dispatch order). */
        std::uint8_t killFreeCount = 0;

        unsigned numSrcs = 0;
        PhysRegIndex srcPregs[2] = {invalidPhysReg, invalidPhysReg};
        /** FP dependencies: sequence numbers of the producing
         * writers (0 = no in-flight producer). FP registers are not
         * renamed (the paper's experiments target the integer file),
         * so readiness must track the *writer*, not the register —
         * an instruction like fmul f6,f5,f6 must not wait on its own
         * pending write. */
        unsigned numFpSrcs = 0;
        InstSeqNum fpSrcSeqs[2] = {0, 0};
        bool hasFpDest = false;
        RegIndex fpDest = 0;

        /** Window slots of consumers waiting on this entry's FP
         * write; woken when it completes. */
        SmallVec<std::uint32_t, 4> fpDeps;

        /** Pending source operands; ready to issue at zero. */
        std::uint8_t waitCount = 0;

        /** Next-older in-window store in the same forwarding-table
         * bucket; noSlot at the chain tail. */
        std::uint32_t prevSameBucket = noSlot;

        bool isLoad = false;
        bool isStore = false;
        bool noExec = false;       ///< kill: completes at dispatch
        bool mispredicted = false; ///< resolution unblocks fetch

        /** Reinitialize a recycled ring slot for a new instruction
         * (see RingBuffer::push_uninitialized). */
        void
        reset(const arch::TraceRecord &rec, InstSeqNum s)
        {
            tr = rec;
            seq = s;
            state = EntryState::Waiting;
            doneCycle = 0;
            hasDest = false;
            destPreg = invalidPhysReg;
            prevPreg = invalidPhysReg;
            killFreeCount = 0;
            numSrcs = 0;
            numFpSrcs = 0;
            hasFpDest = false;
            fpDest = 0;
            fpDeps.clear();
            waitCount = 0;
            prevSameBucket = noSlot;
            isLoad = false;
            isStore = false;
            noExec = false;
            mispredicted = false;
        }
    };

    /** Sentinel window-slot index. */
    static constexpr std::uint32_t noSlot = ~0u;

    /** A fetched instruction waiting for decode. */
    struct FetchedInst
    {
        arch::TraceRecord tr;
        bool mispredicted = false;
    };

    void doCommit();
    void doComplete();
    void doIssue();
    void doDispatch();
    void doFetch();

    bool nextTraceRecord();

    /**
     * Debug-build invariant hook (§7 of the paper): a dispatched
     * (hence committed — the trace is the correct path) instruction
     * must never read an architectural register that DVI killed: its
     * renamer mapping may be gone (early reclamation) and its LVM
     * bit clear. The one legal dead read is a live-store's data
     * register — saving a dead value is exactly what the hardware
     * squashes, and is harmless when executed with elimSaves off.
     * Catches incorrect E-DVI (and fuzz-injected kill-mask faults)
     * at the first consuming instruction.
     */
    void checkDispatchReads(const isa::Instruction &inst,
                            const WindowEntry &e,
                            const RegIndex srcs[2],
                            std::uint32_t pc) const;

    void dispatchKill(const arch::TraceRecord &tr);
    RegMask effectiveKillMask(const isa::Instruction &inst) const;
    void applyKillToRenamer(RegMask mask, WindowEntry &entry);

    /** Compute waitCount for a just-dispatched entry, registering it
     * on producer wakeup lists; marks it ready when zero. */
    void initReadiness(WindowEntry &e, std::uint32_t slot);

    /** Decrement each listed consumer's waitCount; ready at zero.
     * Clears the list. */
    void wakeConsumers(SmallVec<std::uint32_t, 4> &consumers);

    /** Advance the clock over provably idle cycles to the next
     * completion / fetch-resume event, bulk-adding the per-cycle
     * stall statistics the scan-based loop would have counted. */
    void skipDeadCycles();

    /** @name Age-ordered slot bitmaps @{ */
    void setBit(std::vector<std::uint64_t> &bits, std::size_t slot)
    {
        bits[slot >> 6] |= 1ull << (slot & 63);
    }
    void clearBit(std::vector<std::uint64_t> &bits, std::size_t slot)
    {
        bits[slot >> 6] &= ~(1ull << (slot & 63));
    }
    template <typename F>
    void forEachSetSlot(const std::vector<std::uint64_t> &bits,
                        F &&f) const;
    /** @} */

    CoreConfig cfg;
    CoreStats stats_;

    arch::Emulator emu;

    /** Consumer cursor into traceBuf_ (batched trace delivery). */
    std::uint32_t tracePos_ = 0;
    std::uint32_t traceLen_ = 0;

    core::Renamer renamer;
    core::Lvm lvm;
    core::LvmStack lvmStack_;
    std::vector<Cycle> pregReadyAt;
    /** Last dispatched writer of each architectural FP register. */
    std::vector<InstSeqNum> fpWriterSeq;

    /** Wakeup lists: window slots of consumers waiting on each
     * physical register's pending write. */
    std::vector<SmallVec<std::uint32_t, 4>> wakeup_;

    mem::MemoryHierarchy memsys;
    predictor::BranchPredictor bpred;
    predictor::Btb btb;
    predictor::ReturnAddressStack ras;

    RingBuffer<FetchedInst> fetchQueue;
    RingBuffer<WindowEntry> window;

    /** Waiting entries whose operands are all ready, by slot. */
    std::vector<std::uint64_t> readyBits_;
    /** Stores still in EntryState::Waiting, by slot (ordering gate
     * for loads). */
    std::vector<std::uint64_t> waitingStoreBits_;

    /**
     * Pending completions as a calendar wheel: bucket (c & mask)
     * holds the slots whose doneCycle is c. Sized past the largest
     * possible execution latency, so a bucket never aliases two
     * cycles and doComplete drains exactly bucket[now & mask].
     */
    std::vector<SmallVec<std::uint32_t, 6>> wheel_;
    Cycle wheelMask_ = 0;
    std::size_t pendingCompletions_ = 0;

    /** Earliest cycle >= now holding a pending completion;
     * infiniteCycle when none. O(wheel) scan, used only when the
     * clock is about to skip. */
    Cycle nextCompletionCycle() const;

    /**
     * Store-to-load forwarding table: a direct-mapped bucket array
     * over effective addresses whose chains thread through the
     * window slots (prevSameBucket, youngest first). Bounded by the
     * window — no allocation, rehash, or erase on the hot path;
     * maintained at dispatch and commit instead of scanned per
     * issue. Chains hold only in-window stores, so a load probe
     * walks at most the stores sharing its bucket.
     */
    std::vector<std::uint32_t> storeBuckets_;
    Addr storeBucketMask_ = 0;

    std::size_t
    storeBucketOf(Addr addr) const
    {
        // Simulated data is 8-byte granular; fold some upper bits
        // so stack frames and globals spread across buckets.
        return static_cast<std::size_t>(((addr >> 3) ^ (addr >> 11)) &
                                        storeBucketMask_);
    }

    /** Physical registers held by in-flight instructions (pending
     * prevPreg frees plus pending kill frees), maintained
     * incrementally for Renamer::checkConservation. */
    std::size_t heldCount_ = 0;

    /** Pending DVI kill frees, dispatch-ordered; each window entry
     * owns the next killFreeCount of them at commit. Bounded by the
     * physical register file (a register is held at most once). */
    RingBuffer<PhysRegIndex> killFreeQueue_;

    Cycle now = 0;
    InstSeqNum nextSeq = 1;

    /** Next committedProgInsts threshold that fires
     * cfg.sampleHook; ~0 (never reached) when sampling is off, so
     * the run loop pays one compare per cycle either way. */
    std::uint64_t nextSampleAt_ = ~0ull;

    bool fetchBlocked = false;       ///< mispredict: wait for resolve
    Cycle fetchAvailCycle = 0;       ///< I-cache miss / redirect
    Addr lastFetchLine = ~0ull;

    /** log2(il1 line bytes) when it is a power of two (the fetch
     * locality check without a division per instruction); 0 falls
     * back to division. A 1-byte "line" (shift 0) also divides,
     * which is equivalent. */
    unsigned il1LineShift_ = 0;

    /** Any set ready bit (cheap word-OR early-out for doIssue). */
    bool
    readyAny() const
    {
        std::uint64_t any = 0;
        for (std::uint64_t w : readyBits_)
            any |= w;
        return any != 0;
    }

    unsigned portsUsedThisCycle = 0;
    Cycle lastCommitCycle = 0;

    /** @name Per-cycle progress tracking for dead-cycle skipping @{ */
    bool cycleProgress_ = false;
    bool dispStallWindow_ = false;
    bool dispStallRename_ = false;
    /** @} */

    /** Batched trace delivery from the emulator (replaces one
     * step() call per record). Last member: 10 KB that should not
     * split the hot scheduler state across cache lines. */
    std::array<arch::TraceRecord, 256> traceBuf_;
};

} // namespace uarch
} // namespace dvi

#endif // DVI_UARCH_CORE_HH
