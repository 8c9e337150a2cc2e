#include "uarch/core.hh"

#include <algorithm>
#include <cstdio>

#include "base/bits.hh"
#include "base/fault.hh"
#include "base/logging.hh"
#include "isa/registers.hh"

namespace dvi
{
namespace uarch
{

using isa::FuClass;
using isa::Instruction;
using isa::Opcode;

namespace
{

constexpr Cycle infiniteCycle = ~0ull;

/** Debug-build DVI invariant hooks (dead-read / unmapped-source
 * checks at dispatch); compiled out of Release so the hot path and
 * the golden-stats contract are untouched. */
#ifndef NDEBUG
constexpr bool debugDviInvariants = true;
#else
constexpr bool debugDviInvariants = false;
#endif

/** Cycles without a commit before the deadlock valve trips. */
constexpr Cycle deadlockHorizon = 100000;

Addr
pcBytes(std::uint32_t pc)
{
    return static_cast<Addr>(pc) * Instruction::sizeBytes;
}

} // namespace

Core::Core(const comp::Executable &exe, const CoreConfig &config)
    : exe(exe), cfg(config),
      emu(exe,
          arch::EmulatorOptions{/*trackLiveness=*/false, true, true, 0,
                                false, false, config.emuTier}),
      renamer(cfg.numPhysRegs), lvm(isa::abiEntryLiveMask()),
      lvmStack_(cfg.dvi.lvmStackDepth),
      pregReadyAt(cfg.numPhysRegs, 0),
      fpWriterSeq(isa::numFpRegs, 0), wakeup_(cfg.numPhysRegs),
      memsys(cfg.il1, cfg.dl1, cfg.l2, cfg.memLatency),
      bpred(cfg.bp), btb(cfg.bp.btbEntries), ras(cfg.bp.rasEntries),
      fetchQueue(cfg.fetchQueueSize), window(cfg.windowSize),
      killFreeQueue_(cfg.numPhysRegs)
{
    const std::size_t words = (window.capacity() + 63) / 64;
    readyBits_.assign(words, 0);
    waitingStoreBits_.assign(words, 0);

    if (cfg.sampleEveryInsts && cfg.sampleHook)
        nextSampleAt_ = cfg.sampleEveryInsts;

    // The completion wheel must span the largest possible execution
    // latency so bucket (cycle & mask) never aliases two pending
    // cycles: memory latency dominates, with margin for the
    // longest functional-unit latency.
    const unsigned max_lat =
        std::max({cfg.memLatency, cfg.l2.hitLatency,
                  cfg.dl1.hitLatency, 16u}) +
        2;
    std::size_t wheel = 1;
    while (wheel < max_lat)
        wheel <<= 1;
    wheel_.resize(wheel);
    wheelMask_ = wheel - 1;

    const std::size_t buckets = window.capacity() * 4;
    storeBuckets_.assign(buckets, noSlot);
    storeBucketMask_ = buckets - 1;

    fatal_if(cfg.il1.lineBytes == 0, "zero I-cache line size");
    if ((cfg.il1.lineBytes & (cfg.il1.lineBytes - 1)) == 0)
        il1LineShift_ = countrZero64(cfg.il1.lineBytes);
}

template <typename F>
void
Core::forEachSetSlot(const std::vector<std::uint64_t> &bits,
                     F &&f) const
{
    // Visit set slots in age (seq) order: physical slots [head, cap)
    // then [0, head), since the window ring assigns slots in age
    // order modulo its capacity.
    const std::size_t cap = window.capacity();
    const std::size_t head = window.headPhys();
    if (bits.size() == 1) {
        // One-word window (the common configuration): rotating by
        // the head slot puts the bits in age order directly. Valid
        // because cap divides 64, so slot arithmetic and the
        // rotation wrap consistently.
        std::uint64_t rot = rotateRight64(
            bits[0], static_cast<unsigned>(head) & 63);
        while (rot) {
            const unsigned k = countrZero64(rot);
            rot &= rot - 1;
            if (!f((head + k) & (cap - 1)))
                return;
        }
        return;
    }
    const auto scanRange = [&](std::size_t lo,
                               std::size_t hi) -> bool {
        for (std::size_t w = lo >> 6; (w << 6) < hi; ++w) {
            std::uint64_t word = bits[w];
            if ((w << 6) < lo)
                word &= ~0ull << (lo - (w << 6));
            if (hi - (w << 6) < 64)
                word &= (1ull << (hi - (w << 6))) - 1;
            while (word) {
                const unsigned b = countrZero64(word);
                word &= word - 1;
                if (!f((w << 6) + b))
                    return false;
            }
        }
        return true;
    };
    if (head == 0) {
        scanRange(0, cap);
        return;
    }
    if (scanRange(head, cap))
        scanRange(0, head);
}

RegMask
Core::effectiveKillMask(const Instruction &inst) const
{
    if (inst.isKill() && cfg.dvi.useEdvi)
        return inst.killMask();
    if (inst.isCall() && cfg.dvi.useIdvi)
        return isa::idviCallMask();
    if (inst.isReturn() && cfg.dvi.useIdvi)
        return isa::idviReturnMask();
    return RegMask{};
}

void
Core::applyKillToRenamer(RegMask mask, WindowEntry &entry)
{
    if (!cfg.dvi.earlyReclaim)
        return;
    mask.forEach([&](RegIndex r) {
        PhysRegIndex prev = renamer.killMapping(r);
        if (prev != invalidPhysReg) {
            killFreeQueue_.push_back(prev);
            ++entry.killFreeCount;
        }
    });
}

void
Core::checkDispatchReads(const Instruction &inst,
                         const WindowEntry &e,
                         const RegIndex srcs[2],
                         std::uint32_t pc) const
{
    RegMask lvm_reads;
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const RegIndex r = srcs[i];
        if (r == isa::regZero)
            continue;
        // The data register of an executing save is the one read of
        // a possibly-dead value the paper sanctions (§5.1).
        if (inst.isSave() && i == 1)
            continue;
        panic_if(e.srcPregs[i] == invalidPhysReg,
                 "DVI invariant violated: ", inst.toString(),
                 " at pc ", pc, " reads ", isa::intRegName(r),
                 ", whose mapping a committed kill reclaimed "
                 "(incorrect E-DVI)");
        lvm_reads.set(r);
    }
    // The LVM is only maintained when some DVI source feeds it.
    // Cheap emptiness probe first: the disassembly for the panic
    // context is formatted only on an actual violation.
    if ((cfg.dvi.useEdvi || cfg.dvi.useIdvi) &&
        !lvm_reads.minus(lvm.mask()).empty())
        lvm.assertLive(lvm_reads, inst.toString().c_str());
}

bool
Core::nextTraceRecord()
{
    if (tracePos_ < traceLen_)
        return true;
    if (cfg.maxInsts &&
        stats_.fetchedInsts - stats_.fetchedKills >= cfg.maxInsts)
        return false;
    // The batch is gated on the same fetched-program-instruction
    // budget the one-at-a-time pull used, so the delivered record
    // sequence — and the emulator's end state — are unchanged.
    const std::uint64_t remaining =
        cfg.maxInsts ? cfg.maxInsts - (stats_.fetchedInsts -
                                       stats_.fetchedKills)
                     : 0;
    traceLen_ = static_cast<std::uint32_t>(emu.stepBatch(
        traceBuf_.data(), traceBuf_.size(), remaining));
    tracePos_ = 0;
    return traceLen_ > 0;
}

void
Core::doFetch()
{
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth &&
           fetchQueue.size() < cfg.fetchQueueSize) {
        if (!nextTraceRecord())
            break;
        const arch::TraceRecord &pending = traceBuf_[tracePos_];

        // Model the I-cache at line granularity.
        const Addr pcb = pcBytes(pending.pc);
        const Addr line = il1LineShift_
                              ? pcb >> il1LineShift_
                              : pcb / cfg.il1.lineBytes;
        if (line != lastFetchLine) {
            const unsigned lat = memsys.instAccess(pcb);
            lastFetchLine = line;
            cycleProgress_ = true; // cache state advanced
            if (lat > cfg.il1.hitLatency) {
                // Line arrives later; resume fetch then.
                fetchAvailCycle = now + lat;
                break;
            }
        }

        FetchedInst &fi = fetchQueue.push_uninitialized();
        fi.tr = pending;
        fi.mispredicted = false;
        ++tracePos_;
        const Instruction &inst = fi.tr.inst;
        ++stats_.fetchedInsts;
        if (inst.isKill())
            ++stats_.fetchedKills;

        bool stop_group = false;
        if (inst.isCondBranch()) {
            ++stats_.condBranches;
            const bool pred = bpred.predict(pcb);
            const bool actual = fi.tr.taken;
            if (pred) {
                Addr tgt = 0;
                if (!btb.lookup(pcb, &tgt)) {
                    // Direction says taken but no target: one-cycle
                    // bubble while decode computes it.
                    fetchAvailCycle = now + 2;
                    ++stats_.btbMissBubbles;
                }
            }
            if (actual)
                btb.insert(pcb, pcBytes(fi.tr.nextPc));
            if (pred != actual) {
                fi.mispredicted = true;
                fetchBlocked = true;
                ++stats_.branchMispredicts;
            }
            stop_group = pred || actual || fi.mispredicted;
        } else if (inst.isCall()) {
            ras.push(pcBytes(fi.tr.pc + 1));
            stop_group = true;
        } else if (inst.isReturn()) {
            const Addr pred_tgt = ras.pop();
            if (pred_tgt != pcBytes(fi.tr.nextPc)) {
                fi.mispredicted = true;
                fetchBlocked = true;
                ++stats_.rasMispredicts;
            }
            stop_group = true;
        } else if (inst.op == Opcode::Jump) {
            stop_group = true;
        }

        ++fetched;
        if (stop_group)
            break;
    }
    if (fetched)
        cycleProgress_ = true;
}

void
Core::dispatchKill(const arch::TraceRecord &tr)
{
    WindowEntry &e = window.push_uninitialized();
    e.reset(tr, nextSeq++);
    e.noExec = true;
    e.state = EntryState::Done;
    e.doneCycle = now;
    lvm.kill(tr.inst.killMask());
    applyKillToRenamer(tr.inst.killMask(), e);
    heldCount_ += e.killFreeCount;
}

void
Core::initReadiness(WindowEntry &e, std::uint32_t slot)
{
    for (unsigned i = 0; i < e.numSrcs; ++i) {
        const PhysRegIndex p = e.srcPregs[i];
        if (p != invalidPhysReg &&
            pregReadyAt[static_cast<std::size_t>(p)] > now) {
            wakeup_[static_cast<std::size_t>(p)].push_back(slot);
            ++e.waitCount;
        }
    }
    for (unsigned i = 0; i < e.numFpSrcs; ++i) {
        const InstSeqNum producer = e.fpSrcSeqs[i];
        if (producer == 0)
            continue;
        // A producer no longer in the window has committed. Window
        // entries hold consecutive sequence numbers, so the producer
        // (always older than e, which is already in the window)
        // lives at a direct logical offset.
        const InstSeqNum head_seq = window.front().seq;
        if (producer < head_seq)
            continue;
        WindowEntry &prod = window[producer - head_seq];
        if (prod.state != EntryState::Done) {
            prod.fpDeps.push_back(slot);
            ++e.waitCount;
        }
    }
    if (e.waitCount == 0 && !e.noExec)
        setBit(readyBits_, slot);
}

void
Core::doDispatch()
{
    unsigned dispatched = 0;
    bool counted_window_stall = false;
    bool counted_rename_stall = false;

    while (dispatched < cfg.decodeWidth && !fetchQueue.empty()) {
        FetchedInst &fi = fetchQueue.front();
        const Instruction &inst = fi.tr.inst;

        // --- E-DVI kill annotations.
        if (inst.isKill()) {
            if (cfg.dvi.useEdvi) {
                if (window.size() >= cfg.windowSize) {
                    if (!counted_window_stall) {
                        ++stats_.windowFullCycles;
                        counted_window_stall = true;
                    }
                    break;
                }
                dispatchKill(fi.tr);
            }
            ++stats_.decodedInsts;
            fetchQueue.pop_front();
            ++dispatched;
            continue;
        }

        // --- Dead save: squash at decode (LVM scheme, §5.2).
        if (inst.isSave() && cfg.dvi.elimSaves &&
            !lvm.isLive(inst.saveRestoreReg())) {
            ++stats_.savesSeen;
            ++stats_.savesEliminated;
            ++stats_.committedProgInsts;
            ++stats_.decodedInsts;
            fetchQueue.pop_front();
            ++dispatched;
            continue;
        }

        // --- Dead restore: squash using the LVM-Stack snapshot.
        if (inst.isRestore() && cfg.dvi.elimRestores &&
            !lvmStack_.top().test(inst.saveRestoreReg())) {
            ++stats_.restoresSeen;
            ++stats_.restoresEliminated;
            ++stats_.committedProgInsts;
            ++stats_.decodedInsts;
            fetchQueue.pop_front();
            ++dispatched;
            continue;
        }

        // --- Normal dispatch path.
        if (window.size() >= cfg.windowSize) {
            if (!counted_window_stall) {
                ++stats_.windowFullCycles;
                counted_window_stall = true;
            }
            break;
        }
        if (inst.writesIntReg() && !renamer.hasFree()) {
            if (!counted_rename_stall) {
                ++stats_.renameStallCycles;
                counted_rename_stall = true;
            }
            break;
        }

        const std::uint32_t slot = static_cast<std::uint32_t>(
            window.physIndex(window.size()));
        WindowEntry &e = window.push_uninitialized();
        e.reset(fi.tr, nextSeq++);
        e.mispredicted = fi.mispredicted;
        e.isLoad = inst.isLoad();
        e.isStore = inst.isStore();
        e.noExec = inst.fuClass() == FuClass::None;

        if (inst.isSave())
            ++stats_.savesSeen;
        if (inst.isRestore())
            ++stats_.restoresSeen;

        // Rename integer sources. An unmapped (killed) source reads
        // an arbitrary value — legal only for dead data (§7
        // "Meaning of precise program state"); it is always ready.
        RegIndex srcs[2];
        e.numSrcs = inst.srcIntRegs(srcs);
        for (unsigned i = 0; i < e.numSrcs; ++i)
            e.srcPregs[i] = renamer.lookup(srcs[i]);
        // Before this instruction's own call/return/kill effects
        // mutate the LVM: its reads are against the current masks.
        if (debugDviInvariants)
            checkDispatchReads(inst, e, srcs, fi.tr.pc);

        RegIndex fp_srcs[2];
        e.numFpSrcs = inst.srcFpRegs(fp_srcs);
        for (unsigned i = 0; i < e.numFpSrcs; ++i)
            e.fpSrcSeqs[i] = fpWriterSeq[fp_srcs[i]];

        // I-DVI and the LVM-Stack at procedure boundaries (§2, §5.2).
        if (inst.isCall()) {
            lvmStack_.push(lvm.snapshot());
            if (cfg.dvi.useIdvi) {
                lvm.kill(isa::idviCallMask());
                applyKillToRenamer(isa::idviCallMask(), e);
            }
        } else if (inst.isReturn()) {
            const RegMask snapshot = lvmStack_.pop();
            lvm.mergeFrom(snapshot, isa::calleeSavedMask());
            if (cfg.dvi.useIdvi) {
                lvm.kill(isa::idviReturnMask());
                applyKillToRenamer(isa::idviReturnMask(), e);
            }
        }

        if (inst.writesIntReg()) {
            const auto rd = renamer.renameDest(inst.destIntReg());
            e.hasDest = true;
            e.destPreg = rd.newPreg;
            e.prevPreg = rd.prevPreg;
            pregReadyAt[static_cast<std::size_t>(rd.newPreg)] =
                infiniteCycle;
            lvm.define(inst.destIntReg());
        }
        if (inst.writesFpReg()) {
            e.hasFpDest = true;
            e.fpDest = inst.rd;
            fpWriterSeq[e.fpDest] = e.seq;
        }

        if (e.noExec) {
            e.state = EntryState::Done;
            e.doneCycle = now;
        }

        heldCount_ +=
            (e.hasDest && e.prevPreg != invalidPhysReg ? 1 : 0) +
            e.killFreeCount;
        if (e.isStore) {
            setBit(waitingStoreBits_, slot);
            const std::size_t b = storeBucketOf(e.tr.effAddr);
            e.prevSameBucket = storeBuckets_[b];
            storeBuckets_[b] = slot;
        }
        initReadiness(e, slot);

        fetchQueue.pop_front();
        ++stats_.decodedInsts;
        ++dispatched;
    }

    dispStallWindow_ = counted_window_stall;
    dispStallRename_ = counted_rename_stall;
    if (dispatched)
        cycleProgress_ = true;
}

void
Core::doIssue()
{
    unsigned issued = 0;
    unsigned alu_free = cfg.intAlus;
    unsigned muldiv_free = cfg.intMulDivs;
    unsigned fp_free = cfg.fpAlus;
    unsigned fpmul_free = cfg.fpMulDivs;

    // Loads may not pass stores whose address is still unknown. Like
    // the scan-based scheduler, the gate is a snapshot taken before
    // any store issues this cycle.
    InstSeqNum oldest_unissued_store = ~0ull;
    forEachSetSlot(waitingStoreBits_, [&](std::size_t s) {
        oldest_unissued_store = window.atPhys(s).seq;
        return false;
    });

    // Iterate the ready set in age order; entries that issue clear
    // their live bit (safe during traversal: each word is copied
    // into a register before its bits are visited, and issue never
    // sets new ready bits mid-cycle), entries blocked on structural
    // hazards stay ready for next cycle.
    const auto issueOne = [&](std::size_t slot) {
        if (issued >= cfg.issueWidth)
            return false;
        WindowEntry &e = window.atPhys(slot);

        unsigned latency = e.tr.inst.execLatency();

        if (e.isLoad) {
            if (e.seq > oldest_unissued_store)
                return true;
            // Store-to-load forwarding: any older in-window store to
            // the same address has issued (the gate above proves no
            // older store is still waiting), so its data is
            // available to forward.
            bool forwarded = false;
            for (std::uint32_t s =
                     storeBuckets_[storeBucketOf(e.tr.effAddr)];
                 s != noSlot;
                 s = window.atPhys(s).prevSameBucket) {
                const WindowEntry &o = window.atPhys(s);
                if (o.seq < e.seq &&
                    o.tr.effAddr == e.tr.effAddr) {
                    forwarded = true;
                    break;
                }
            }
            if (forwarded) {
                latency = 1;
                ++stats_.loadForwards;
            } else {
                if (portsUsedThisCycle >= cfg.cachePorts)
                    return true;
                ++portsUsedThisCycle;
                latency = memsys.dataAccess(e.tr.effAddr, false);
                ++stats_.loadsExecuted;
            }
        } else if (e.isStore) {
            latency = 1;  // address/data capture; port used at commit
        } else {
            switch (e.tr.inst.fuClass()) {
              case FuClass::IntAlu:
              case FuClass::Branch:
                if (alu_free == 0)
                    return true;
                --alu_free;
                break;
              case FuClass::IntMulDiv:
                if (muldiv_free == 0 || alu_free == 0)
                    return true;
                --muldiv_free;
                --alu_free;
                break;
              case FuClass::FpAlu:
                if (fp_free == 0)
                    return true;
                --fp_free;
                break;
              case FuClass::FpMulDiv:
                if (fpmul_free == 0 || fp_free == 0)
                    return true;
                --fpmul_free;
                --fp_free;
                break;
              case FuClass::None:
              case FuClass::MemPort:
                break;
            }
        }

        e.state = EntryState::Issued;
        e.doneCycle = now + latency;
        if (e.hasDest)
            pregReadyAt[static_cast<std::size_t>(e.destPreg)] =
                e.doneCycle;
        clearBit(readyBits_, slot);
        if (e.isStore)
            clearBit(waitingStoreBits_, slot);
        panic_if(latency > wheelMask_,
                 "execution latency ", latency,
                 " overflows the completion wheel");
        wheel_[e.doneCycle & wheelMask_].push_back(
            static_cast<std::uint32_t>(slot));
        ++pendingCompletions_;
        ++issued;
        return true;
    };
    forEachSetSlot(readyBits_, issueOne);

    if (issued)
        cycleProgress_ = true;
}

void
Core::wakeConsumers(SmallVec<std::uint32_t, 4> &consumers)
{
    for (std::uint32_t slot : consumers) {
        WindowEntry &c = window.atPhys(slot);
        if (--c.waitCount == 0)
            setBit(readyBits_, slot);
    }
    consumers.clear();
}

void
Core::doComplete()
{
    SmallVec<std::uint32_t, 6> &bucket = wheel_[now & wheelMask_];
    for (std::uint32_t slot : bucket) {
        WindowEntry &e = window.atPhys(slot);
        e.state = EntryState::Done;
        if (e.mispredicted && fetchBlocked) {
            fetchBlocked = false;
            fetchAvailCycle =
                std::max(fetchAvailCycle, e.doneCycle + 1);
        }
        if (e.hasDest)
            wakeConsumers(
                wakeup_[static_cast<std::size_t>(e.destPreg)]);
        if (e.hasFpDest)
            wakeConsumers(e.fpDeps);
    }
    pendingCompletions_ -= bucket.size();
    bucket.clear();
    cycleProgress_ = true;
}

Cycle
Core::nextCompletionCycle() const
{
    if (pendingCompletions_ == 0)
        return infiniteCycle;
    for (Cycle k = 0; k <= wheelMask_; ++k) {
        const Cycle c = now + k;
        if (!wheel_[c & wheelMask_].empty())
            return c;
    }
    return infiniteCycle;
}

void
Core::doCommit()
{
    unsigned committed = 0;
    while (committed < cfg.commitWidth && !window.empty()) {
        WindowEntry &e = window.front();
        if (e.state != EntryState::Done)
            break;
        if (e.isStore) {
            // The architectural write needs a cache port.
            if (portsUsedThisCycle >= cfg.cachePorts)
                break;
            ++portsUsedThisCycle;
            memsys.dataAccess(e.tr.effAddr, true);
            ++stats_.storesExecuted;
            // Retire from the forwarding table. Stores commit in
            // order, so this entry is the oldest store in the
            // window and therefore the tail of its bucket chain.
            const std::size_t b = storeBucketOf(e.tr.effAddr);
            const std::uint32_t my_slot = static_cast<std::uint32_t>(
                window.headPhys());
            if (storeBuckets_[b] == my_slot) {
                storeBuckets_[b] = e.prevSameBucket;
            } else {
                std::uint32_t s = storeBuckets_[b];
                while (window.atPhys(s).prevSameBucket != my_slot)
                    s = window.atPhys(s).prevSameBucket;
                window.atPhys(s).prevSameBucket = e.prevSameBucket;
            }
        }
        if (e.hasDest && e.prevPreg != invalidPhysReg) {
            renamer.freePhysReg(e.prevPreg);
            --heldCount_;
        }
        for (unsigned i = 0; i < e.killFreeCount; ++i) {
            renamer.freePhysReg(killFreeQueue_.front());
            killFreeQueue_.pop_front();
        }
        heldCount_ -= e.killFreeCount;
        if (e.tr.inst.isCondBranch())
            bpred.update(pcBytes(e.tr.pc), e.tr.taken);
        if (e.tr.inst.isKill())
            ++stats_.committedKills;
        else
            ++stats_.committedProgInsts;
        lastCommitCycle = now;
        window.pop_front();
        ++committed;
    }
    if (committed)
        cycleProgress_ = true;
}

void
Core::skipDeadCycles()
{
    // The just-simulated cycle did no work, so every subsequent
    // cycle is an identical stall until the next scheduled event:
    // the earliest pending completion, or fetch resuming at
    // fetchAvailCycle (only relevant if fetch could actually make
    // progress there). Everything else the per-cycle loop reacts to
    // — commit, dispatch, readiness — can only change downstream of
    // one of those two.
    Cycle next = nextCompletionCycle();
    const bool fetch_could = !fetchBlocked &&
                             fetchQueue.size() < cfg.fetchQueueSize &&
                             tracePos_ < traceLen_;
    if (fetch_could) {
        // The cycle about to be simulated can already fetch (e.g.
        // the trace buffer was just refilled, or the I-cache line
        // lands exactly now): it is not an idle cycle.
        if (fetchAvailCycle <= now)
            return;
        next = std::min(next, fetchAvailCycle);
    }
    if (next == infiniteCycle) {
        if (window.empty())
            return;
        // No event will ever arrive: advance to where the deadlock
        // valve in run() trips.
        next = lastCommitCycle + deadlockHorizon + 1;
    }
    if (cfg.maxCycles)
        next = std::min<Cycle>(next, cfg.maxCycles);
    if (next <= now)
        return;

    // Bulk-account the per-cycle statistics the scan-based loop
    // would have incremented in cycles [now, next).
    const Cycle skipped = next - now;
    if (fetchBlocked)
        stats_.fetchBlockedCycles += skipped;
    else if (fetchAvailCycle > now)
        stats_.fetchBlockedCycles +=
            std::min(next, fetchAvailCycle) - now;
    if (dispStallWindow_)
        stats_.windowFullCycles += skipped;
    if (dispStallRename_)
        stats_.renameStallCycles += skipped;

    // Occupancy samples at the 64-cycle marks inside the skip; the
    // sampled state is frozen, so record them with a weight.
    const std::uint64_t marks = (next - 1) / 64 - (now - 1) / 64;
    if (marks) {
        stats_.pregsInUse.record(
            cfg.numPhysRegs - renamer.freeCount(), marks);
        stats_.liveRegs.record(
            lvm.liveCount(RegMask::firstN(isa::numIntRegs)), marks);
    }

    now = next;
    stats_.cycles = now;
}

const CoreStats &
Core::run()
{
    bool trace_done = false;
    // Cancellation polls on a private iteration counter, not `now`:
    // skipDeadCycles() jumps `now` over arbitrary spans, so cycle-
    // number masks would miss their marks.
    std::uint64_t cancelPoll = 0;
    while (true) {
        if (cfg.cancel && (++cancelPoll & 1023) == 0 &&
            cfg.cancel->requested())
            throw base::CancelledError(
                "timing core cancelled after " +
                std::to_string(stats_.committedProgInsts) +
                " committed insts");
        portsUsedThisCycle = 0;
        cycleProgress_ = false;
        // Phase order matches the scan-based loop; the guards are
        // early-outs only (each phase is a no-op when its guard
        // fails), so per-cycle behavior is unchanged.
        if (pendingCompletions_ != 0 &&
            !wheel_[now & wheelMask_].empty())
            doComplete();
        if (!window.empty() &&
            window.front().state == EntryState::Done)
            doCommit();
        if (stats_.committedProgInsts >= nextSampleAt_) {
            cfg.sampleHook(stats_, cfg.sampleCtx);
            // Land on the next multiple strictly above the current
            // count (a wide commit can cross several at once).
            nextSampleAt_ += cfg.sampleEveryInsts *
                             ((stats_.committedProgInsts -
                               nextSampleAt_) /
                                  cfg.sampleEveryInsts +
                              1);
        }
        if (readyAny())
            doIssue();
        if (!fetchQueue.empty()) {
            doDispatch();
        } else {
            dispStallWindow_ = false;
            dispStallRename_ = false;
        }
        if (fetchBlocked || now < fetchAvailCycle)
            ++stats_.fetchBlockedCycles;
        else
            doFetch();

        if ((now & 63) == 0) {
            stats_.pregsInUse.record(cfg.numPhysRegs -
                                     renamer.freeCount());
            stats_.liveRegs.record(
                lvm.liveCount(RegMask::firstN(isa::numIntRegs)));
        }
        if ((now & 1023) == 0)
            renamer.checkConservation(heldCount_);

        ++now;
        stats_.cycles = now;

        if (!trace_done && tracePos_ >= traceLen_ &&
            !nextTraceRecord())
            trace_done = true;
        if (trace_done && window.empty() && fetchQueue.empty() &&
            tracePos_ >= traceLen_)
            break;
        if (!window.empty() &&
            now - lastCommitCycle > deadlockHorizon) {
            const WindowEntry &h = window.front();
            std::fprintf(stderr,
                         "DEADLOCK head: seq=%llu op=%s pc=%u "
                         "srcs=%d:[%d,%d] ready=[%llu,%llu] "
                         "isLoad=%d isStore=%d fpsrcs=%u now=%llu\n",
                         (unsigned long long)h.seq,
                         h.tr.inst.toString().c_str(), h.tr.pc,
                         h.numSrcs, (int)h.srcPregs[0],
                         (int)h.srcPregs[1],
                         h.numSrcs > 0 && h.srcPregs[0] >= 0
                             ? (unsigned long long)pregReadyAt[h.srcPregs[0]] : 0ull,
                         h.numSrcs > 1 && h.srcPregs[1] >= 0
                             ? (unsigned long long)pregReadyAt[h.srcPregs[1]] : 0ull,
                         (int)h.isLoad, (int)h.isStore, h.numFpSrcs,
                         (unsigned long long)now);
            panic("core deadlock");
        }
        if (cfg.maxCycles && now >= cfg.maxCycles)
            break;
        if (!cycleProgress_) {
            skipDeadCycles();
            if (cfg.maxCycles && now >= cfg.maxCycles)
                break;
        }
    }

    stats_.il1Misses = memsys.il1().misses();
    stats_.dl1Misses = memsys.dl1().misses();
    stats_.dl1Accesses = memsys.dl1().accesses();
    stats_.l2Misses = memsys.l2().misses();
    return stats_;
}

} // namespace uarch
} // namespace dvi
