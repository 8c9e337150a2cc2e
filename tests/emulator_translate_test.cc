/**
 * @file
 * Tier-1 translation tests: basic-block formation, the pre-baked
 * dead-read probe lists, interpreter/xlate lockstep over branches,
 * fuel-guarded back edges and mutual recursion, misaligned-fault
 * paths (mid-block prefix stats), chunked runs read between calls,
 * and the per-emulator block index — lazy growth, recompiles under
 * one name, and concurrent emulators on one executable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "arch/emulator.hh"
#include "arch/xlate.hh"
#include "compiler/compile.hh"
#include "fuzz/oracle.hh"
#include "fuzz/program_gen.hh"
#include "isa/decode.hh"
#include "test_programs.hh"
#include "workload/benchmarks.hh"

namespace dvi
{
namespace arch
{
namespace
{

using isa::Instruction;
using isa::Opcode;

/** Minimal runnable image around a hand-assembled code vector. */
comp::Executable
assemble(std::vector<Instruction> code)
{
    comp::Executable exe;
    exe.name = "xlate-test";
    exe.globalBase = prog::Module::globalBase;
    exe.globalWords = 8;
    exe.code = std::move(code);
    exe.procs.push_back(comp::ProcInfo{
        "main", 0, static_cast<int>(exe.code.size())});
    exe.entry = 0;
    return exe;
}

/** Stats equality across every EmulatorStats field. */
void
expectStatsEq(const EmulatorStats &a, const EmulatorStats &b)
{
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.progInsts, b.progInsts);
    EXPECT_EQ(a.kills, b.kills);
    EXPECT_EQ(a.aluOps, b.aluOps);
    EXPECT_EQ(a.memRefs, b.memRefs);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.returns, b.returns);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.fpOps, b.fpOps);
    EXPECT_EQ(a.saves, b.saves);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.saveElimOracle, b.saveElimOracle);
    EXPECT_EQ(a.restoreElimOracle, b.restoreElimOracle);
    EXPECT_EQ(a.deadReads, b.deadReads);
    EXPECT_EQ(a.firstDeadReadPc, b.firstDeadReadPc);
    EXPECT_EQ(a.firstDeadReadReg, b.firstDeadReadReg);
    EXPECT_EQ(a.maxCallDepth, b.maxCallDepth);
}

/** Liveness-oracle equality: the LVM, the FP live set and the
 * LVM-Stack's depth and top snapshot. */
void
expectLivenessEq(const Emulator &a, const Emulator &b)
{
    EXPECT_EQ(a.lvm().mask().raw(), b.lvm().mask().raw());
    EXPECT_EQ(a.fpLive().raw(), b.fpLive().raw());
    EXPECT_EQ(a.lvmStack().size(), b.lvmStack().size());
    EXPECT_EQ(a.lvmStack().top().raw(), b.lvmStack().top().raw());
}

/** Run `exe` under both tiers with identical options and require
 * bit-identical stats, liveness state, halt state, and result
 * hash. */
void
expectTierParity(const comp::Executable &exe, EmulatorOptions opts,
                 std::uint64_t max_insts = 0)
{
    opts.tier = ExecTier::Interp;
    Emulator interp(exe, opts);
    interp.run(max_insts);

    opts.tier = ExecTier::Xlate;
    Emulator xlate(exe, opts);
    xlate.run(max_insts);

    EXPECT_EQ(interp.halted(), xlate.halted());
    EXPECT_EQ(interp.faulted(), xlate.faulted());
    EXPECT_EQ(interp.faultPc(), xlate.faultPc());
    EXPECT_EQ(interp.pc(), xlate.pc());
    expectStatsEq(interp.stats(), xlate.stats());
    expectLivenessEq(interp, xlate);
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(interp.intReg(r), xlate.intReg(r)) << "r" << int(r);
    EXPECT_EQ(interp.resultHash(), xlate.resultHash());
}

// ------------------------------------------------- block formation

TEST(TranslateBlock, StraightLineEndsAtHaltInclusive)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::aluImm(Opcode::Addi, 9, 8, 2),
        Instruction::halt(),
        Instruction::nop(),  // unreachable, next block's leader
    });
    const XBlock b = translateBlock(exe.code, 0);
    EXPECT_EQ(b.entryPc, 0u);
    EXPECT_EQ(b.len, 3u);  // halt is the terminator, inclusive
    EXPECT_EQ(b.stat.insts, 3u);
    EXPECT_EQ(b.stat.progInsts, 3u);
    EXPECT_EQ(b.stat.aluOps, 2u);
}

TEST(TranslateBlock, BranchTerminatesAndKillsFlowThrough)
{
    const comp::Executable exe = assemble({
        Instruction::kill(RegMask{9}),
        Instruction::aluImm(Opcode::Addi, 8, 0, 5),
        Instruction::branch(Opcode::Bne, 8, 0, 0),
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    EXPECT_EQ(b.len, 3u);  // kill is NOT a terminator
    EXPECT_EQ(b.stat.kills, 1u);
    EXPECT_EQ(b.stat.progInsts, 2u);
    EXPECT_EQ(b.stat.condBranches, 1u);
    // The kill mask rides in the micro-op's imm, pre-baked.
    EXPECT_EQ(b.uops[0].op, Opcode::Kill);
    EXPECT_EQ(static_cast<std::uint32_t>(b.uops[0].imm),
              RegMask{9}.raw());
}

TEST(TranslateBlock, CapsAtMaxBlockLenWithoutTerminator)
{
    std::vector<Instruction> code(maxBlockLen + 20,
                                  Instruction::nop());
    code.push_back(Instruction::halt());
    const comp::Executable exe = assemble(std::move(code));
    const XBlock head = translateBlock(exe.code, 0);
    EXPECT_EQ(head.len, maxBlockLen);
    // Successor picks up at the fall-through pc and reaches halt.
    const XBlock tail = translateBlock(exe.code, head.len);
    EXPECT_EQ(tail.entryPc, maxBlockLen);
    EXPECT_EQ(tail.len, 21u);
}

TEST(TranslateBlock, CapsAtEndOfImage)
{
    const comp::Executable exe = assemble({
        Instruction::nop(),
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
    });
    const XBlock b = translateBlock(exe.code, 1);
    EXPECT_EQ(b.len, 1u);  // image ends before any terminator
}

TEST(TranslateBlock, MidBlockEntryDecodesOverlappingBlock)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 0, 1),
        Instruction::aluImm(Opcode::Addi, 9, 0, 2),
        Instruction::halt(),
    });
    const XBlock whole = translateBlock(exe.code, 0);
    const XBlock mid = translateBlock(exe.code, 1);
    EXPECT_EQ(whole.len, 3u);
    EXPECT_EQ(mid.len, 2u);
    EXPECT_EQ(mid.uops[0].pc, 1u);
    EXPECT_EQ(mid.uops[0].imm, whole.uops[1].imm);
}

// ------------------------------------- dead-read probe pre-baking

TEST(DeadCheckRegs, StoreProbesDataBeforeBase)
{
    RegIndex chk[2];
    const Instruction st = Instruction::store(10, 11, 0);
    ASSERT_EQ(isa::deadCheckRegs(st, chk), 2u);
    EXPECT_EQ(chk[0], st.rs2);  // data register first
    EXPECT_EQ(chk[1], st.rs1);  // then the base
}

TEST(DeadCheckRegs, LiveStoreDataRegisterIsExempt)
{
    RegIndex chk[2];
    const Instruction sv = Instruction::liveStore(20, isa::regSp, -8);
    ASSERT_EQ(isa::deadCheckRegs(sv, chk), 1u);
    EXPECT_EQ(chk[0], isa::regSp);  // base only: dead saves squash
}

TEST(DeadCheckRegs, ZeroRegisterIsExcluded)
{
    RegIndex chk[2];
    EXPECT_EQ(isa::deadCheckRegs(
                  Instruction::alu(Opcode::Add, 8, 0, 0), chk),
              0u);
    EXPECT_EQ(isa::deadCheckRegs(
                  Instruction::aluImm(Opcode::Addi, 8, 0, 1), chk),
              0u);
}

TEST(DeadCheckRegs, DuplicateSourceProbedTwice)
{
    RegIndex chk[2];
    ASSERT_EQ(isa::deadCheckRegs(
                  Instruction::alu(Opcode::Add, 8, 9, 9), chk),
              2u);
    EXPECT_EQ(chk[0], 9);
    EXPECT_EQ(chk[1], 9);
}

TEST(DeadCheckRegs, RetProbesReturnAddress)
{
    RegIndex chk[2];
    ASSERT_EQ(isa::deadCheckRegs(Instruction::ret(), chk), 1u);
    EXPECT_EQ(chk[0], isa::regRa);
}

TEST(TranslateBlock, MicroOpsCarryTheProbeList)
{
    const comp::Executable exe = assemble({
        Instruction::store(10, 11, 8),
        Instruction::halt(),
    });
    const XBlock b = translateBlock(exe.code, 0);
    EXPECT_EQ(b.uops[0].chkMask, (1u << 10) | (1u << 11));
    EXPECT_EQ(b.uops[1].chkMask, 0u);
}

// ------------------------------------------------ execution parity

TEST(XlateTier, BranchTakenAndNotTakenMatchInterpreter)
{
    // sumProgram's loop branch is taken n-1 times then falls
    // through: both terminator outcomes on the same block.
    expectTierParity(comp::compile(testprog::sumProgram(100)),
                     EmulatorOptions{});
    // Division's defined results for a zero divisor and for
    // INT64_MIN / -1.
    expectTierParity(comp::compile(testprog::divProgram(7, 0, 0)),
                     EmulatorOptions{});
    expectTierParity(comp::compile(testprog::divProgram(1, 63, -1)),
                     EmulatorOptions{});
    // Wrapping add, sub, mul and addi on an overflowing pair.
    expectTierParity(comp::compile(testprog::wrapProgram(1, 63, -1)),
                     EmulatorOptions{});
}

TEST(XlateTier, RecursionAndLvmOracleMatchInterpreter)
{
    EmulatorOptions opts;
    opts.strictDeadReads = true;
    expectTierParity(comp::compile(testprog::factorialProgram(10)),
                     opts);
    expectTierParity(comp::compile(testprog::fig7Program()), opts);
}

TEST(XlateTier, FuelGuardedBackEdgesAndMutualRecursion)
{
    // The adversarial generator emits exactly the block shapes the
    // translator must not get wrong: fuel-guarded back edges,
    // mutual recursion, forward branches into block middles.
    for (std::uint64_t seed : {7u, 19u, 401u}) {
        fuzz::ProgramParams params;
        params.seed = seed;
        params.numProcs = 3;
        params.backEdgeProb = 0.4;
        params.callProb = 0.5;
        const comp::Executable exe =
            comp::compile(fuzz::generateProgram(params));
        EmulatorOptions opts;
        opts.faultOnMisaligned = true;
        expectTierParity(exe, opts, /*max_insts=*/200000);
    }
}

TEST(XlateTier, BudgetedRunStopsAtTheSameInstruction)
{
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(1000));
    // Budgets that land mid-block force the interpreter tail path.
    for (std::uint64_t budget : {1u, 2u, 3u, 50u, 63u, 64u, 65u}) {
        EmulatorOptions opts;
        opts.tier = ExecTier::Xlate;
        Emulator emu(exe, opts);
        EXPECT_EQ(emu.run(budget), budget);
        EXPECT_FALSE(emu.halted());
        expectTierParity(exe, EmulatorOptions{}, budget);
    }
}

TEST(XlateTier, StepBatchRecordsMatchInterpreter)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(8));
    EmulatorOptions opts;
    opts.tier = ExecTier::Interp;
    Emulator a(exe, opts);
    opts.tier = ExecTier::Xlate;
    Emulator b(exe, opts);

    TraceRecord ra, rb[7];
    bool done = false;
    while (!done) {
        // An awkward batch size so batches straddle block edges.
        const std::size_t n = b.stepBatch(rb, 7);
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(a.step(&ra));
            EXPECT_EQ(ra.pc, rb[i].pc);
            EXPECT_EQ(ra.nextPc, rb[i].nextPc);
            EXPECT_EQ(ra.effAddr, rb[i].effAddr);
            EXPECT_EQ(ra.taken, rb[i].taken);
            EXPECT_EQ(ra.inst.op, rb[i].inst.op);
        }
        done = b.halted();
    }
    EXPECT_TRUE(a.halted());
    EXPECT_TRUE(b.halted());
    expectStatsEq(a.stats(), b.stats());
}

TEST(XlateTier, ProgInstGateFallsBackExactly)
{
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(200));
    for (std::uint64_t gate : {1u, 5u, 17u, 64u}) {
        EmulatorOptions opts;
        opts.tier = ExecTier::Interp;
        Emulator a(exe, opts);
        opts.tier = ExecTier::Xlate;
        Emulator b(exe, opts);
        TraceRecord bufA[256], bufB[256];
        const std::size_t na = a.stepBatch(bufA, 256, gate);
        const std::size_t nb = b.stepBatch(bufB, 256, gate);
        ASSERT_EQ(na, nb) << "gate " << gate;
        for (std::size_t i = 0; i < na; ++i)
            EXPECT_EQ(bufA[i].pc, bufB[i].pc);
        expectStatsEq(a.stats(), b.stats());
    }
}

// -------------------------------------------- misaligned faults

TEST(XlateTier, MisalignedFaultMidBlockMatchesInterpreter)
{
    // addi lands the bad address in r9 (pc 0-1), then two ALU ops
    // retire before the faulting store — the fault is mid-block, so
    // the prefix-stats path is exercised.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1001),
        Instruction::aluImm(Opcode::Addi, 8, 0, 7),
        Instruction::aluImm(Opcode::Addi, 8, 8, 1),
        Instruction::store(8, 9, 0),  // faults: 0x1001 unaligned
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.faultOnMisaligned = true;
    expectTierParity(exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.faulted());
    EXPECT_EQ(emu.faultPc(), 3u);
    // The faulting store still retires (stats count it); the write
    // itself is suppressed.
    EXPECT_EQ(emu.stats().insts, 4u);
    EXPECT_EQ(emu.stats().stores, 1u);
    EXPECT_EQ(emu.memory().touchedWords(), 0u);

    // The fault exit hands back the block's LVM: r8 and r9 are
    // killed in an earlier block and redefined in the faulting one,
    // so they read live only if the definitions reached lvm(); r10
    // stays dead.
    const comp::Executable live_exe = assemble({
        Instruction::kill(RegMask{8, 9, 10}),
        Instruction::jump(2),
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1001),
        Instruction::aluImm(Opcode::Addi, 8, 0, 7),
        Instruction::store(8, 9, 0),  // faults mid-block
        Instruction::halt(),
    });
    expectTierParity(live_exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator live_emu(live_exe, opts);
    live_emu.run();
    EXPECT_TRUE(live_emu.faulted());
    EXPECT_EQ(live_emu.faultPc(), 4u);
    EXPECT_TRUE(live_emu.lvm().isLive(8));
    EXPECT_TRUE(live_emu.lvm().isLive(9));
    EXPECT_FALSE(live_emu.lvm().isLive(10));
}

TEST(XlateTier, MisalignedFaultedLoadReadsZero)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1003),
        Instruction::aluImm(Opcode::Addi, 8, 0, 55),
        Instruction::load(8, 9, 0),  // faults: result forced to 0
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.faultOnMisaligned = true;
    expectTierParity(exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.faulted());
    EXPECT_EQ(emu.intReg(8), 0);
}

TEST(XlateTier, LvmLoadRestoresTheMaskWithLivenessOff)
{
    // LvmLoad restores the LVM even when liveness tracking is off,
    // so the no-LVM block loop must hand its copy back too.
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 9, 0, 0x1000),
        Instruction::aluImm(Opcode::Addi, 8, 0, 0x0f),
        Instruction::store(8, 9, 0),
        Instruction::lvmLoad(9, 0),
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.trackLiveness = false;
    expectTierParity(exe, opts);

    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_EQ(emu.lvm().mask().raw(), 0x0fu);
}

// ------------------------------------------------- chunked runs

TEST(XlateTier, ChunkedRunsMatchInterpreter)
{
    // stats() and lvm() are read between run() calls, as the
    // context-switch scheduler does, so a block run not yet counted
    // or an LVM not yet written back shows up after some chunk.
    // Chunk sizes straddle maxBlockLen (whose budget tails fall back
    // to the interpreter) and fig12's 20000-instruction quantum.
    const comp::Executable programs[] = {
        comp::compile(testprog::factorialProgram(10)),
        comp::compile(
            workload::generateBenchmark(workload::BenchmarkId::Perl),
            comp::CompileOptions{comp::EdviPolicy::CallSites}),
    };
    EmulatorOptions opts;
    opts.lvmStackDepth = 16;
    for (const comp::Executable &exe : programs) {
        for (const std::uint64_t k :
             {1ull, 7ull, 63ull, 64ull, 65ull, 1000ull, 20000ull}) {
            SCOPED_TRACE(exe.name + ", chunks of " + std::to_string(k));
            opts.tier = ExecTier::Interp;
            Emulator interp(exe, opts);
            opts.tier = ExecTier::Xlate;
            Emulator xlate(exe, opts);
            const std::uint64_t total = std::max<std::uint64_t>(3 * k, 6000);
            for (std::uint64_t done = 0; done < total && !interp.halted();) {
                const std::uint64_t ran = interp.run(k);
                ASSERT_EQ(ran, xlate.run(k)) << "after " << done;
                done += ran;
                ASSERT_EQ(interp.pc(), xlate.pc()) << "after " << done;
                expectStatsEq(interp.stats(), xlate.stats());
                expectLivenessEq(interp, xlate);
                ASSERT_FALSE(HasFailure()) << "after " << done;
            }
            EXPECT_EQ(interp.halted(), xlate.halted());
        }
    }
}

// ------------------------------------------ dead-read diagnostics

TEST(XlateTier, FirstDeadReadDiagnosticsMatchInterpreter)
{
    // Corrupt one kill mask so the E-DVI binary really has a dead
    // read, then require identical firstDeadReadPc/Reg on both
    // tiers (the probe-order contract, end to end).
    comp::CompileOptions copts;
    copts.edvi = comp::EdviPolicy::Dense;
    comp::Executable exe =
        comp::compile(testprog::fig7Program(), copts);
    fuzz::FaultSpec fault;
    fault.enabled = true;
    fault.killOrdinal = 2;
    fault.reg = 4;  // an argument register: read soon after the kill
    bool applied = false;
    for (RegIndex r = 4; r < 16 && !applied; ++r) {
        fault.reg = r;
        applied = fuzz::applyKillFault(exe, fault);
    }
    ASSERT_TRUE(applied);

    EmulatorOptions opts;  // strictDeadReads off: count, don't panic
    opts.tier = ExecTier::Interp;
    Emulator a(exe, opts);
    a.run();
    opts.tier = ExecTier::Xlate;
    Emulator b(exe, opts);
    b.run();
    expectStatsEq(a.stats(), b.stats());
}

TEST(XlateTier, TwoDeadSourcesCountTwiceOnBothTiers)
{
    // At entry only zero, a0-a3, gp, sp and ra are live, so t1 (r9)
    // and t2 (r10) are dead. The block prologue's one-mask test must
    // fall back to the ordered probe list and count both reads.
    for (const Instruction &inst :
         {Instruction::alu(Opcode::Add, 8, 9, 10),
          Instruction::alu(Opcode::Add, 8, 9, 9),
          Instruction::branch(Opcode::Beq, 9, 10, 2)}) {
        const comp::Executable exe =
            assemble({inst, Instruction::halt(), Instruction::halt()});
        for (const ExecTier tier : {ExecTier::Interp, ExecTier::Xlate}) {
            EmulatorOptions opts;
            opts.tier = tier;
            Emulator emu(exe, opts);
            emu.run();
            EXPECT_EQ(emu.stats().deadReads, 2u) << inst.toString();
            EXPECT_EQ(emu.stats().firstDeadReadReg, 9) << inst.toString();
            EXPECT_EQ(emu.stats().firstDeadReadPc, 0u);
        }
        expectTierParity(exe, EmulatorOptions{});
    }
    // Store probes its data register first, as the interpreter does.
    const comp::Executable store = assemble({
        Instruction::store(10, 9, 0),
        Instruction::halt(),
    });
    expectTierParity(store, EmulatorOptions{});
    Emulator emu(store);
    emu.run();
    EXPECT_EQ(emu.stats().deadReads, 2u);
    EXPECT_EQ(emu.stats().firstDeadReadReg, 10);
}

TEST(XlateTier, LiveStoreDataRegisterStaysExempt)
{
    // A callee save of dead s0 is no dead read: it is an eliminable
    // save. Only the (live) sp base is probed.
    const comp::Executable exe = assemble({
        Instruction::liveStore(16, isa::regSp, -8),
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.strictDeadReads = true;
    expectTierParity(exe, opts);
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_EQ(emu.stats().deadReads, 0u);
    EXPECT_EQ(emu.stats().saveElimOracle, 1u);
}

TEST(XlateTierDeath, StrictDeadReadPanicsOnTheBlockPath)
{
    const comp::Executable exe = assemble({
        Instruction::aluImm(Opcode::Addi, 8, 4, 1),
        Instruction::alu(Opcode::Add, 8, 8, 9),
        Instruction::halt(),
    });
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    opts.strictDeadReads = true;
    EXPECT_DEATH(
        {
            Emulator emu(exe, opts);
            emu.run();
        },
        "read of dead register t1 at pc 1 \\(incorrect E-DVI\\)");
    EXPECT_DEATH(
        {
            Emulator emu(exe, opts);
            TraceRecord recs[8];
            (void)emu.stepBatch(recs, 8);
        },
        "read of dead register t1 at pc 1 \\(incorrect E-DVI\\)");
}

// ------------------------------------------- per-emulator block index

TEST(XlateTier, RecompileNeverSeesStaleTranslation)
{
    // Same name, same shape, different code: each emulator translates
    // the binary it was built on, so a recompile under the same name
    // computes its own result.
    const comp::Executable v1 =
        comp::compile(testprog::sumProgram(10));
    comp::Executable v2 = comp::compile(testprog::sumProgram(11));
    v2.name = v1.name;

    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator e1(v1, opts), e2(v2, opts);
    e1.run();
    e2.run();
    EXPECT_NE(e1.resultHash(), e2.resultHash());
}

TEST(TranslatedProgram, LazyBlockIndexGrowsOnDemand)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(5));
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    EXPECT_EQ(emu.translatedBlocks(), 0u);  // lazy until first run
    TraceRecord rec;
    ASSERT_EQ(emu.stepBatch(&rec, 1), 1u);
    EXPECT_EQ(emu.translatedBlocks(), 1u);  // the entry leader only
    emu.run();
    EXPECT_GT(emu.translatedBlocks(), 1u);
    EXPECT_LE(emu.translatedBlocks(), exe.code.size());
}

TEST(XlateTier, ConcurrentEmulatorsMatchSoloRun)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(9));

    // Reference result from a solo run.
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator ref(exe, opts);
    ref.run();

    std::vector<std::thread> threads;
    std::vector<std::uint64_t> hashes(8, 0);
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            // Eight emulators on one Executable, each translating
            // into its own block index (the TSan leg runs this too).
            Emulator emu(exe, opts);
            emu.run();
            hashes[t] = emu.resultHash();
        });
    }
    for (auto &th : threads)
        th.join();
    for (const std::uint64_t h : hashes)
        EXPECT_EQ(h, ref.resultHash());
}

TEST(XlateTier, EmulatorExposesItsTranslation)
{
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(10));
    EmulatorOptions opts;
    opts.tier = ExecTier::Interp;
    Emulator interp(exe, opts);
    interp.run();
    EXPECT_EQ(interp.translatedBlocks(), 0u);  // tier 0 never translates
    opts.tier = ExecTier::Xlate;
    Emulator xlate(exe, opts);
    xlate.run();
    EXPECT_GT(xlate.translatedBlocks(), 0u);
}

} // namespace
} // namespace arch
} // namespace dvi
