/**
 * @file
 * Tier-1 translation tests: basic-block formation, the pre-baked
 * dead-read probe lists, interpreter/cache lockstep over branches,
 * fuel-guarded back edges and mutual recursion, misaligned-fault
 * paths (mid-block prefix stats), and TranslationCache keying —
 * per-executable invalidation, LRU eviction, recompile staleness,
 * and multi-threaded sharing of one translation.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "arch/emulator.hh"
#include "arch/xlate.hh"
#include "arch/xlate_cache.hh"
#include "compiler/compile.hh"
#include "fuzz/oracle.hh"
#include "fuzz/program_gen.hh"
#include "isa/decode.hh"
#include "test_programs.hh"

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

/** Run `exe` under both tiers with identical options and require
 * bit-identical stats, halt state, and result hash. */
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
    ASSERT_EQ(b.uops[0].nChk, 2u);
    EXPECT_EQ(b.uops[0].chk0, 10);
    EXPECT_EQ(b.uops[0].chk1, 11);
    EXPECT_EQ(b.uops[1].nChk, 0u);
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

// --------------------------------------------- translation cache

TEST(TranslationCache, HitsMissesAndInvalidation)
{
    TranslationCache cache(4);
    const comp::Executable exe =
        comp::compile(testprog::sumProgram(10));

    const auto p1 = cache.acquire(exe);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    const auto p2 = cache.acquire(exe);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(p1.get(), p2.get());  // shared, not re-translated

    EXPECT_TRUE(cache.invalidate(exe));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.invalidate(exe));  // already gone

    const auto p3 = cache.acquire(exe);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NE(p1.get(), p3.get());
    // The old handle stays valid after eviction.
    EXPECT_TRUE(p1->matches(exe));
}

TEST(TranslationCache, RecompileNeverSeesStaleTranslation)
{
    // Same name, same shape, different code: the content key must
    // separate them — a stale translation surviving a recompile is
    // exactly the bug this cache design rules out.
    TranslationCache cache(4);
    const comp::Executable v1 =
        comp::compile(testprog::sumProgram(10));
    comp::Executable v2 = comp::compile(testprog::sumProgram(11));
    v2.name = v1.name;

    const auto p1 = cache.acquire(v1);
    const auto p2 = cache.acquire(v2);
    EXPECT_NE(p1.get(), p2.get());
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_TRUE(p1->matches(v1));
    EXPECT_FALSE(p1->matches(v2));

    // And execution through the process cache agrees: each binary
    // computes its own result.
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator e1(v1, opts), e2(v2, opts);
    e1.run();
    e2.run();
    EXPECT_NE(e1.resultHash(), e2.resultHash());
}

TEST(TranslationCache, LruEvictionKeepsLiveHandlesValid)
{
    TranslationCache cache(2);
    const comp::Executable a =
        comp::compile(testprog::sumProgram(1));
    const comp::Executable b =
        comp::compile(testprog::sumProgram(2));
    const comp::Executable c =
        comp::compile(testprog::sumProgram(3));

    const auto pa = cache.acquire(a);
    const auto pb = cache.acquire(b);
    (void)cache.acquire(a);  // refresh a: b is now LRU
    const auto pc = cache.acquire(c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);

    // b was evicted: re-acquiring misses and re-translates.
    const std::uint64_t misses = cache.misses();
    const auto pb2 = cache.acquire(b);
    EXPECT_EQ(cache.misses(), misses + 1);
    EXPECT_NE(pb.get(), pb2.get());
    EXPECT_TRUE(pb->matches(b));  // evicted handle still usable
}

TEST(TranslationCache, ClearDropsEverything)
{
    TranslationCache cache;
    (void)cache.acquire(comp::compile(testprog::sumProgram(5)));
    (void)cache.acquire(comp::compile(testprog::sumProgram(6)));
    EXPECT_EQ(cache.size(), 2u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TranslatedProgram, LazyBlockIndexGrowsOnDemand)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(5));
    TranslatedProgram prog(exe);
    EXPECT_EQ(prog.blockCount(), 0u);
    EXPECT_EQ(prog.blockAt(static_cast<std::uint32_t>(exe.entry)),
              nullptr);
    const XBlock &b =
        prog.getOrTranslate(static_cast<std::uint32_t>(exe.entry));
    EXPECT_EQ(prog.blockCount(), 1u);
    EXPECT_EQ(&prog.getOrTranslate(
                  static_cast<std::uint32_t>(exe.entry)),
              &b);  // idempotent, same storage
    EXPECT_EQ(prog.blockAt(static_cast<std::uint32_t>(exe.entry)),
              &b);
}

TEST(TranslationCache, ConcurrentEmulatorsShareOneTranslation)
{
    const comp::Executable exe =
        comp::compile(testprog::factorialProgram(9));
    TranslationCache cache(8);
    const auto shared = cache.acquire(exe);

    // Reference result from a solo run.
    EmulatorOptions opts;
    opts.tier = ExecTier::Xlate;
    Emulator ref(exe, opts);
    ref.run();

    std::vector<std::thread> threads;
    std::vector<std::uint64_t> hashes(8, 0);
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            // All eight race on the same lazy block table via the
            // process cache (the TSan leg runs this too).
            EmulatorOptions o;
            o.tier = ExecTier::Xlate;
            Emulator emu(exe, o);
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
    opts.tier = ExecTier::Xlate;
    Emulator emu(exe, opts);
    EXPECT_EQ(emu.translation(), nullptr);  // lazy until first run
    emu.run();
    ASSERT_NE(emu.translation(), nullptr);
    EXPECT_GT(emu.translation()->blockCount(), 0u);
    EXPECT_TRUE(emu.translation()->matches(exe));
}

} // namespace
} // namespace arch
} // namespace dvi
