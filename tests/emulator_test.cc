/**
 * @file
 * Functional emulator tests: architectural semantics, call/return,
 * recursion, memory, tracing, statistics.
 */

#include <gtest/gtest.h>

#include <limits>
#include <type_traits>

#include "arch/emulator.hh"
#include "compiler/compile.hh"
#include "test_programs.hh"

namespace dvi
{
namespace arch
{
namespace
{

std::int64_t
globalWord(const Emulator &emu, unsigned index)
{
    return emu.memory().read(emu.executable().globalBase + 8 * index);
}

TEST(Emulator, SumLoopComputesCorrectResult)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(100));
    Emulator emu(exe);
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(globalWord(emu, 0), 5050);
}

TEST(Emulator, RecursiveFactorial)
{
    comp::Executable exe =
        comp::compile(testprog::factorialProgram(10));
    EmulatorOptions opts;
    opts.strictDeadReads = true;  // also validates E-DVI soundness
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(globalWord(emu, 0), 3628800);
    // main->fact(10)->...->fact(1)->fact(0): depth 11.
    EXPECT_EQ(emu.stats().maxCallDepth, 11u);
    EXPECT_EQ(emu.stats().deadReads, 0u);
}

TEST(Emulator, Fig7ProgramRunsAndCounts)
{
    comp::Executable exe = comp::compile(testprog::fig7Program());
    EmulatorOptions opts;
    opts.strictDeadReads = true;
    Emulator emu(exe, opts);
    emu.run();
    EXPECT_TRUE(emu.halted());
    const EmulatorStats &s = emu.stats();
    EXPECT_EQ(s.calls, s.returns + 0u);  // every call returned
    EXPECT_GT(s.saves, 0u);
    EXPECT_EQ(s.saves, s.restores);
    // Two eliminable pairs: the callee's save of s0 under caller2's
    // kill at its second call, and caller2's own prologue save of s0
    // (main's first cross-call value dies before it calls caller2,
    // so main kills s0 too). caller1's path eliminates nothing.
    EXPECT_EQ(s.saveElimOracle, 2u);
    EXPECT_EQ(s.restoreElimOracle, 2u);
}

TEST(Emulator, StepProducesTraceRecords)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(3));
    Emulator emu(exe);
    TraceRecord tr;
    std::uint64_t steps = 0;
    std::uint64_t branches = 0, taken = 0;
    while (emu.step(&tr)) {
        ++steps;
        if (tr.inst.isCondBranch()) {
            ++branches;
            taken += tr.taken;
        }
        if (!tr.inst.isControl() && !tr.inst.isHalt()) {
            EXPECT_EQ(tr.nextPc, tr.pc + 1);
        }
    }
    EXPECT_EQ(steps, emu.stats().insts);
    EXPECT_EQ(branches, 3u);  // loop executes 3 times
    EXPECT_EQ(taken, 2u);     // last iteration falls through
}

TEST(Emulator, StepAfterHaltReturnsFalse)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(1));
    Emulator emu(exe);
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_FALSE(emu.step());
}

TEST(Emulator, RunWithBudgetStopsEarly)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(1000));
    Emulator emu(exe);
    EXPECT_EQ(emu.run(50), 50u);
    EXPECT_FALSE(emu.halted());
}

TEST(Emulator, MemoryRoundTrip)
{
    Memory mem;
    EXPECT_EQ(mem.read(0x1000), 0);  // unwritten reads as zero
    mem.write(0x1000, -42);
    EXPECT_EQ(mem.read(0x1000), -42);
    EXPECT_EQ(mem.touchedWords(), 1u);
}

// Page geometry of arch::Memory: 4 KB pages, a 16-slot direct-mapped
// page TLB indexed by the page number.
constexpr Addr kPageBytes = 4096;
constexpr Addr kTlbSlots = 16;

TEST(Memory, PagesAliasingOneTlbSlotBothRoundTrip)
{
    Memory mem;
    const Addr a = 5 * kPageBytes + 8;
    const Addr b = (5 + kTlbSlots) * kPageBytes + 8;  // same slot
    for (int i = 0; i < 4; ++i) {
        mem.write(a, 100 + i);
        mem.write(b, 200 + i);
        EXPECT_EQ(mem.read(a), 100 + i);
        EXPECT_EQ(mem.read(b), 200 + i);
        EXPECT_EQ(mem.read(a), 100 + i);
    }
    EXPECT_EQ(mem.touchedWords(), 2u);
}

TEST(Memory, InterleavedStackAndGlobalWritesReadBack)
{
    // The emulator's two hot regions: frames below stackTop and the
    // global window, touched alternately the way a loop that spills
    // to its frame and walks a global array does.
    Memory mem;
    const Addr stack = comp::Executable::stackTop - 8;
    const Addr global = prog::Module::globalBase;
    for (std::int64_t i = 0; i < 2000; ++i) {
        mem.write(stack - 8 * static_cast<Addr>(i), i);
        mem.write(global + 8 * static_cast<Addr>(i), -i);
    }
    for (std::int64_t i = 0; i < 2000; ++i) {
        EXPECT_EQ(mem.read(global + 8 * static_cast<Addr>(i)), -i);
        EXPECT_EQ(mem.read(stack - 8 * static_cast<Addr>(i)), i);
    }
    EXPECT_EQ(mem.touchedWords(), 4000u);
}

TEST(Memory, ReadingUnwrittenPagesAllocatesNothing)
{
    Memory mem;
    mem.write(0x2000, 9);
    for (Addr page = 0; page < 64; ++page)
        EXPECT_EQ(mem.read(page * kPageBytes + 0x18 + 0x40000), 0);
    EXPECT_EQ(mem.read(0x2008), 0);  // same page, unwritten word
    EXPECT_EQ(mem.touchedWords(), 1u);
    std::size_t words = 0;
    mem.forEach([&](Addr addr, std::int64_t value) {
        ++words;
        EXPECT_EQ(addr, 0x2000u);
        EXPECT_EQ(value, 9);
    });
    EXPECT_EQ(words, 1u);
    // A page first read while unwritten is still allocated by a
    // later write.
    mem.write(0x40018, 5);
    EXPECT_EQ(mem.read(0x40018), 5);
    EXPECT_EQ(mem.touchedWords(), 2u);
}

// The TLB holds raw pointers into the page map, so a Memory may not
// be copied or moved: a second object would inherit a TLB that
// points into the first one's pages.
static_assert(!std::is_copy_constructible_v<Memory> &&
                  !std::is_move_constructible_v<Memory> &&
                  !std::is_copy_assignable_v<Memory> &&
                  !std::is_move_assignable_v<Memory>,
              "Memory is pinned");

TEST(MemoryDeath, UnalignedAccessPanics)
{
    Memory mem;
    EXPECT_DEATH(mem.write(0x1001, 1), "unaligned");
    EXPECT_DEATH((void)mem.read(0x1007), "unaligned");
}

TEST(Emulator, DivisionByZeroYieldsZero)
{
    // Each case C++ leaves undefined has one defined result: x / 0
    // is 0, and INT64_MIN / -1 wraps to INT64_MIN instead of
    // trapping.
    struct Case
    {
        std::int32_t a, shift, b;
        std::int64_t want;
    };
    for (const Case &c :
         {Case{7, 0, 0, 0},
          Case{1, 63, -1, std::numeric_limits<std::int64_t>::min()}}) {
        Emulator emu(comp::compile(testprog::divProgram(c.a, c.shift,
                                                        c.b)));
        emu.run();
        EXPECT_TRUE(emu.halted());
        EXPECT_EQ(globalWord(emu, 0), c.want)
            << c.a << " << " << c.shift << " / " << c.b;
    }
}

TEST(Emulator, SignedOverflowWraps)
{
    // add, sub, mul and addi wrap modulo 2^64 where int64_t
    // arithmetic would overflow (undefined behaviour in C++).
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    Emulator emu(comp::compile(testprog::wrapProgram(1, 63, -1)));
    emu.run();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(globalWord(emu, 0), kMax);  // INT64_MIN + -1
    EXPECT_EQ(globalWord(emu, 1), kMax);  // INT64_MIN - 1
    EXPECT_EQ(globalWord(emu, 2), kMin);  // INT64_MIN * -1
    EXPECT_EQ(globalWord(emu, 3), kMax);  // INT64_MIN + imm -1
}

TEST(Emulator, ResultHashIsDeterministic)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(50));
    Emulator a(exe), b(exe);
    a.run();
    b.run();
    EXPECT_EQ(a.resultHash(), b.resultHash());
}

TEST(Emulator, ResultHashSensitiveToResult)
{
    comp::Executable e1 = comp::compile(testprog::sumProgram(50));
    comp::Executable e2 = comp::compile(testprog::sumProgram(51));
    Emulator a(e1), b(e2);
    a.run();
    b.run();
    EXPECT_NE(a.resultHash(), b.resultHash());
}

TEST(Emulator, StatsClassifyInstructionMix)
{
    comp::Executable exe =
        comp::compile(testprog::factorialProgram(6));
    Emulator emu(exe);
    emu.run();
    const EmulatorStats &s = emu.stats();
    EXPECT_EQ(s.insts, s.progInsts + s.kills);
    EXPECT_EQ(s.memRefs, s.loads + s.stores);
    EXPECT_GT(s.calls, 0u);
    EXPECT_GT(s.condBranches, 0u);
    EXPECT_GE(s.condBranches, s.takenBranches);
}

TEST(Emulator, LvmSaveLoadInstructions)
{
    using namespace prog;
    // Hand-assemble at machine level: kill some registers, lvm-save,
    // define one again, lvm-load, halt — then inspect the LVM.
    comp::Executable exe;
    exe.name = "lvmtest";
    exe.globalBase = Module::globalBase;
    exe.globalWords = 2;
    using isa::Instruction;
    exe.code.push_back(
        Instruction::aluImm(isa::Opcode::Addi, 8, 0, 1));  // t0 live
    exe.code.push_back(
        Instruction::aluImm(isa::Opcode::Addi, 10, 0, 3)); // t2 live
    exe.code.push_back(Instruction::kill(RegMask{8, 9}));
    exe.code.push_back(Instruction::lvmSave(isa::regSp, -8));
    exe.code.push_back(
        Instruction::aluImm(isa::Opcode::Addi, 8, 0, 2));  // t0 live
    exe.code.push_back(Instruction::lvmLoad(isa::regSp, -8));
    exe.code.push_back(Instruction::halt());
    exe.procs.push_back(comp::ProcInfo{"main", 0, 7});
    exe.entry = 0;

    Emulator emu(exe);
    emu.run();
    // The lvm-load restored the mask saved at the kill point: t0
    // dead again even though it was redefined in between.
    EXPECT_FALSE(emu.lvm().isLive(8));
    EXPECT_FALSE(emu.lvm().isLive(9));
    EXPECT_TRUE(emu.lvm().isLive(10));
}

TEST(EmulatorDeath, RunawayPcPanics)
{
    comp::Executable exe;
    exe.name = "nohalt";
    exe.code.push_back(isa::Instruction::nop());
    exe.procs.push_back(comp::ProcInfo{"main", 0, 1});
    exe.entry = 0;
    Emulator emu(exe);
    EXPECT_DEATH(emu.run(), "outside code image");
}

} // namespace
} // namespace arch
} // namespace dvi
