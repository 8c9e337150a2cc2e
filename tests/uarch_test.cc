/**
 * @file
 * Out-of-order core tests: pipeline sanity, DVI hook behavior,
 * agreement with the functional oracle, and resource sweeps.
 */

#include <gtest/gtest.h>

#include "arch/emulator.hh"
#include "compiler/compile.hh"
#include "test_programs.hh"
#include "uarch/core.hh"
#include "workload/benchmarks.hh"

namespace dvi
{
namespace uarch
{
namespace
{

comp::Executable
smallBenchmark(workload::BenchmarkId id, bool edvi,
               unsigned main_iters = 2)
{
    workload::GeneratorParams params =
        workload::benchmarkParams(id);
    params.mainIters = main_iters;
    return comp::compile(
        workload::generate(params),
        comp::CompileOptions{edvi ? comp::EdviPolicy::CallSites
                                  : comp::EdviPolicy::None});
}

TEST(Core, RunsToCompletionAndCountsMatchEmulator)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Compress, true);

    arch::Emulator emu(exe);
    emu.run();
    ASSERT_TRUE(emu.halted());

    CoreConfig cfg;
    Core core(exe, cfg);
    const CoreStats &s = core.run();

    // Committed program instructions equal the functional stream's.
    EXPECT_EQ(s.committedProgInsts, emu.stats().progInsts);
    EXPECT_EQ(s.committedKills, emu.stats().kills);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_LE(s.ipc(), static_cast<double>(cfg.issueWidth));
}

TEST(Core, FeedTranslatesTheBlocksARunDoes)
{
    // The fetch stage pulls 256-record batches. A batch ends at a
    // block edge instead of splitting the next block, so the feed
    // translates exactly the leaders a run() over the same
    // instructions does.
    for (const comp::EdviPolicy policy :
         {comp::EdviPolicy::None, comp::EdviPolicy::CallSites}) {
        const comp::Executable exe = comp::compile(
            workload::generateBenchmark(workload::BenchmarkId::Go),
            comp::CompileOptions{policy});
        CoreConfig cfg;
        cfg.maxInsts = 120000;
        Core core(exe, cfg);
        core.run();
        arch::Emulator ref(exe);
        ref.run(core.emulator().stats().insts);
        EXPECT_EQ(core.emulator().stats().insts, ref.stats().insts);
        EXPECT_GT(ref.translatedBlocks(), 0u);
        EXPECT_EQ(core.emulator().translatedBlocks(),
                  ref.translatedBlocks());
    }
}

TEST(Core, NoDviConfigEliminatesNothing)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Perl, false);
    CoreConfig cfg;
    cfg.dvi = DviConfig::none();
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_EQ(s.savesEliminated, 0u);
    EXPECT_EQ(s.restoresEliminated, 0u);
    EXPECT_GT(s.savesSeen, 0u);
}

TEST(Core, EliminationMatchesFunctionalOracle)
{
    // Same binary, same LVM-Stack depth: the decode-side LVM
    // decisions must equal the architectural oracle's exactly.
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Perl, true);

    arch::EmulatorOptions opts;
    opts.lvmStackDepth = 16;
    arch::Emulator emu(exe, opts);
    emu.run();

    CoreConfig cfg;
    cfg.dvi = DviConfig::full();
    cfg.dvi.lvmStackDepth = 16;
    Core core(exe, cfg);
    const CoreStats &s = core.run();

    EXPECT_EQ(s.savesEliminated, emu.stats().saveElimOracle);
    EXPECT_EQ(s.restoresEliminated, emu.stats().restoreElimOracle);
    EXPECT_EQ(s.savesSeen, emu.stats().saves);
    EXPECT_EQ(s.restoresSeen, emu.stats().restores);
}

TEST(Core, LvmSchemeEliminatesOnlySaves)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Perl, true);
    CoreConfig cfg;
    cfg.dvi = DviConfig::lvmScheme();
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_GT(s.savesEliminated, 0u);
    EXPECT_EQ(s.restoresEliminated, 0u);
}

TEST(Core, DviImprovesIpcOnSaveHeavyCode)
{
    comp::Executable plain =
        smallBenchmark(workload::BenchmarkId::Perl, false, 20);
    comp::Executable edvi =
        smallBenchmark(workload::BenchmarkId::Perl, true, 20);

    CoreConfig cfg;
    cfg.maxInsts = 60000;
    cfg.dvi = DviConfig::none();
    Core base(plain, cfg);
    const double base_ipc = base.run().ipc();

    cfg.dvi = DviConfig::full();
    Core opt(edvi, cfg);
    const double opt_ipc = opt.run().ipc();
    EXPECT_GT(opt_ipc, base_ipc);
}

TEST(Core, MinimumRegisterFileDoesNotDeadlock)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Li, true);
    CoreConfig cfg;
    cfg.numPhysRegs = 33;  // one rename in flight at a time
    cfg.maxInsts = 5000;
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_GT(s.committedProgInsts, 0u);
    EXPECT_GT(s.renameStallCycles, 0u);
}

TEST(Core, IpcImprovesWithRegisterFileSize)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Gcc, false, 10);
    CoreConfig cfg;
    cfg.dvi = DviConfig::none();
    cfg.maxInsts = 30000;

    cfg.numPhysRegs = 34;
    Core small(exe, cfg);
    const double ipc_small = small.run().ipc();

    cfg.numPhysRegs = 96;
    Core big(exe, cfg);
    const double ipc_big = big.run().ipc();
    EXPECT_GT(ipc_big, ipc_small * 1.05);
}

TEST(Core, DviNarrowsTheRegisterFileGap)
{
    // The Fig. 5 effect: at a small file, I-DVI recovers a large
    // fraction of the IPC lost to rename stalls.
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Gcc, false, 10);
    CoreConfig cfg;
    cfg.maxInsts = 30000;
    cfg.numPhysRegs = 40;

    cfg.dvi = DviConfig::none();
    Core off(exe, cfg);
    const double ipc_off = off.run().ipc();

    cfg.dvi = DviConfig::idviOnly();
    Core on(exe, cfg);
    const double ipc_on = on.run().ipc();
    EXPECT_GT(ipc_on, ipc_off);
}

TEST(Core, FewerCachePortsHurt)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Vortex, false, 10);
    CoreConfig cfg;
    cfg.dvi = DviConfig::none();
    cfg.maxInsts = 30000;

    cfg.cachePorts = 1;
    Core one(exe, cfg);
    const double ipc1 = one.run().ipc();

    cfg.cachePorts = 3;
    Core three(exe, cfg);
    const double ipc3 = three.run().ipc();
    EXPECT_GT(ipc3, ipc1);
}

TEST(Core, MaxInstsBoundsTheRun)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Go, false, 1000);
    CoreConfig cfg;
    cfg.maxInsts = 10000;
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_GE(s.committedProgInsts, 10000u);
    EXPECT_LT(s.committedProgInsts, 12000u);
}

TEST(Core, BranchPredictionStatsAreSane)
{
    comp::Executable exe =
        smallBenchmark(workload::BenchmarkId::Go, false, 10);
    CoreConfig cfg;
    cfg.maxInsts = 30000;
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_GT(s.condBranches, 0u);
    EXPECT_LT(s.branchMispredicts, s.condBranches);
}

TEST(Core, StoresReachTheCacheExactlyOnce)
{
    comp::Executable exe = comp::compile(testprog::sumProgram(100));
    arch::Emulator emu(exe);
    emu.run();

    CoreConfig cfg;
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_EQ(s.storesExecuted, emu.stats().stores);
}

TEST(Core, Fig7EliminatesTheDeadPairs)
{
    comp::Executable exe = comp::compile(
        testprog::fig7Program(),
        comp::CompileOptions{comp::EdviPolicy::CallSites});
    CoreConfig cfg;
    cfg.dvi = DviConfig::full();
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_EQ(s.savesEliminated, 2u);
    EXPECT_EQ(s.restoresEliminated, 2u);
}

/** Property: every DVI mode runs every benchmark without tripping
 * internal invariants (conservation is checked inside run()). */
class CoreModeTest
    : public ::testing::TestWithParam<
          std::tuple<workload::BenchmarkId, int>>
{
};

TEST_P(CoreModeTest, RunsClean)
{
    const auto [id, mode] = GetParam();
    comp::Executable exe = smallBenchmark(id, mode == 2);
    CoreConfig cfg;
    cfg.maxInsts = 15000;
    cfg.dvi = mode == 0   ? DviConfig::none()
              : mode == 1 ? DviConfig::idviOnly()
                          : DviConfig::full();
    Core core(exe, cfg);
    const CoreStats &s = core.run();
    EXPECT_GT(s.committedProgInsts, 0u);
    EXPECT_GT(s.ipc(), 0.0);
}

std::string
coreModeTestName(
    const ::testing::TestParamInfo<std::tuple<workload::BenchmarkId,
                                              int>> &info)
{
    static const char *mode_names[] = {"none", "idvi", "full"};
    return workload::benchmarkName(std::get<0>(info.param)) +
           std::string("_") + mode_names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CoreModeTest,
    ::testing::Combine(
        ::testing::ValuesIn(workload::allBenchmarks()),
        ::testing::Values(0, 1, 2)),
    coreModeTestName);

} // namespace
} // namespace uarch
} // namespace dvi
