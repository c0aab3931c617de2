// Online fault-recovery differential battery (docs/robustness.md,
// "Self-healing recovery").
//
// The property under test: losing a device mid-run is invisible to the
// data. A SelfHealingRunner driving a 3-device pipeline through a
// PermanentDeviceLoss must checkpoint, shrink to the survivors,
// repartition, recompile and resume — and the final state must be
// bitwise-equal to an unfaulted single-device run of the same length.
// Exercised for every grid and both engines, plus the recovery mechanics
// in isolation: survivorSpec remapping, FieldGuard restore fidelity and
// recovery composed with an explicit mid-run rebalance.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "repartition/self_healing.hpp"
#include "repartition_fixture.hpp"
#include "sys/fault.hpp"

namespace neon::repartition {

using set::Backend;
using set::BackendSpec;
using set::EngineKind;

namespace {

constexpr int kSteps = 6;
constexpr int kFaultAtRun = 3;
constexpr int kLostDevice = 1;

template <typename Grid>
void recoveryDifferential(EngineKind kind)
{
    const std::vector<double> want = referenceRun<Grid>(kind, kSteps);

    BackendSpec spec = BackendSpec::cpu(3, kind);
    spec.withFaults(sys::FaultPlan(7).add(
        sys::FaultSpec::deviceLoss(kLostDevice, kFaultAtRun)));
    Harness<Grid> h(Backend::make(spec));

    SelfHealingRunner<Grid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    runner.guardField(h.g);

    const std::vector<RecoveryEvent> events = runner.run(kSteps);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].lostDevice, kLostDevice);
    EXPECT_EQ(events[0].atStep, kFaultAtRun);
    EXPECT_EQ(events[0].lastCompletedStep, kFaultAtRun - 1);
    EXPECT_EQ(events[0].devicesBefore, 3);
    EXPECT_EQ(events[0].devicesAfter, 2);
    EXPECT_EQ(runner.completedSteps(), kSteps);
    EXPECT_EQ(runner.grid().devCount(), 2);

    runner.skeleton().sync();
    expectBitwiseEqual(snapshot(h.f), want, "recovered f");
}

}  // namespace

TEST(RecoveryDifferential, DGridSequential)
{
    recoveryDifferential<dgrid::DGrid>(EngineKind::Sequential);
}
TEST(RecoveryDifferential, DGridThreaded)
{
    recoveryDifferential<dgrid::DGrid>(EngineKind::Threaded);
}
TEST(RecoveryDifferential, EGridSequential)
{
    recoveryDifferential<egrid::EGrid>(EngineKind::Sequential);
}
TEST(RecoveryDifferential, EGridThreaded)
{
    recoveryDifferential<egrid::EGrid>(EngineKind::Threaded);
}
TEST(RecoveryDifferential, BGridSequential)
{
    recoveryDifferential<bgrid::BGrid>(EngineKind::Sequential);
}
TEST(RecoveryDifferential, BGridThreaded)
{
    recoveryDifferential<bgrid::BGrid>(EngineKind::Threaded);
}

TEST(RecoveryDifferential, ComposesWithExplicitRebalance)
{
    // Rebalance at step 2, lose device 1 at step 4: the runner must recover
    // from the *rebalanced* decomposition and still match the reference.
    const std::vector<double> want =
        referenceRun<dgrid::DGrid>(EngineKind::Sequential, kSteps);

    BackendSpec spec = BackendSpec::cpu(3, EngineKind::Sequential);
    spec.withFaults(sys::FaultPlan(11).add(sys::FaultSpec::deviceLoss(1, 4)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    SelfHealingRunner<dgrid::DGrid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    runner.guardField(h.g);

    ASSERT_TRUE(runner.run(2).empty());
    runner.repartition(skewedPlan(runner.grid()));

    const auto events = runner.run(kSteps);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].atStep, 4);
    EXPECT_EQ(events[0].devicesAfter, 2);

    runner.skeleton().sync();
    expectBitwiseEqual(snapshot(h.f), want, "rebalanced+recovered f");
}

TEST(RecoveryDifferential, SecondLossShrinksToOneDevice)
{
    // Two sequential losses: 3 -> 2 -> 1 devices. Both recoveries restore
    // a consistent snapshot; the run still matches the reference.
    const std::vector<double> want =
        referenceRun<dgrid::DGrid>(EngineKind::Sequential, kSteps);

    BackendSpec spec = BackendSpec::cpu(3, EngineKind::Sequential);
    // Old numbering: device 2 dies at run 2; after the shrink it is gone,
    // and survivor device 1 (old device 1) dies at survivor-run 2 — i.e.
    // original step 4 under the runner's one-run-per-step cadence.
    spec.withFaults(sys::FaultPlan(13)
                        .add(sys::FaultSpec::deviceLoss(2, 2))
                        .add(sys::FaultSpec::deviceLoss(1, 4)));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    SelfHealingRunner<dgrid::DGrid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    runner.guardField(h.g);

    const auto events = runner.run(kSteps);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].atStep, 2);
    EXPECT_EQ(events[0].lostDevice, 2);
    EXPECT_EQ(events[0].devicesAfter, 2);
    EXPECT_EQ(events[1].lostDevice, 1);
    EXPECT_EQ(events[1].devicesAfter, 1);

    runner.skeleton().sync();
    expectBitwiseEqual(snapshot(h.f), want, "twice-recovered f");
}

TEST(RecoveryDifferential, NonDeviceLostFaultsPropagate)
{
    // Transfer-failure faults are not recoverable by shrinking: the runner
    // must rethrow, not loop.
    BackendSpec spec = BackendSpec::cpu(2, EngineKind::Sequential);
    sys::FaultSpec transient = sys::FaultSpec::transientTransfer(1000);
    spec.withFaults(sys::FaultPlan(3).add(transient));
    Harness<dgrid::DGrid> h(Backend::make(spec));

    SelfHealingRunner<dgrid::DGrid> runner(h.grid, h.seq);
    runner.guardField(h.f);
    EXPECT_THROW(runner.run(1), RuntimeError);
}

// --- survivorSpec remapping -------------------------------------------------

TEST(SurvivorSpec, DropsTheLostDeviceAndItsSpeedFactor)
{
    BackendSpec spec = BackendSpec::cpu(3);
    spec.speedFactors = {1.0, 0.5, 0.25};
    const BackendSpec out = survivorSpec(spec, 1, 0);
    EXPECT_EQ(out.nDevices, 2);
    ASSERT_EQ(out.speedFactors.size(), 2u);
    EXPECT_DOUBLE_EQ(out.speedFactors[0], 1.0);
    EXPECT_DOUBLE_EQ(out.speedFactors[1], 0.25);
}

TEST(SurvivorSpec, RemapsFaultRuleDevicesAndRebasesRuns)
{
    BackendSpec spec = BackendSpec::cpu(4);
    spec.withFaults(sys::FaultPlan(17)
                        .add(sys::FaultSpec::deviceLoss(1, 3))    // the one that fired
                        .add(sys::FaultSpec::deviceLoss(3, 7))    // future loss, shifts
                        .add(sys::FaultSpec::deviceLoss(2, 1))    // already past, drops
                        .add(sys::FaultSpec::transientTransfer(2)));

    const BackendSpec out = survivorSpec(spec, /*lostDevice=*/1, /*faultedStep=*/3);
    EXPECT_EQ(out.nDevices, 3);
    ASSERT_EQ(out.faults.specs.size(), 2u);

    // deviceLoss(3, 7): device 3 -> 2, run 7 -> 4 in the survivor run space.
    const sys::FaultSpec& loss = out.faults.specs[0];
    EXPECT_EQ(loss.kind, sys::FaultKind::PermanentDeviceLoss);
    EXPECT_EQ(loss.device, 2);
    EXPECT_EQ(loss.run, 4);

    // The any-device transient rule survives untouched.
    EXPECT_EQ(out.faults.specs[1].kind, sys::FaultKind::TransientTransferFailure);
    EXPECT_EQ(out.faults.specs[1].device, -1);
}

TEST(SurvivorSpec, RefusesToShrinkBelowOneDevice)
{
    EXPECT_THROW(survivorSpec(BackendSpec::cpu(1), 0, 0), NeonException);
}

// --- FieldGuard restore fidelity --------------------------------------------

TEST(FieldGuard, RestoreUndoesSubsequentWrites)
{
    Harness<dgrid::DGrid>     h(Backend::cpu(2));
    const std::vector<double> before = snapshot(h.f);

    FieldGuard guard(h.f);
    guard.checkpoint();

    h.f.forEachActiveHost([](const index_3d&, int, double& v) { v = -7.5; });
    h.f.updateDev();
    guard.restore();
    expectBitwiseEqual(snapshot(h.f), before, "restored f");
}

TEST(FieldGuard, RestoreCrossesARepartition)
{
    // Snapshot on the even decomposition, restore after a skewed re-slice:
    // the dense global snapshot is decomposition-independent.
    Harness<dgrid::DGrid>     h(Backend::cpu(3));
    const std::vector<double> before = snapshot(h.f);

    FieldGuard guard(h.f);
    guard.checkpoint();

    h.f.forEachActiveHost([](const index_3d&, int, double& v) { v = 0.0; });
    h.f.updateDev();
    h.grid.repartition(skewedPlan(h.grid));
    guard.restore();
    expectBitwiseEqual(snapshot(h.f), before, "restored-across-repartition f");
}

}  // namespace neon::repartition
