/**
 * @file
 * Tests for the traffic-based boot-policy manager (Sec. 6.9).
 */

#include <gtest/gtest.h>

#include "platform/policy.h"

namespace catalyzer::platform {
namespace {

using sandbox::BootKind;
using sandbox::Machine;

class PolicyTest : public ::testing::Test
{
  protected:
    PolicyTest()
        : machine(42),
          platform(machine,
                   PlatformConfig{BootStrategy::CatalyzerAuto}),
          manager(platform, PolicyConfig{})
    {
        for (const char *name : {"ds-text", "ds-media", "python-hello"})
            platform.deploy(apps::appByName(name));
    }

    Machine machine;
    ServerlessPlatform platform;
    BootPolicyManager manager;
};

TEST_F(PolicyTest, HotNormalFunctionEarnsTemplate)
{
    for (int i = 0; i < 8; ++i)
        manager.invoke("ds-media"); // cold, then warm boots
    EXPECT_EQ(platform.catalyzer().templateFor("ds-media"), nullptr);
    manager.rebalance();
    EXPECT_NE(platform.catalyzer().templateFor("ds-media"), nullptr);
    // Subsequent invocations fork-boot.
    const auto rec = manager.invoke("ds-media");
    EXPECT_EQ(rec.bootKind, BootKind::ForkBoot);
}

TEST_F(PolicyTest, QuietFunctionGetsNoTemplate)
{
    // One observation short of the hot threshold.
    for (std::size_t i = 1; i < PolicyConfig{}.hotThreshold; ++i)
        manager.observe("python-hello");
    manager.rebalance();
    EXPECT_EQ(platform.catalyzer().templateFor("python-hello"), nullptr);
}

TEST_F(PolicyTest, ColdFunctionsLoseTheirTemplate)
{
    for (int i = 0; i < 8; ++i)
        manager.observe("ds-text");
    manager.rebalance();
    ASSERT_NE(platform.catalyzer().templateFor("ds-text"), nullptr);

    // No traffic for several windows: the counter decays below the
    // hot threshold and the template is reclaimed.
    manager.rebalance();
    manager.rebalance();
    EXPECT_EQ(platform.catalyzer().templateFor("ds-text"), nullptr);
}

TEST_F(PolicyTest, BudgetCapsTemplatePool)
{
    PolicyConfig tight;
    tight.templateMemoryBudgetBytes = 12u << 20; // fits ~one template
    BootPolicyManager small(platform, tight);
    for (int i = 0; i < 10; ++i) {
        small.observe("ds-text");
        small.observe("ds-media");
    }
    small.rebalance();
    EXPECT_LE(small.templatedFunctions().size(), 1u);
    EXPECT_LE(small.templateMemoryBytes(),
              tight.templateMemoryBudgetBytes);
}

TEST_F(PolicyTest, TemplateMemoryAccounting)
{
    for (int i = 0; i < 4; ++i)
        manager.observe("ds-text");
    manager.rebalance();
    EXPECT_GT(manager.templateMemoryBytes(), 0u);
    EXPECT_EQ(manager.templatedFunctions().size(), 1u);
}

TEST_F(PolicyTest, RebalanceEmitsWindowedPolicySeries)
{
    for (int i = 0; i < 10; ++i)
        manager.observe("ds-text");
    manager.rebalance();

    auto &stats = machine.ctx().stats();
    const sim::WindowedHistogram *hot =
        stats.findWindowed("win.policy.hot_set");
    const sim::WindowedHistogram *builds =
        stats.findWindowed("win.policy.template_builds");
    const sim::WindowedHistogram *drops =
        stats.findWindowed("win.policy.template_drops");
    ASSERT_NE(hot, nullptr);
    ASSERT_NE(builds, nullptr);
    ASSERT_NE(drops, nullptr);
    EXPECT_EQ(hot->totalCount(), 1u);

    // A second rebalance appends another observation per series.
    manager.rebalance();
    EXPECT_EQ(hot->totalCount(), 2u);
}

} // namespace
} // namespace catalyzer::platform
